// Tests for the table store: values, schemas, tables, indexes, journal
// serialization and crash recovery.

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "db/database.hpp"
#include "db/journal.hpp"
#include "db/table.hpp"
#include "db/value.hpp"

namespace sphinx::db {
namespace {

Schema jobs_schema() {
  return Schema{{"name", ValueType::kText},
                {"state", ValueType::kText},
                {"site", ValueType::kInt},
                {"runtime", ValueType::kReal},
                {"done", ValueType::kBool}};
}

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(std::int64_t{5}).type(), ValueType::kInt);
  EXPECT_EQ(Value(2.5).type(), ValueType::kReal);
  EXPECT_EQ(Value("hi").type(), ValueType::kText);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);

  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_DOUBLE_EQ(Value(3).as_real(), 3.0);  // int widens to real
  EXPECT_EQ(Value("x").as_text(), "x");
  EXPECT_TRUE(Value(true).as_bool());
}

TEST(Value, WrongAccessorThrows) {
  EXPECT_THROW((void)Value("text").as_int(), AssertionError);
  EXPECT_THROW((void)Value(1).as_text(), AssertionError);
  EXPECT_THROW((void)Value(1.0).as_bool(), AssertionError);
  EXPECT_THROW((void)Value("t").as_real(), AssertionError);
}

TEST(Value, EqualityIsTyped) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_FALSE(Value(1) == Value("1"));
  EXPECT_FALSE(Value(1) == Value(1.0));
  EXPECT_EQ(Value(), Value());
}

TEST(Schema, IndexOfAndHas) {
  const Schema s = jobs_schema();
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.index_of("state"), 1u);
  EXPECT_TRUE(s.has("runtime"));
  EXPECT_FALSE(s.has("nope"));
  EXPECT_THROW((void)s.index_of("nope"), AssertionError);
}

TEST(Schema, DuplicateColumnRejected) {
  EXPECT_THROW(Schema({{"a", ValueType::kInt}, {"a", ValueType::kInt}}),
               AssertionError);
}

TEST(Schema, AcceptsChecksArityAndTypes) {
  const Schema s = jobs_schema();
  EXPECT_TRUE(s.accepts({Value("j"), Value("ready"), Value(1), Value(2.0),
                         Value(false)}));
  EXPECT_TRUE(s.accepts({Value("j"), Value("ready"), Value(1), Value(2),
                         Value(false)}));  // int -> real ok
  EXPECT_TRUE(s.accepts({Value("j"), Value(), Value(), Value(), Value()}));
  EXPECT_FALSE(s.accepts({Value("j"), Value("ready")}));  // wrong arity
  EXPECT_FALSE(s.accepts({Value(1), Value("ready"), Value(1), Value(2.0),
                          Value(false)}));  // wrong type
}

TEST(Table, InsertFindUpdateErase) {
  Table t("jobs", jobs_schema());
  const RowId id =
      t.insert({Value("j1"), Value("ready"), Value(3), Value(1.5), Value(false)});
  EXPECT_NE(id, kInvalidRow);
  EXPECT_EQ(t.size(), 1u);

  ASSERT_NE(t.find(id), nullptr);
  EXPECT_EQ(t.get(id, "state").as_text(), "ready");

  EXPECT_TRUE(t.update(id, "state", Value("planned")));
  EXPECT_EQ(t.get(id, "state").as_text(), "planned");

  EXPECT_TRUE(t.erase(id));
  EXPECT_EQ(t.find(id), nullptr);
  EXPECT_FALSE(t.erase(id));
  EXPECT_FALSE(t.update(id, "state", Value("x")));
}

TEST(Table, SchemaEnforcedOnInsert) {
  Table t("jobs", jobs_schema());
  EXPECT_THROW(t.insert({Value(1)}), AssertionError);
}

TEST(Table, RowIdsAreMonotonic) {
  Table t("jobs", jobs_schema());
  RowId prev = 0;
  for (int i = 0; i < 10; ++i) {
    const RowId id = t.insert(
        {Value("j"), Value("s"), Value(i), Value(0.0), Value(false)});
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(Table, FindByScanAndIndexAgree) {
  Table scan("jobs", jobs_schema());
  Table indexed("jobs", jobs_schema());
  indexed.create_index("state");
  for (int i = 0; i < 30; ++i) {
    const std::string state = i % 3 == 0 ? "ready" : "running";
    scan.insert({Value("j"), Value(state), Value(i), Value(0.0), Value(false)});
    indexed.insert(
        {Value("j"), Value(state), Value(i), Value(0.0), Value(false)});
  }
  EXPECT_EQ(scan.find_by("state", Value("ready")),
            indexed.find_by("state", Value("ready")));
  EXPECT_EQ(indexed.count_by("state", Value("ready")), 10u);
}

TEST(Table, IndexMaintainedAcrossUpdates) {
  Table t("jobs", jobs_schema());
  t.create_index("state");
  const RowId id =
      t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  EXPECT_EQ(t.count_by("state", Value("ready")), 1u);
  t.update(id, "state", Value("planned"));
  EXPECT_EQ(t.count_by("state", Value("ready")), 0u);
  EXPECT_EQ(t.count_by("state", Value("planned")), 1u);
  t.erase(id);
  EXPECT_EQ(t.count_by("state", Value("planned")), 0u);
}

TEST(Table, IndexCreatedAfterInsertsBackfills) {
  Table t("jobs", jobs_schema());
  for (int i = 0; i < 5; ++i) {
    t.insert({Value("j"), Value("ready"), Value(i), Value(0.0), Value(false)});
  }
  t.create_index("state");
  EXPECT_EQ(t.count_by("state", Value("ready")), 5u);
}

TEST(Table, SelectPredicate) {
  Table t("jobs", jobs_schema());
  for (int i = 0; i < 10; ++i) {
    t.insert({Value("j"), Value("s"), Value(i), Value(i * 1.0), Value(false)});
  }
  const auto big = t.select([&t](const Row& r) {
    return r.cells[t.schema().index_of("runtime")].as_real() >= 7.0;
  });
  EXPECT_EQ(big.size(), 3u);
}

TEST(Table, ForEachVisitsInInsertionOrder) {
  Table t("jobs", jobs_schema());
  for (int i = 0; i < 5; ++i) {
    t.insert({Value("j"), Value("s"), Value(i), Value(0.0), Value(false)});
  }
  std::int64_t expected = 0;
  t.for_each([&](const Row& r) {
    EXPECT_EQ(r.cells[2].as_int(), expected++);
  });
  EXPECT_EQ(expected, 5);
}

TEST(Database, CreateAndLookupTables) {
  Database d;
  d.create_table("jobs", jobs_schema());
  d.create_table("dags", Schema{{"name", ValueType::kText}});
  EXPECT_TRUE(d.has_table("jobs"));
  EXPECT_FALSE(d.has_table("nope"));
  EXPECT_EQ(d.table_count(), 2u);
  EXPECT_EQ(d.table_names(), (std::vector<std::string>{"jobs", "dags"}));
  EXPECT_THROW(d.create_table("jobs", jobs_schema()), AssertionError);
  EXPECT_THROW((void)d.table("nope"), AssertionError);
}

TEST(Database, JournalRecordsMutations) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  const RowId id =
      t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  t.update(id, "state", Value("planned"));
  t.erase(id);
  // create + insert + update + erase
  EXPECT_EQ(d.journal().size(), 4u);
}

TEST(Database, RecoverRebuildsExactState) {
  Database original;
  Table& jobs = original.create_table("jobs", jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(jobs.insert({Value("job-" + std::to_string(i)),
                               Value("ready"), Value(i % 4), Value(60.0),
                               Value(false)}));
  }
  for (int i = 0; i < 20; i += 2) {
    jobs.update(ids[i], "state", Value("completed"));
    jobs.update(ids[i], "done", Value(true));
  }
  jobs.erase(ids[3]);
  jobs.erase(ids[5]);

  Database recovered;
  ASSERT_TRUE(recovered.recover(original.journal()).ok());
  const Table& r = recovered.table("jobs");
  EXPECT_EQ(r.size(), 18u);
  EXPECT_EQ(r.get(ids[0], "state").as_text(), "completed");
  EXPECT_TRUE(r.get(ids[0], "done").as_bool());
  EXPECT_EQ(r.get(ids[1], "state").as_text(), "ready");
  EXPECT_EQ(r.find(ids[3]), nullptr);
}

TEST(Database, RecoveredDatabaseContinuesJournaling) {
  Database original;
  original.create_table("jobs", jobs_schema())
      .insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});

  Database recovered;
  ASSERT_TRUE(recovered.recover(original.journal()).ok());
  // Insert post-recovery: new row ids must not collide with replayed ones.
  const RowId id2 = recovered.table("jobs").insert(
      {Value("k"), Value("ready"), Value(2), Value(0.0), Value(false)});
  EXPECT_EQ(recovered.table("jobs").size(), 2u);
  EXPECT_GT(id2, RowId{1});
  // And the recovered journal can recover a third instance.
  Database third;
  ASSERT_TRUE(third.recover(recovered.journal()).ok());
  EXPECT_EQ(third.table("jobs").size(), 2u);
}

TEST(Database, RecoverIntoNonEmptyFails) {
  Database d;
  d.create_table("jobs", jobs_schema());
  Journal empty;
  EXPECT_FALSE(d.recover(empty).ok());
}

TEST(Database, RecoverDetectsCorruptReplay) {
  Journal j;
  JournalEntry bad;
  bad.op = JournalEntry::Op::kUpdate;
  bad.table = "missing";
  bad.row = 1;
  bad.cells = {Value(1)};
  j.append(bad);
  Database d;
  const auto status = d.recover(j);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "recover_replay");
}

TEST(Journal, SerializeParseRoundTrip) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  const RowId id = t.insert({Value("has\ttab and \\slash\nnewline"),
                             Value("ready"), Value(-7), Value(3.25),
                             Value(true)});
  t.update(id, "state", Value("planned"));
  t.erase(id);

  const std::string text = d.journal().serialize();
  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), d.journal().size());

  Database recovered;
  ASSERT_TRUE(recovered.recover(*parsed).ok());
  EXPECT_EQ(recovered.table("jobs").size(), 0u);
  // Serialized journals of both databases agree record-for-record.
  EXPECT_EQ(recovered.journal().serialize(), text);
}

TEST(Journal, ParseRejectsGarbage) {
  EXPECT_FALSE(Journal::parse("X\tjobs\n").has_value());
  EXPECT_FALSE(Journal::parse("U\tjobs\t1\n").has_value());
  EXPECT_FALSE(Journal::parse("I\tjobs\t1\tz:9\n").has_value());
  // Malformed numbers are parse errors, not exceptions.
  for (const char* text :
       {"I\tjobs\tabc\n", "U\tjobs\t1\tx\ti:1\n", "E\tjobs\t\n",
        "E\tjobs\t12345678901234567890123\n"}) {
    const auto parsed = Journal::parse(text);
    ASSERT_FALSE(parsed.has_value()) << text;
    EXPECT_EQ(parsed.error().code, "journal_parse") << text;
  }
}

TEST(Journal, ParseEmptyIsEmpty) {
  const auto j = Journal::parse("");
  ASSERT_TRUE(j.has_value());
  EXPECT_TRUE(j->empty());
}

TEST(Database, TruncateJournalKeepsData) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  d.truncate_journal();
  EXPECT_TRUE(d.journal().empty());
  EXPECT_EQ(d.table("jobs").size(), 1u);
}

TEST(Database, JournalingCanBeDisabled) {
  Database d;
  d.set_journaling(false);
  Table& t = d.create_table("jobs", jobs_schema());
  t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  EXPECT_TRUE(d.journal().empty());
}

Schema indexed_jobs_schema() {
  return Schema{{{"name", ValueType::kText},
                 indexed("state", ValueType::kText),
                 {"site", ValueType::kInt},
                 {"runtime", ValueType::kReal},
                 {"done", ValueType::kBool}}};
}

TEST(Table, SchemaDeclaredIndexes) {
  Database d;
  Table& t = d.create_table("jobs", indexed_jobs_schema());
  t.insert({Value("a"), Value("ready"), Value(1), Value(0.0), Value(false)});
  t.insert({Value("b"), Value("done"), Value(2), Value(1.0), Value(true)});
  t.insert({Value("c"), Value("ready"), Value(1), Value(2.0), Value(false)});

  // The declared index serves the query: no scan fallback.
  EXPECT_EQ(t.find_by("state", Value("ready")).size(), 2u);
  EXPECT_EQ(t.full_scans(), 0u);
#if SPHINX_CONTRACTS_ENABLED
  // Querying an undeclared column falls back to a (counted) full scan.
  EXPECT_EQ(t.find_by("name", Value("b")).size(), 1u);
  EXPECT_EQ(t.full_scans(), 1u);
#endif
}

TEST(Table, FindFirstMatchesFindBy) {
  Database d;
  Table& t = d.create_table("jobs", indexed_jobs_schema());
  const RowId first =
      t.insert({Value("a"), Value("ready"), Value(1), Value(0.0),
                Value(false)});
  t.insert({Value("b"), Value("ready"), Value(2), Value(1.0), Value(false)});

  // Index path.
  const Row* row = t.find_first("state", Value("ready"));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->id, first);
  EXPECT_EQ(row->id, t.find_by("state", Value("ready")).front());
  EXPECT_EQ(t.find_first("state", Value("nope")), nullptr);
  // Scan path agrees.
  row = t.find_first("name", Value("b"));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->id, t.find_by("name", Value("b")).front());
  EXPECT_EQ(t.find_first("name", Value("zzz")), nullptr);
}

TEST(Journal, CreateTableCarriesIndexFlags) {
  Database d;
  Table& t = d.create_table("jobs", indexed_jobs_schema());
  t.insert({Value("a"), Value("ready"), Value(1), Value(0.0), Value(false)});

  // The schema line marks indexed columns with a trailing '!'.
  const std::string text = d.journal().serialize();
  EXPECT_NE(text.find("state=text!"), std::string::npos);
  EXPECT_NE(text.find("name=text\t"), std::string::npos);

  // Round trip: the parsed journal rebuilds the index, so the recovered
  // table answers the hot query without a scan fallback.
  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  Database r;
  ASSERT_TRUE(r.recover(*parsed).ok());
  Table& rt = r.table("jobs");
  EXPECT_EQ(rt.find_by("state", Value("ready")).size(), 1u);
  EXPECT_EQ(rt.full_scans(), 0u);

  // Journals written before the flag existed still parse (no '!').
  const auto legacy = Journal::parse("C\tlegacy\tname=text\tstate=text\n");
  ASSERT_TRUE(legacy.has_value());
  ASSERT_EQ(legacy->entries().size(), 1u);
  for (const Column& col : legacy->entries()[0].schema) {
    EXPECT_FALSE(col.indexed);
  }
}

TEST(Journal, SequenceNumbersSurviveTruncation) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(t.insert({Value("j" + std::to_string(i)), Value("ready"),
                            Value(i), Value(0.0), Value(false)}));
  }
  // create + 5 inserts: sequences 0..5, next is 6.
  EXPECT_EQ(d.journal().base_seq(), 0u);
  EXPECT_EQ(d.journal().next_seq(), 6u);

  d.truncate_journal(4);
  EXPECT_EQ(d.journal().base_seq(), 4u);
  EXPECT_EQ(d.journal().next_seq(), 6u);
  EXPECT_EQ(d.journal().size(), 2u);

  // New mutations keep numbering from where the prefix left off.
  t.update(ids[0], "state", Value("planned"));
  EXPECT_EQ(d.journal().next_seq(), 7u);

  // Truncating before the base or past the end clamps, never throws.
  Journal j = d.journal();
  j.truncate_before(1);
  EXPECT_EQ(j.base_seq(), 4u);
  j.truncate_before(99);
  EXPECT_EQ(j.base_seq(), 7u);
  EXPECT_TRUE(j.empty());
}

TEST(Journal, SerializedSizeMatchesAndHeaderRoundTrips) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  const RowId id = t.insert({Value("tab\tand\nnewline"), Value("ready"),
                             Value(-3), Value(2.5), Value(true)});
  t.update(id, "state", Value("planned"));
  EXPECT_EQ(d.journal().size_bytes(), d.journal().serialize().size());

  // Untruncated journals serialize headerless (legacy byte format).
  EXPECT_EQ(d.journal().serialize().front(), 'C');

  d.truncate_journal(2);
  const std::string text = d.journal().serialize();
  EXPECT_EQ(text.rfind("#seq\t2\n", 0), 0u);
  EXPECT_EQ(d.journal().size_bytes(), text.size());

  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base_seq(), 2u);
  EXPECT_EQ(parsed->next_seq(), d.journal().next_seq());
  EXPECT_EQ(parsed->serialize(), text);

  // A header anywhere but the very start is corruption.
  EXPECT_FALSE(Journal::parse("C\tjobs\tname=text\n#seq\t2\n").has_value());
  EXPECT_FALSE(Journal::parse("#seq\tnope\n").has_value());
}

TEST(Database, SnapshotRestoreRoundTripIsByteStable) {
  Database original;
  Table& jobs = original.create_table("jobs", jobs_schema());
  original.create_table("empty", jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(jobs.insert({Value("job-" + std::to_string(i)),
                               Value(i % 2 == 0 ? "ready" : "planned"),
                               Value(i), Value(1.5 * i), Value(false)}));
  }
  jobs.update(ids[2], "state", Value("completed"));
  jobs.erase(ids[7]);  // tail erase: next_id exceeds the max live id

  const std::string image = original.snapshot();
  Database restored;
  ASSERT_TRUE(restored.restore(image).ok());

  // Restore is state, not history: the journal starts empty for the
  // caller to pair with a suffix.
  EXPECT_TRUE(restored.journal().empty());

  // The restored store is logically identical, snapshots to the same
  // bytes, and keeps allocating row ids past the erased tail.
  EXPECT_EQ(restored.snapshot(), image);
  EXPECT_EQ(restored.table("jobs").size(), 7u);
  EXPECT_EQ(restored.table("jobs").get(ids[2], "state").as_text(),
            "completed");
  const RowId fresh = restored.table("jobs").insert(
      {Value("new"), Value("ready"), Value(9), Value(0.0), Value(false)});
  EXPECT_GT(fresh, ids[7]);
  EXPECT_FALSE(restored.restore(image).ok());  // non-empty target refused
}

TEST(Database, SnapshotCarriesIndexDeclarations) {
  Database original;
  Table& t = original.create_table("jobs", indexed_jobs_schema());
  t.insert({Value("a"), Value("ready"), Value(1), Value(0.0), Value(false)});

  Database restored;
  ASSERT_TRUE(restored.restore(original.snapshot()).ok());
  Table& rt = restored.table("jobs");
  EXPECT_EQ(rt.find_by("state", Value("ready")).size(), 1u);
  EXPECT_EQ(rt.full_scans(), 0u);  // the index came back with the schema
}

TEST(Database, SuffixRecoveryReproducesCrashedJournalBytes) {
  // The checkpoint + suffix path: snapshot mid-history, keep mutating,
  // truncate, then recover a new database from (image, suffix).  The
  // recovered journal must be byte-identical to the crashed one -- the
  // recovered server must itself remain recoverable.
  Database crashed;
  Table& jobs = crashed.create_table("jobs", jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(jobs.insert({Value("j" + std::to_string(i)), Value("ready"),
                               Value(i), Value(0.0), Value(false)}));
  }
  const std::string image = crashed.snapshot();
  const std::uint64_t seq = crashed.journal().next_seq();
  jobs.update(ids[1], "state", Value("completed"));
  jobs.erase(ids[4]);
  crashed.truncate_journal(seq);

  Database recovered;
  ASSERT_TRUE(recovered.restore(image).ok());
  ASSERT_TRUE(recovered.recover(crashed.journal(), seq).ok());
  EXPECT_EQ(recovered.journal().serialize(), crashed.journal().serialize());
  EXPECT_EQ(recovered.snapshot(), crashed.snapshot());
  EXPECT_EQ(recovered.journal().base_seq(), seq);

  // The same suffix also replays from an *untruncated* crashed journal
  // (a crash between image publication and truncation): entries below
  // `seq` are skipped and the adopted journal is the compacted suffix.
  Database crashed_untruncated;
  Table& jobs2 = crashed_untruncated.create_table("jobs", jobs_schema());
  for (int i = 0; i < 6; ++i) {
    jobs2.insert({Value("j" + std::to_string(i)), Value("ready"), Value(i),
                  Value(0.0), Value(false)});
  }
  jobs2.update(ids[1], "state", Value("completed"));
  jobs2.erase(ids[4]);
  Database completed;
  ASSERT_TRUE(completed.restore(image).ok());
  ASSERT_TRUE(completed.recover(crashed_untruncated.journal(), seq).ok());
  EXPECT_EQ(completed.journal().serialize(), crashed.journal().serialize());
  EXPECT_EQ(completed.snapshot(), crashed.snapshot());

  // A suffix starting past the requested replay point is unusable.
  Journal too_new = crashed.journal();
  too_new.truncate_before(seq + 1);
  Database refused;
  ASSERT_TRUE(refused.restore(image).ok());
  const auto status = refused.recover(too_new, seq);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "recover_suffix");
}

TEST(Database, RestoreRejectsCorruptImages) {
  Database d;
  EXPECT_FALSE(d.restore("not a snapshot").ok());
  EXPECT_FALSE(d.restore("#db\t9\n").ok());          // unknown version
  EXPECT_FALSE(d.restore("#db\t1\nR\t1\tn\n").ok()); // row before table
}

TEST(Table, IndexBucketsStayInIdOrder) {
  // Updates must not move a row to the back of its index bucket: query
  // iteration order is a function of table state, not update history --
  // the property that makes snapshot/restore order-preserving.
  Table t("jobs", indexed_jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(t.insert({Value("j" + std::to_string(i)), Value("ready"),
                            Value(i), Value(0.0), Value(false)}));
  }
  t.update(ids[0], "site", Value(9));  // same state: erase + reinsert
  t.update(ids[2], "state", Value("planned"));
  t.update(ids[2], "state", Value("ready"));
  EXPECT_EQ(t.find_by("state", Value("ready")),
            (std::vector<RowId>{ids[0], ids[1], ids[2], ids[3]}));
}

}  // namespace
}  // namespace sphinx::db
