// Tests for the table store: values, schemas, tables, indexes, journal
// serialization and crash recovery.

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "db/database.hpp"
#include "db/encoding.hpp"
#include "db/journal.hpp"
#include "db/table.hpp"
#include "db/value.hpp"

namespace sphinx::db {
namespace {

/// Column positions of jobs_schema() and indexed_jobs_schema().
enum Col : std::size_t { kName, kState, kSite, kRuntime, kDone };

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

TEST(Value, HashAgreesWithEquality) {
  const Value::Hash hash;
  EXPECT_EQ(hash(Value(7)), hash(Value(std::int64_t{7})));
  EXPECT_EQ(hash(Value("ready")), hash(Value(std::string("ready"))));
  EXPECT_EQ(hash(Value(true)), hash(Value(true)));
  EXPECT_EQ(hash(Value()), hash(Value()));
}

TEST(Schema, DuplicateColumnRejected) {
  EXPECT_THROW(Schema({{"a", ValueType::kInt}, {"a", ValueType::kInt}}),
               AssertionError);
}

TEST(Schema, IndexedRealColumnRejected) {
  // Index lookup is Value equality, which a NaN cell never satisfies, so
  // no column that can hold a real (real or untyped) may carry an index.
  EXPECT_THROW(Schema({indexed("x", ValueType::kReal)}), AssertionError);
  EXPECT_THROW(Schema({indexed("x", ValueType::kNull)}), AssertionError);
  EXPECT_NO_THROW(Schema({indexed("i", ValueType::kInt),
                          indexed("t", ValueType::kText),
                          indexed("b", ValueType::kBool)}));

  // The persisted forms refuse the same declarations.
  EXPECT_FALSE(decode_column("x=real!").has_value());
  EXPECT_FALSE(decode_column("x=null!").has_value());
  EXPECT_TRUE(decode_column("x=real").has_value());
  EXPECT_TRUE(decode_column("x=int!").has_value());
  const auto journal = Journal::parse("C\tt\tx=real!\n");
  ASSERT_FALSE(journal.has_value());
  EXPECT_EQ(journal.error().code, "journal_parse");
  Database d;
  EXPECT_FALSE(d.restore("#db\t1\nT\tt\t1\tx=real!\n").ok());
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
  EXPECT_EQ(t.find(id)->cells[kState].as_text(), "ready");

  EXPECT_TRUE(t.update(id, kState, Value("planned")));
  EXPECT_EQ(t.find(id)->cells[kState].as_text(), "planned");

  EXPECT_TRUE(t.erase(id));
  EXPECT_EQ(t.find(id), nullptr);
  EXPECT_FALSE(t.erase(id));
  EXPECT_FALSE(t.update(id, kState, Value("x")));
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

Schema indexed_jobs_schema() {
  return Schema{{{"name", ValueType::kText},
                 indexed("state", ValueType::kText),
                 {"site", ValueType::kInt},
                 {"runtime", ValueType::kReal},
                 {"done", ValueType::kBool}}};
}

/// The ids of `t`'s rows whose `column` equals `value`, by a full scan.
std::vector<RowId> scan(const Table& t, std::size_t column,
                        const Value& value) {
  std::vector<RowId> out;
  t.for_each([&](const Row& row) {
    if (row.cells[column] == value) out.push_back(row.id);
  });
  return out;
}

TEST(Table, FindByScanAndIndexAgree) {
  Table t("jobs", indexed_jobs_schema());
  for (int i = 0; i < 30; ++i) {
    const std::string state = i % 3 == 0 ? "ready" : "running";
    t.insert({Value("j"), Value(state), Value(i), Value(0.0), Value(false)});
  }
  EXPECT_EQ(t.find_by(kState, Value("ready")),
            scan(t, kState, Value("ready")));
  EXPECT_EQ(t.find_by(kState, Value("ready")).size(), 10u);
}

TEST(Table, IndexMaintainedAcrossUpdates) {
  Table t("jobs", indexed_jobs_schema());
  const RowId id =
      t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  EXPECT_EQ(t.find_by(kState, Value("ready")).size(), 1u);
  t.update(id, kState, Value("planned"));
  EXPECT_TRUE(t.find_by(kState, Value("ready")).empty());
  EXPECT_EQ(t.find_by(kState, Value("planned")).size(), 1u);
  t.erase(id);
  EXPECT_TRUE(t.find_by(kState, Value("planned")).empty());
  t.check_invariants();
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
  EXPECT_TRUE(d.has_table("dags"));
  EXPECT_FALSE(d.has_table("nope"));
  EXPECT_THROW(d.create_table("jobs", jobs_schema()), AssertionError);
  EXPECT_THROW((void)d.table("nope"), AssertionError);
}

TEST(Database, JournalRecordsMutations) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  const RowId id =
      t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  t.update(id, kState, Value("planned"));
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
    jobs.update(ids[i], kState, Value("completed"));
    jobs.update(ids[i], kDone, Value(true));
  }
  jobs.erase(ids[3]);
  jobs.erase(ids[5]);

  Database recovered;
  ASSERT_TRUE(recovered.recover(original.journal()).ok());
  const Table& r = recovered.table("jobs");
  EXPECT_EQ(r.size(), 18u);
  EXPECT_EQ(r.find(ids[0])->cells[kState].as_text(), "completed");
  EXPECT_TRUE(r.find(ids[0])->cells[kDone].as_bool());
  EXPECT_EQ(r.find(ids[1])->cells[kState].as_text(), "ready");
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
  j.append_update("missing", 1, 0, Value(1));
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
  t.update(id, kState, Value("planned"));
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
  d.truncate_journal(d.journal().next_seq());
  EXPECT_TRUE(d.journal().empty());
  EXPECT_EQ(d.table("jobs").size(), 1u);
}

TEST(Table, SchemaDeclaredIndexes) {
  Database d;
  Table& t = d.create_table("jobs", indexed_jobs_schema());
  t.insert({Value("a"), Value("ready"), Value(1), Value(0.0), Value(false)});
  t.insert({Value("b"), Value("done"), Value(2), Value(1.0), Value(true)});
  t.insert({Value("c"), Value("ready"), Value(1), Value(2.0), Value(false)});

  // The declared index serves the query.
  EXPECT_EQ(t.find_by(kState, Value("ready")).size(), 2u);
  // There is no scan path: querying an undeclared column is a bug.
  EXPECT_THROW((void)t.find_by(kName, Value("b")), AssertionError);
  EXPECT_THROW((void)t.find_first(kSite, Value(1)), AssertionError);
  EXPECT_THROW((void)t.find_by(kDone + 1, Value(1)), AssertionError);
}

TEST(Table, FindFirstMatchesFindBy) {
  Database d;
  Table& t = d.create_table("jobs", indexed_jobs_schema());
  const RowId first =
      t.insert({Value("a"), Value("ready"), Value(1), Value(0.0),
                Value(false)});
  t.insert({Value("b"), Value("ready"), Value(2), Value(1.0), Value(false)});

  const Row* row = t.find_first(kState, Value("ready"));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->id, first);
  EXPECT_EQ(row->id, t.find_by(kState, Value("ready")).front());
  EXPECT_EQ(t.find_first(kState, Value("nope")), nullptr);
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
  // table answers the hot query.
  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  Database r;
  ASSERT_TRUE(r.recover(*parsed).ok());
  Table& rt = r.table("jobs");
  EXPECT_EQ(rt.schema().columns(), indexed_jobs_schema().columns());
  EXPECT_EQ(rt.find_by(kState, Value("ready")).size(), 1u);

  // Journals written before the flag existed still parse (no '!').
  const auto legacy = Journal::parse("C\tlegacy\tname=text\tstate=text\n");
  ASSERT_TRUE(legacy.has_value());
  ASSERT_EQ(legacy->size(), 1u);
  const auto create = Journal::decode(legacy->record(0));
  ASSERT_TRUE(create.has_value());
  for (const Column& col : create->schema) {
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
  t.update(ids[0], kState, Value("planned"));
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
  t.update(id, kState, Value("planned"));
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
  jobs.update(ids[2], kState, Value("completed"));
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
  EXPECT_EQ(restored.table("jobs").find(ids[2])->cells[kState].as_text(),
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
  // The index came back with the schema.
  EXPECT_EQ(rt.schema().columns(), indexed_jobs_schema().columns());
  EXPECT_EQ(rt.find_by(kState, Value("ready")).size(), 1u);
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
  jobs.update(ids[1], kState, Value("completed"));
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
  jobs2.update(ids[1], kState, Value("completed"));
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

  // So is a journal that ends before it.
  Database short_journal;
  ASSERT_TRUE(short_journal.restore(image).ok());
  StatusOrError past_end;
  EXPECT_NO_THROW(past_end =
                      short_journal.recover(crashed.journal(),
                                            crashed.journal().next_seq() + 1));
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.error().code, "recover_suffix");
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
  t.update(ids[0], kSite, Value(9));  // unindexed column: bucket untouched
  t.update(ids[1], kState, Value("ready"));  // same value: no re-key
  t.update(ids[2], kState, Value("planned"));
  t.update(ids[2], kState, Value("ready"));
  EXPECT_EQ(t.find_by(kState, Value("ready")),
            (std::vector<RowId>{ids[0], ids[1], ids[2], ids[3]}));
  t.check_invariants();
}

TEST(Database, RecoverRefusesRecordsTheStoreCouldNotHaveWritten) {
  const std::string create = "C\tt\ta=int\n";
  const std::string row = "I\tt\t1\ti:1\n";
  for (const std::string& text : {
           create + row + "U\tt\t1\t99\ti:2\n",  // no column 99
           create + row + "U\tt\t1\t0\ts:x\n",   // text in an int column
           create + "I\tt\t1\ti:1\ti:2\n",       // one cell too many
           create + "I\tt\t1\ts:x\n",            // text in an int column
           create + "I\tt\t0\ti:1\n",            // row id 0
           create + row + "I\tt\t1\ti:2\n",      // a repeated row id
           create + "I\tt\t2\ti:1\n",            // not the id t allocates
           std::string("C\tt\ta=int\ta=text\n"),  // a repeated column name
       }) {
    const auto journal = Journal::parse(text);
    ASSERT_TRUE(journal.has_value()) << text;
    Database d;
    StatusOrError status;
    bool threw = false;
    try {
      status = d.recover(*journal);
    } catch (const std::exception&) {
      threw = true;
    }
    EXPECT_FALSE(threw) << text;
    EXPECT_FALSE(status.ok()) << text;
    if (!status.ok()) {
      EXPECT_EQ(status.error().code, "recover_replay") << text;
    }
    // A refused replay leaves journaling on.
    d.create_table("after", Schema{{"b", ValueType::kInt}});
    EXPECT_EQ(d.journal().size(), 1u) << text;
  }
}

TEST(Database, RestoreRefusesImagesTheStoreCouldNotHaveWritten) {
  for (const char* image : {
           "#db\t1\nT\tt\t2\ta=int\nR\t1\ti:1\ti:2\n",    // wrong arity
           "#db\t1\nT\tt\t2\ta=int\nR\t1\ts:x\n",         // wrong cell type
           "#db\t1\nT\tt\t2\ta=int\nR\t0\ti:1\n",         // row id 0
           "#db\t1\nT\tt\t3\ta=int\nR\t1\ti:1\nR\t1\ti:2\n",  // repeated id
           "#db\t1\nT\tt\t4\ta=int\nR\t2\ti:1\nR\t1\ti:2\n",  // out of order
           "#db\t1\nT\tt\t1\ta=int\ta=int\n",             // repeated column
           "#db\t1\nT\tt\t2\ta=int\nR\t5\ti:1\n",         // cursor below a row
           "#db\t1\nT\tt\t0\ta=int\n",                    // cursor 0
       }) {
    Database d;
    StatusOrError status;
    bool threw = false;
    try {
      status = d.restore(image);
    } catch (const std::exception&) {
      threw = true;
    }
    EXPECT_FALSE(threw) << image;
    EXPECT_FALSE(status.ok()) << image;
    if (!status.ok()) {
      EXPECT_EQ(status.error().code, "restore_parse") << image;
    }
    // A refused restore leaves journaling on.
    d.create_table("after", Schema{{"b", ValueType::kInt}});
    EXPECT_EQ(d.journal().size(), 1u) << image;
  }
}

TEST(Journal, FieldEscapesAreExact) {
  // Backslash, tab and newline are written as \\, \t and \n wherever
  // they sit -- leading, trailing, next to each other or alone -- and
  // every other byte as it is.
  const std::pair<std::string, std::string> cases[] = {
      {"", ""},
      {"plain <xml a='1'>&amp;</xml>", "plain <xml a='1'>&amp;</xml>"},
      {"\\", "\\\\"},
      {"\t", "\\t"},
      {"\n", "\\n"},
      {"\\lead", "\\\\lead"},
      {"\tlead", "\\tlead"},
      {"trail\n", "trail\\n"},
      {"trail\\", "trail\\\\"},
      {"\t\n\\", "\\t\\n\\\\"},
      {"a\t\tb", "a\\t\\tb"},
      {"\n\nmid\n", "\\n\\nmid\\n"},
      {"\\t", "\\\\t"},
      {"\\\\n", "\\\\\\\\n"},
      {"x\ry", "x\ry"},
  };
  for (const auto& [raw, escaped] : cases) {
    std::string out = "cell:";
    append_field(out, raw);
    EXPECT_EQ(out, "cell:" + escaped) << raw;
    const auto back = unescape_field(escaped);
    ASSERT_TRUE(back.has_value()) << escaped;
    EXPECT_EQ(*back, raw);
  }
  // The journal writes a text cell through the same escape.
  Database d;
  Table& t = d.create_table("t", Schema{{"s", ValueType::kText}});
  t.insert({Value(std::string("\tx\\y\n"))});
  const std::string text = d.journal().serialize();
  EXPECT_NE(text.find("\ts:\\tx\\\\y\\n\n"), std::string::npos) << text;
}

TEST(Journal, NumbersMustBeTheWholeField) {
  // Each payload was once read by a prefix-tolerant parser and written
  // back differently (or read as another value).
  for (const char* cell : {"i:12abc", "i: 12", "i:+12", "i:", "r:1.5xyz",
                           "r:0x10", "r: 1", "r:", "b:2", "b:", "b:true",
                           "n:zzz"}) {
    const std::string text =
        std::string("C\tt\ta=null\nI\tt\t1\t") + cell + "\n";
    const auto parsed = Journal::parse(text);
    EXPECT_FALSE(parsed.has_value()) << cell;
    if (!parsed) {
      EXPECT_EQ(parsed.error().code, "journal_parse") << cell;
    }
    Database d;
    EXPECT_FALSE(
        d.restore(std::string("#db\t1\nT\tt\t2\ta=null\nR\t1\t") + cell + "\n")
            .ok())
        << cell;
  }
  // The snapshot's allocation cursor and row ids are whole decimals too.
  for (const char* image : {"#db\t1\nT\tt\t5x\ta=int\n",
                            "#db\t1\nT\tt\t-1\ta=int\n",
                            "#db\t1\nT\tt\t+3\ta=int\n",
                            "#db\t1\nT\tt\t3\ta=int\nR\t1x\ti:1\n",
                            "#db\t1\nT\tt\t3\ta=int\nR\t+1\ti:1\n"}) {
    Database d;
    EXPECT_FALSE(d.restore(image).ok()) << image;
  }
  // What the encoder writes still reads back to the same bytes.
  const std::string canonical =
      "C\tt\ta=null\nI\tt\t1\ti:-12\tr:-1.4999999999999999e-07\tr:-0.25\t"
      "r:nan\tr:-inf\tb:1\tb:0\tn:\n";
  const auto parsed = Journal::parse(canonical);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), canonical);
}

TEST(Table, ErasedPrefixIsReclaimed) {
  // An outbox-shaped table: one row inserted and erased at a time.  Ids
  // keep growing while lookups by id stay exact.
  Table t("outbox", jobs_schema());
  RowId last = kInvalidRow;
  for (int i = 0; i < 1000; ++i) {
    const RowId id = t.insert(
        {Value("j"), Value("s"), Value(i), Value(0.0), Value(false)});
    ASSERT_NE(t.find(id), nullptr);
    if (last != kInvalidRow) {
      EXPECT_TRUE(t.erase(last));
      EXPECT_EQ(t.find(last), nullptr);
    }
    last = id;
  }
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(last)->cells[kSite].as_int(), 999);
  t.check_invariants();
  // Interior erases leave the rest addressable and in id order.
  std::vector<RowId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(t.insert(
        {Value("k"), Value("s"), Value(i), Value(0.0), Value(false)}));
  }
  EXPECT_TRUE(t.erase(ids[2]));
  EXPECT_TRUE(t.erase(last));
  EXPECT_TRUE(t.erase(ids[0]));
  std::vector<RowId> seen;
  t.for_each([&](const Row& row) { seen.push_back(row.id); });
  EXPECT_EQ(seen, (std::vector<RowId>{ids[1], ids[3], ids[4], ids[5], ids[6],
                                      ids[7]}));
  t.check_invariants();
}

}  // namespace
}  // namespace sphinx::db
