// Tests for the table store: typed tables, cell codecs, indexes, journal
// serialization and crash recovery.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "common/contracts.hpp"
#include "core/state.hpp"
#include "db/database.hpp"
#include "db/encoding.hpp"
#include "db/journal.hpp"
#include "db/table.hpp"

namespace sphinx::db {
namespace {

/// A job-shaped row holding every cell type; kIndexState declares a hash
/// index on its state.
template <bool kIndexState>
struct JobRow {
  std::string name;
  std::string state;
  std::int64_t site = 0;
  double runtime = 0.0;
  bool done = false;

  static constexpr auto columns() {
    return std::tuple{column("name", &JobRow::name),
                      Field<JobRow, std::string>{"state", &JobRow::state,
                                                 kIndexState},
                      column("site", &JobRow::site),
                      column("runtime", &JobRow::runtime),
                      column("done", &JobRow::done)};
  }
};
using Job = JobRow<false>;
using IndexedJob = JobRow<true>;

/// A one-column row, table "t" of the hand-written journals and images.
struct Cell1 {
  std::int64_t a = 0;

  static constexpr auto columns() { return std::tuple{column("a", &Cell1::a)}; }
};

Job job(std::string name, std::string state, std::int64_t site,
        double runtime = 0.0, bool done = false) {
  return Job{std::move(name), std::move(state), site, runtime, done};
}

IndexedJob indexed_job(std::string name, std::string state,
                       std::int64_t site, double runtime = 0.0,
                       bool done = false) {
  return IndexedJob{std::move(name), std::move(state), site, runtime, done};
}

/// A field as `Codec` writes `v`.
template <typename T>
std::string written(const T& v) {
  std::string out;
  CellCodec<T>::write(out, v);
  return out;
}

/// Whether `Codec<T>` reads `field` (and then, what it read).
template <typename T>
bool reads(std::string_view field, T& out) {
  return CellCodec<T>::read(field, out);
}

TEST(CellCodec, ReadsBackWhatItWritesAndRefusesTheRest) {
  // Each member type writes its tag and reads its own field back.
  std::int64_t i = 0;
  ASSERT_TRUE(reads(written(std::int64_t{-12}), i));
  EXPECT_EQ(i, -12);
  double r = 0;
  ASSERT_TRUE(reads(written(0.1), r));
  EXPECT_EQ(r, 0.1);
  bool b = false;
  ASSERT_TRUE(reads(written(true), b));
  EXPECT_TRUE(b);
  std::string s;
  ASSERT_TRUE(reads(written(std::string("a\tb\n")), s));
  EXPECT_EQ(s, "a\tb\n");
  JobId id;
  ASSERT_TRUE(reads(written(JobId(7)), id));
  EXPECT_EQ(id, JobId(7));
  core::JobState state = core::JobState::kUnplanned;
  EXPECT_EQ(written(core::JobState::kRunning), "s:running");
  ASSERT_TRUE(reads(std::string_view("s:held"), state));
  EXPECT_EQ(state, core::JobState::kHeld);

  // A null, another tag, or a value outside the member's range is refused.
  int small = 0;
  std::uint64_t unsigned_value = 0;
  EXPECT_FALSE(reads("n:", i));
  EXPECT_FALSE(reads("r:1", i));
  EXPECT_FALSE(reads("i:1", r));
  EXPECT_FALSE(reads("s:1", b));
  EXPECT_FALSE(reads("i:1", s));
  EXPECT_FALSE(reads("i:99999999999", small));
  EXPECT_TRUE(reads("i:2147483647", small));
  EXPECT_FALSE(reads("i:-1", unsigned_value));
  EXPECT_FALSE(reads("i:-1", id));
  EXPECT_FALSE(reads("s:bogus", state));
  EXPECT_FALSE(reads("n:", state));
}

TEST(Schema, DuplicateColumnRejected) {
  // A row type cannot declare a name twice (a static_assert), and an
  // image repeating one differs from every declared table.
  Database restored;
  restored.create_table<Cell1>("t");
  const auto image = restored.restore("#db\t1\nT\tt\t1\ta=int\ta=int\n");
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.error().code, "recover_schema");
}

TEST(Schema, IndexedRealColumnRejected) {
  // Index lookup is equality, which a NaN cell never satisfies, so no
  // real column carries an index: indexed() refuses one at compile time,
  // and the persisted forms refuse the same declarations.
  EXPECT_FALSE(decode_column("x=real!").has_value());
  EXPECT_FALSE(decode_column("x=null!").has_value());
  EXPECT_TRUE(decode_column("x=real").has_value());
  EXPECT_TRUE(decode_column("x=int!").has_value());
  Database d;
  d.create_table<Cell1>("t");
  EXPECT_FALSE(d.restore("#db\t1\nT\tt\t1\tx=real!\n").ok());
}

TEST(Schema, AcceptsChecksArityAndTypes) {
  // The column list is the schema: a row read from text has one cell per
  // column, each of its column's type.  A null and an int in a real
  // column are refused too: no writer produces them.
  Table<Job> t("jobs");
  const std::string_view good[] = {"s:j", "s:ready", "i:1", "r:2", "b:0"};
  EXPECT_TRUE(t.read_row(1, good).ok());
  const std::string_view short_row[] = {"s:j", "s:ready"};
  const std::string_view wrong_type[] = {"i:1", "s:ready", "i:1", "r:2",
                                         "b:0"};
  const std::string_view int_real[] = {"s:j", "s:ready", "i:1", "i:2", "b:0"};
  const std::string_view null_cell[] = {"s:j", "n:", "i:1", "r:2", "b:0"};
  EXPECT_FALSE(t.read_row(2, short_row).ok());
  EXPECT_FALSE(t.read_row(2, wrong_type).ok());
  EXPECT_FALSE(t.read_row(2, int_real).ok());
  EXPECT_FALSE(t.read_row(2, null_cell).ok());
  EXPECT_EQ(t.size(), 1u);  // a refused row is not placed
  EXPECT_EQ(t.find(1)->site, 1);
}

TEST(Table, InsertFindUpdateErase) {
  Table<Job> t("jobs");
  const RowId id = t.insert(job("j1", "ready", 3, 1.5));
  EXPECT_NE(id, kInvalidRow);
  EXPECT_EQ(t.size(), 1u);

  ASSERT_NE(t.find(id), nullptr);
  EXPECT_EQ(t.find(id)->state, "ready");

  EXPECT_TRUE(t.set<&Job::state>(id, "planned"));
  EXPECT_EQ(t.find(id)->state, "planned");

  EXPECT_TRUE(t.erase(id));
  EXPECT_EQ(t.find(id), nullptr);
  EXPECT_FALSE(t.erase(id));
  EXPECT_FALSE(t.set<&Job::state>(id, "x"));
}

TEST(Table, RowIdsAreMonotonic) {
  Table<Job> t("jobs");
  RowId prev = 0;
  for (int i = 0; i < 10; ++i) {
    const RowId id = t.insert(job("j", "s", i));
    EXPECT_GT(id, prev);
    prev = id;
  }
}

/// The ids of `t`'s rows whose state is `state`, by a full scan.
std::vector<RowId> scan(const Table<IndexedJob>& t, const std::string& state) {
  std::vector<RowId> out;
  t.for_each([&](RowId id, const IndexedJob& row) {
    if (row.state == state) out.push_back(id);
  });
  return out;
}

TEST(Table, FindByScanAndIndexAgree) {
  Table<IndexedJob> t("jobs");
  for (int i = 0; i < 30; ++i) {
    t.insert(indexed_job("j", i % 3 == 0 ? "ready" : "running", i));
  }
  EXPECT_EQ(t.find_by<&IndexedJob::state>("ready"), scan(t, "ready"));
  EXPECT_EQ(t.find_by<&IndexedJob::state>("ready").size(), 10u);
}

TEST(Table, IndexMaintainedAcrossUpdates) {
  Table<IndexedJob> t("jobs");
  const RowId id = t.insert(indexed_job("j", "ready", 1));
  EXPECT_EQ(t.find_by<&IndexedJob::state>("ready").size(), 1u);
  t.set<&IndexedJob::state>(id, "planned");
  EXPECT_TRUE(t.find_by<&IndexedJob::state>("ready").empty());
  EXPECT_EQ(t.find_by<&IndexedJob::state>("planned").size(), 1u);
  t.erase(id);
  EXPECT_TRUE(t.find_by<&IndexedJob::state>("planned").empty());
  t.check_invariants();
}

TEST(Table, ForEachVisitsInInsertionOrder) {
  Table<Job> t("jobs");
  for (int i = 0; i < 5; ++i) t.insert(job("j", "s", i));
  std::int64_t expected = 0;
  t.for_each([&](RowId, const Job& row) { EXPECT_EQ(row.site, expected++); });
  EXPECT_EQ(expected, 5);
}

TEST(Database, CreateAndLookupTables) {
  Database d;
  Table<Job>& jobs = d.create_table<Job>("jobs");
  d.create_table<Cell1>("dags");
  EXPECT_EQ(jobs.name(), "jobs");
  // Declaring a table journals nothing: the code declares the schema,
  // and an image carries it.
  EXPECT_TRUE(d.journal().empty());
  EXPECT_EQ(d.snapshot(),
            "#db\t1\nT\tjobs\t1\tname=text\tstate=text\tsite=int\t"
            "runtime=real\tdone=bool\nT\tdags\t1\ta=int\n");
  EXPECT_THROW(d.create_table<Job>("jobs"), AssertionError);
}

TEST(Database, JournalRecordsMutations) {
  Database d;
  Table<Job>& t = d.create_table<Job>("jobs");
  const RowId id = t.insert(job("j", "ready", 1));
  t.set<&Job::state>(id, "planned");
  t.erase(id);
  // insert + update + erase
  EXPECT_EQ(d.journal().size(), 3u);
}

TEST(Database, RecoverRebuildsExactState) {
  Database original;
  Table<Job>& jobs = original.create_table<Job>("jobs");
  std::vector<RowId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(jobs.insert(job("job-" + std::to_string(i), "ready", i % 4,
                                  60.0)));
  }
  for (int i = 0; i < 20; i += 2) {
    jobs.set<&Job::state>(ids[i], "completed");
    jobs.set<&Job::done>(ids[i], true);
  }
  jobs.erase(ids[3]);
  jobs.erase(ids[5]);

  Database recovered;
  const Table<Job>& r = recovered.create_table<Job>("jobs");
  ASSERT_TRUE(recovered.recover(original.journal()).ok());
  EXPECT_EQ(r.size(), 18u);
  EXPECT_EQ(r.find(ids[0])->state, "completed");
  EXPECT_TRUE(r.find(ids[0])->done);
  EXPECT_EQ(r.find(ids[1])->state, "ready");
  EXPECT_EQ(r.find(ids[3]), nullptr);
}

TEST(Database, RecoveredDatabaseContinuesJournaling) {
  Database original;
  original.create_table<Job>("jobs").insert(job("j", "ready", 1));

  Database recovered;
  Table<Job>& jobs = recovered.create_table<Job>("jobs");
  ASSERT_TRUE(recovered.recover(original.journal()).ok());
  // Insert post-recovery: new row ids must not collide with replayed ones.
  const RowId id2 = jobs.insert(job("k", "ready", 2));
  EXPECT_EQ(jobs.size(), 2u);
  EXPECT_GT(id2, RowId{1});
  // And the recovered journal can recover a third instance.
  Database third;
  const Table<Job>& third_jobs = third.create_table<Job>("jobs");
  ASSERT_TRUE(third.recover(recovered.journal()).ok());
  EXPECT_EQ(third_jobs.size(), 2u);
}

TEST(Database, RecoverIntoNonEmptyFails) {
  Database d;
  d.create_table<Job>("jobs").insert(job("j", "ready", 1));
  const auto status = d.recover(d.journal());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "recover_nonempty");
}

TEST(Database, RecoverDetectsCorruptReplay) {
  const auto j = Journal::parse("U\tmissing\t1\t0\ti:1\n");
  ASSERT_TRUE(j.has_value());
  Database d;
  d.create_table<Cell1>("t");
  const auto status = d.recover(*j);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "recover_replay");
}

TEST(Journal, SerializeParseRoundTrip) {
  Database d;
  Table<Job>& t = d.create_table<Job>("jobs");
  const RowId id =
      t.insert(job("has\ttab and \\slash\nnewline", "ready", -7, 3.25, true));
  t.set<&Job::state>(id, "planned");
  t.erase(id);

  const std::string text = d.journal().serialize();
  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), d.journal().size());

  Database recovered;
  const Table<Job>& jobs = recovered.create_table<Job>("jobs");
  ASSERT_TRUE(recovered.recover(*parsed).ok());
  EXPECT_EQ(jobs.size(), 0u);
  // Serialized journals of both databases agree record-for-record.
  EXPECT_EQ(recovered.journal().serialize(), text);
}

TEST(Journal, ParseRejectsGarbage) {
  EXPECT_FALSE(Journal::parse("X\tjobs\n").has_value());
  // Tables are declared in code, so a create record is no record kind.
  EXPECT_FALSE(Journal::parse("C\tjobs\tname=text\n").has_value());
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
  Table<Job>& t = d.create_table<Job>("jobs");
  t.insert(job("j", "ready", 1));
  d.truncate_journal(d.journal().next_seq());
  EXPECT_TRUE(d.journal().empty());
  EXPECT_EQ(t.size(), 1u);
}

TEST(Table, SchemaDeclaredIndexes) {
  Database d;
  Table<IndexedJob>& t = d.create_table<IndexedJob>("jobs");
  t.insert(indexed_job("a", "ready", 1));
  t.insert(indexed_job("b", "done", 2, 1.0, true));
  t.insert(indexed_job("c", "ready", 1, 2.0));

  // The declared index serves the query.  There is no scan path: a
  // find_by() on an undeclared column does not compile.
  EXPECT_EQ(t.find_by<&IndexedJob::state>("ready").size(), 2u);
  EXPECT_EQ(t.columns()[1], (Column{"state", CellType::kText, true}));
  EXPECT_FALSE(t.columns()[0].indexed);
}

TEST(Table, FindFirstMatchesFindBy) {
  Database d;
  Table<IndexedJob>& t = d.create_table<IndexedJob>("jobs");
  const RowId first = t.insert(indexed_job("a", "ready", 1));
  t.insert(indexed_job("b", "ready", 2, 1.0));

  EXPECT_EQ(t.first<&IndexedJob::state>("ready"), first);
  EXPECT_EQ(t.first<&IndexedJob::state>("ready"),
            t.find_by<&IndexedJob::state>("ready").front());
  EXPECT_EQ(t.first<&IndexedJob::state>("nope"), kInvalidRow);
  EXPECT_EQ(t.find(kInvalidRow), nullptr);
}

TEST(Journal, SequenceNumbersSurviveTruncation) {
  Database d;
  Table<Job>& t = d.create_table<Job>("jobs");
  std::vector<RowId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(t.insert(job("j" + std::to_string(i), "ready", i)));
  }
  // 5 inserts: sequences 0..4, next is 5.
  EXPECT_EQ(d.journal().base_seq(), 0u);
  EXPECT_EQ(d.journal().next_seq(), 5u);

  d.truncate_journal(3);
  EXPECT_EQ(d.journal().base_seq(), 3u);
  EXPECT_EQ(d.journal().next_seq(), 5u);
  EXPECT_EQ(d.journal().size(), 2u);

  // New mutations keep numbering from where the prefix left off.
  t.set<&Job::state>(ids[0], "planned");
  EXPECT_EQ(d.journal().next_seq(), 6u);

  // Truncating before the base or past the end clamps, never throws.
  Journal j = d.journal();
  j.truncate_before(1);
  EXPECT_EQ(j.base_seq(), 3u);
  j.truncate_before(99);
  EXPECT_EQ(j.base_seq(), 6u);
  EXPECT_TRUE(j.empty());
}

TEST(Journal, SerializedSizeMatchesAndHeaderRoundTrips) {
  Database d;
  Table<Job>& t = d.create_table<Job>("jobs");
  const RowId id = t.insert(job("tab\tand\nnewline", "ready", -3, 2.5, true));
  t.set<&Job::state>(id, "planned");
  EXPECT_EQ(d.journal().size_bytes(), d.journal().serialize().size());

  // Untruncated journals serialize headerless (legacy byte format).
  EXPECT_EQ(d.journal().serialize().front(), 'I');

  d.truncate_journal(1);
  const std::string text = d.journal().serialize();
  EXPECT_EQ(text.rfind("#seq\t1\n", 0), 0u);
  EXPECT_EQ(d.journal().size_bytes(), text.size());

  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base_seq(), 1u);
  EXPECT_EQ(parsed->next_seq(), d.journal().next_seq());
  EXPECT_EQ(parsed->serialize(), text);

  // A header anywhere but the very start is corruption.
  EXPECT_FALSE(Journal::parse("E\tjobs\t1\n#seq\t2\n").has_value());
  EXPECT_FALSE(Journal::parse("#seq\tnope\n").has_value());
}

TEST(Database, SnapshotRestoreRoundTripIsByteStable) {
  Database original;
  Table<Job>& jobs = original.create_table<Job>("jobs");
  original.create_table<Job>("empty");
  std::vector<RowId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(jobs.insert(job("job-" + std::to_string(i),
                                  i % 2 == 0 ? "ready" : "planned", i,
                                  1.5 * i)));
  }
  jobs.set<&Job::state>(ids[2], "completed");
  jobs.erase(ids[7]);  // tail erase: next_id exceeds the max live id

  const std::string image = original.snapshot();
  Database restored;
  Table<Job>& restored_jobs = restored.create_table<Job>("jobs");
  restored.create_table<Job>("empty");
  ASSERT_TRUE(restored.restore(image).ok());

  // Restore is state, not history: the journal starts empty for the
  // caller to pair with a suffix.
  EXPECT_TRUE(restored.journal().empty());

  // The restored store is logically identical, snapshots to the same
  // bytes, and keeps allocating row ids past the erased tail.
  EXPECT_EQ(restored.snapshot(), image);
  EXPECT_EQ(restored_jobs.size(), 7u);
  EXPECT_EQ(restored_jobs.find(ids[2])->state, "completed");
  const RowId fresh = restored_jobs.insert(job("new", "ready", 9));
  EXPECT_GT(fresh, ids[7]);
  EXPECT_FALSE(restored.restore(image).ok());  // non-empty target refused
}

TEST(Database, SnapshotCarriesIndexDeclarations) {
  Database original;
  original.create_table<IndexedJob>("jobs").insert(
      indexed_job("a", "ready", 1));
  const std::string image = original.snapshot();
  EXPECT_NE(image.find("\tstate=text!\t"), std::string::npos);

  Database restored;
  const Table<IndexedJob>& rt = restored.create_table<IndexedJob>("jobs");
  ASSERT_TRUE(restored.restore(image).ok());
  // The index came back with the rows.
  EXPECT_EQ(rt.find_by<&IndexedJob::state>("ready").size(), 1u);

  // An image whose table record drops the declared index is refused.
  std::string dropped = image;
  dropped.erase(dropped.find("state=text!") + 10, 1);
  Database unindexed;
  unindexed.create_table<IndexedJob>("jobs");
  const auto status = unindexed.restore(dropped);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "recover_schema");
}

TEST(Database, SuffixRecoveryReproducesCrashedJournalBytes) {
  // The checkpoint + suffix path: snapshot mid-history, keep mutating,
  // truncate, then recover a new database from (image, suffix).  The
  // recovered journal must be byte-identical to the crashed one -- the
  // recovered server must itself remain recoverable.
  Database crashed;
  Table<Job>& jobs = crashed.create_table<Job>("jobs");
  std::vector<RowId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(jobs.insert(job("j" + std::to_string(i), "ready", i)));
  }
  const std::string image = crashed.snapshot();
  const std::uint64_t seq = crashed.journal().next_seq();
  jobs.set<&Job::state>(ids[1], "completed");
  jobs.erase(ids[4]);
  crashed.truncate_journal(seq);

  Database recovered;
  recovered.create_table<Job>("jobs");
  ASSERT_TRUE(recovered.restore(image).ok());
  ASSERT_TRUE(recovered.recover(crashed.journal(), seq).ok());
  EXPECT_EQ(recovered.journal().serialize(), crashed.journal().serialize());
  EXPECT_EQ(recovered.snapshot(), crashed.snapshot());
  EXPECT_EQ(recovered.journal().base_seq(), seq);

  // The same suffix also replays from an *untruncated* crashed journal
  // (a crash between image publication and truncation): entries below
  // `seq` are skipped and the adopted journal is the compacted suffix.
  Database crashed_untruncated;
  Table<Job>& jobs2 = crashed_untruncated.create_table<Job>("jobs");
  for (int i = 0; i < 6; ++i) {
    jobs2.insert(job("j" + std::to_string(i), "ready", i));
  }
  jobs2.set<&Job::state>(ids[1], "completed");
  jobs2.erase(ids[4]);
  Database completed;
  completed.create_table<Job>("jobs");
  ASSERT_TRUE(completed.restore(image).ok());
  ASSERT_TRUE(completed.recover(crashed_untruncated.journal(), seq).ok());
  EXPECT_EQ(completed.journal().serialize(), crashed.journal().serialize());
  EXPECT_EQ(completed.snapshot(), crashed.snapshot());

  // A suffix starting past the requested replay point is unusable.
  Journal too_new = crashed.journal();
  too_new.truncate_before(seq + 1);
  Database refused;
  refused.create_table<Job>("jobs");
  ASSERT_TRUE(refused.restore(image).ok());
  const auto status = refused.recover(too_new, seq);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "recover_suffix");

  // So is a journal that ends before it.
  Database short_journal;
  short_journal.create_table<Job>("jobs");
  ASSERT_TRUE(short_journal.restore(image).ok());
  StatusOrError past_end;
  EXPECT_NO_THROW(past_end =
                      short_journal.recover(crashed.journal(),
                                            crashed.journal().next_seq() + 1));
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.error().code, "recover_suffix");
}

TEST(Database, RestoreRejectsCorruptImages) {
  // No header, an unknown version, a row before any table.
  for (const char* image :
       {"not a snapshot", "#db\t9\n", "#db\t1\nR\t1\tn\n"}) {
    Database d;
    d.create_table<Cell1>("t");
    EXPECT_FALSE(d.restore(image).ok()) << image;
  }
}

TEST(Table, IndexBucketsStayInIdOrder) {
  // Updates must not move a row to the back of its index bucket: query
  // iteration order is a function of table state, not update history --
  // the property that makes snapshot/restore order-preserving.
  Table<IndexedJob> t("jobs");
  std::vector<RowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(t.insert(indexed_job("j" + std::to_string(i), "ready", i)));
  }
  t.set<&IndexedJob::site>(ids[0], 9);  // unindexed column: bucket untouched
  t.set<&IndexedJob::state>(ids[1], "ready");  // same value: no re-key
  t.set<&IndexedJob::state>(ids[2], "planned");
  t.set<&IndexedJob::state>(ids[2], "ready");
  EXPECT_EQ(t.find_by<&IndexedJob::state>("ready"),
            (std::vector<RowId>{ids[0], ids[1], ids[2], ids[3]}));
  t.check_invariants();
}

TEST(Database, RecoverRefusesRecordsTheStoreCouldNotHaveWritten) {
  const std::string row = "I\tt\t1\ti:1\n";
  const std::pair<std::string, const char*> cases[] = {
      {row + "U\tt\t1\t99\ti:2\n", "recover_replay"},  // no column 99
      {row + "U\tt\t1\t0\ts:x\n", "recover_replay"},   // text cell
      {row + "U\tt\t1\t0\tn:\n", "recover_replay"},    // a null
      {row + "U\tt\t2\t0\ti:2\n", "recover_replay"},   // no row 2
      {"I\tt\t1\ti:1\ti:2\n", "recover_replay"},       // too wide
      {"I\tt\t1\ts:x\n", "recover_replay"},            // text cell
      {"I\tt\t0\ti:1\n", "recover_replay"},            // row id 0
      {row + "I\tt\t1\ti:2\n", "recover_replay"},      // id again
      {"I\tt\t2\ti:1\n", "recover_replay"},            // not next
      {row + "E\tt\t2\n", "recover_replay"},            // no row 2 to erase
      {"I\tu\t1\ti:1\n", "recover_replay"},            // an undeclared table
  };
  for (const auto& [text, code] : cases) {
    const auto journal = Journal::parse(text);
    ASSERT_TRUE(journal.has_value()) << text;
    Database d;
    d.create_table<Cell1>("t");
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
      EXPECT_EQ(status.error().code, code) << text;
    }
    // A refused replay leaves the journal as it was.
    EXPECT_TRUE(d.journal().empty()) << text;
  }
  // No insert takes the last row id, after which the cursor would wrap.
  Database edge;
  edge.create_table<Cell1>("t");
  ASSERT_TRUE(edge.restore("#db\t1\nT\tt\t18446744073709551614\ta=int\n").ok());
  const auto tail = Journal::parse(
      "#seq\t1\nI\tt\t18446744073709551614\ti:1\n"
      "I\tt\t18446744073709551615\ti:2\n");
  ASSERT_TRUE(tail.has_value());
  StatusOrError status;
  EXPECT_NO_THROW(status = edge.recover(*tail, 1));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "recover_replay");
}

TEST(Database, RestoreRefusesImagesTheStoreCouldNotHaveWritten) {
  const std::pair<const char*, const char*> cases[] = {
      {"#db\t1\nT\tt\t2\ta=int\nR\t1\ti:1\ti:2\n", "restore_parse"},  // arity
      {"#db\t1\nT\tt\t2\ta=int\nR\t1\ts:x\n", "restore_parse"},  // cell type
      {"#db\t1\nT\tt\t2\ta=int\nR\t1\tn:\n", "restore_parse"},   // a null
      {"#db\t1\nT\tt\t2\ta=int\nR\t0\ti:1\n", "restore_parse"},  // row id 0
      {"#db\t1\nT\tt\t3\ta=int\nR\t1\ti:1\nR\t1\ti:2\n", "restore_parse"},
      {"#db\t1\nT\tt\t4\ta=int\nR\t2\ti:1\nR\t1\ti:2\n", "restore_parse"},
      {"#db\t1\nT\tt\t2\ta=int\nR\t5\ti:1\n", "restore_parse"},  // past cursor
      {"#db\t1\nT\tt\t0\ta=int\n", "restore_parse"},             // cursor 0
      {"#db\t1\nT\tt\t18446744073709551615\ta=int\n", "restore_parse"},
      {"#db\t1\nT\tt\t1\ta=int\nT\tt\t1\ta=int\n", "restore_parse"},  // twice
      {"#db\t1\nT\tt\t1\ta=int\ta=int\n", "recover_schema"},  // repeated column
      {"#db\t1\nT\tu\t1\ta=int\n", "recover_schema"},         // undeclared
      {"#db\t1\n", "recover_schema"},                         // t missing
  };
  for (const auto& [image, code] : cases) {
    Database d;
    d.create_table<Cell1>("t");
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
      EXPECT_EQ(status.error().code, code) << image;
    }
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
  d.create_table<Job>("t").insert(job("\tx\\y\n", "s", 0));
  const std::string text = d.journal().serialize();
  EXPECT_NE(text.find("\ts:\\tx\\\\y\\n\t"), std::string::npos) << text;
}

TEST(Journal, NumbersMustBeTheWholeField) {
  // Each payload was once read by a prefix-tolerant parser and written
  // back differently (or read as another value).
  for (const char* cell : {"i:12abc", "i: 12", "i:+12", "i:", "r:1.5xyz",
                           "r:0x10", "r: 1", "r:", "b:2", "b:", "b:true",
                           "n:zzz"}) {
    const std::string text = std::string("I\tt\t1\t") + cell + "\n";
    const auto parsed = Journal::parse(text);
    EXPECT_FALSE(parsed.has_value()) << cell;
    if (!parsed) {
      EXPECT_EQ(parsed.error().code, "journal_parse") << cell;
    }
    Database d;
    d.create_table<Cell1>("t");
    EXPECT_FALSE(
        d.restore(std::string("#db\t1\nT\tt\t2\ta=int\nR\t1\t") + cell + "\n")
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
    d.create_table<Cell1>("t");
    EXPECT_FALSE(d.restore(image).ok()) << image;
  }
  // What the encoder writes still reads back to the same bytes: a journal
  // parsed without its tables checks each cell's form, not its column.
  const std::string canonical =
      "I\tt\t1\ti:-12\tr:-1.4999999999999999e-07\tr:-0.25\tr:nan\t"
      "r:-inf\tb:1\tb:0\tn:\n";
  const auto parsed = Journal::parse(canonical);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), canonical);
}

TEST(Table, ErasedPrefixIsReclaimed) {
  // An outbox-shaped table: one row inserted and erased at a time.  Ids
  // keep growing while lookups by id stay exact.
  Table<Job> t("outbox");
  RowId last = kInvalidRow;
  for (int i = 0; i < 1000; ++i) {
    const RowId id = t.insert(job("j", "s", i));
    ASSERT_NE(t.find(id), nullptr);
    if (last != kInvalidRow) {
      EXPECT_TRUE(t.erase(last));
      EXPECT_EQ(t.find(last), nullptr);
    }
    last = id;
  }
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(last)->site, 999);
  t.check_invariants();
  // Interior erases leave the rest addressable and in id order.
  std::vector<RowId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(t.insert(job("k", "s", i)));
  EXPECT_TRUE(t.erase(ids[2]));
  EXPECT_TRUE(t.erase(last));
  EXPECT_TRUE(t.erase(ids[0]));
  std::vector<RowId> seen;
  t.for_each([&](RowId id, const Job&) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<RowId>{ids[1], ids[3], ids[4], ids[5], ids[6],
                                      ids[7]}));
  t.check_invariants();
}

}  // namespace
}  // namespace sphinx::db
