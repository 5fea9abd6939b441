#include "engine/coverage_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/adversarial.h"
#include "datagen/airbnb.h"
#include "datagen/compas.h"
#include "mups/mups.h"

namespace coverage {
namespace {

/// The ground truth the engine must reproduce bit-identically: a
/// from-scratch DEEPDIVER run on the accumulated data (sorted output).
std::vector<Pattern> FromScratchMups(const Dataset& data,
                                     const EngineOptions& eopts) {
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions opts;
  opts.tau = eopts.tau;
  opts.max_level = eopts.max_level;
  return FindMupsDeepDiver(oracle, opts);
}

std::string ToCsv(const Dataset& data) {
  std::ostringstream os;
  EXPECT_TRUE(data.WriteCsv(os).ok());
  return os.str();
}

TEST(CoverageEngine, EpochZeroIsEmptyWithRootMup) {
  const Schema schema = Schema::Binary(3);
  CoverageEngine engine(schema, {.tau = 5});
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_EQ(engine.num_rows(), 0u);
  EXPECT_EQ(engine.Mups(), std::vector<Pattern>{Pattern::Root(3)});
  EXPECT_EQ(engine.Query(Pattern::Root(3)), 0u);
}

TEST(CoverageEngine, AppendRowsValidatesShapeAndRange) {
  const Schema schema = Schema::Binary(2);
  CoverageEngine engine(schema, {.tau = 1});
  const std::vector<Value> narrow = {Value{1}};
  const std::vector<Value> out_of_range = {Value{1}, Value{2}};
  const std::vector<CoverageEngine::Row> bad_width = {narrow};
  const std::vector<CoverageEngine::Row> bad_range = {out_of_range};
  EXPECT_FALSE(engine.AppendRows(std::span(bad_width)).ok());
  EXPECT_FALSE(engine.AppendRows(std::span(bad_range)).ok());
  EXPECT_EQ(engine.epoch(), 0u);  // failed appends publish nothing

  const std::vector<Value> good = {Value{1}, Value{0}};
  const std::vector<CoverageEngine::Row> two_rows = {good, good};
  ASSERT_TRUE(engine.AppendRows(std::span(two_rows)).ok());
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.num_rows(), 2u);
  EXPECT_EQ(engine.Query(Pattern({Value{1}, Value{0}})), 2u);
}

TEST(CoverageEngine, RejectsForeignSchemaAndBadIngestInput) {
  CoverageEngine engine(Schema::Binary(2), {.tau = 1});
  EXPECT_FALSE(engine.AppendRows(Dataset(Schema::Binary(3))).ok());

  std::istringstream bad_header("X,Y\n0,1\n");
  EXPECT_FALSE(engine.IngestCsvChunked(bad_header, 10).ok());
  std::istringstream fine("A1,A2\n0,1\n");
  EXPECT_FALSE(engine.IngestCsvChunked(fine, 0).ok());  // chunk_rows >= 1
  EXPECT_EQ(engine.epoch(), 0u);
}

/// Chunked ingest must land on exactly the from-scratch state for any chunk
/// size, on all three workload families of §V.
TEST(CoverageEngine, ChunkedIngestEqualsWholeFileAcrossDatasets) {
  struct Case {
    const char* name;
    Dataset data;
    std::uint64_t tau;
  };
  std::vector<Case> cases;
  cases.push_back({"compas", datagen::MakeCompas(2000).data, 10});
  cases.push_back({"airbnb", datagen::MakeAirbnb(3000, 8), 12});
  cases.push_back({"diagonal", datagen::MakeDiagonal(8), 5});

  for (const Case& c : cases) {
    const std::string csv = ToCsv(c.data);
    EngineOptions opts;
    opts.tau = c.tau;
    const std::vector<Pattern> expected = FromScratchMups(c.data, opts);

    for (const std::size_t chunk_rows : {3u, 64u, 100000u}) {
      CoverageEngine engine(c.data.schema(), opts);
      std::istringstream in(csv);
      const auto stats = engine.IngestCsvChunked(in, chunk_rows);
      ASSERT_TRUE(stats.ok()) << c.name << ": " << stats.status().ToString();
      EXPECT_EQ(stats->rows, c.data.num_rows());
      EXPECT_LE(stats->peak_chunk_rows, chunk_rows);
      EXPECT_EQ(stats->chunks,
                (c.data.num_rows() + chunk_rows - 1) / chunk_rows);
      EXPECT_EQ(engine.num_rows(), c.data.num_rows());
      EXPECT_EQ(engine.Mups(), expected)
          << c.name << " chunk_rows=" << chunk_rows;
    }
  }
}

/// Point queries on the engine snapshot must agree with a from-scratch
/// oracle for arbitrary patterns.
TEST(CoverageEngine, QueriesMatchFromScratchOracle) {
  const Dataset data = datagen::MakeAirbnb(1500, 6);
  CoverageEngine engine(data.schema(), {.tau = 8});
  ASSERT_TRUE(engine.AppendRows(data).ok());

  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  QueryContext engine_ctx;
  QueryContext oracle_ctx;
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Value> cells(6);
    for (int i = 0; i < 6; ++i) {
      cells[static_cast<std::size_t>(i)] =
          static_cast<Value>(rng.NextInt(-1, 1));
    }
    const Pattern p(cells);
    ASSERT_EQ(engine.Query(p, engine_ctx), oracle.Coverage(p, oracle_ctx))
        << p.ToString();
    ASSERT_EQ(engine.QueryAtLeast(p, 8, engine_ctx),
              oracle.CoverageAtLeast(p, 8, oracle_ctx))
        << p.ToString();
  }
}

/// A held snapshot keeps answering for its own epoch after later appends.
TEST(CoverageEngine, SnapshotsAreImmutableAcrossEpochs) {
  const datagen::LabeledData compas = datagen::MakeCompas(600);
  CoverageEngine engine(compas.data.schema(), {.tau = 10});
  ASSERT_TRUE(engine.AppendRows(compas.data.Head(300)).ok());
  const auto old_snapshot = engine.snapshot();
  const std::vector<Pattern> old_mups = old_snapshot->mups();
  const std::uint64_t old_rows = old_snapshot->num_rows();

  Dataset tail(compas.data.schema());
  for (std::size_t r = 300; r < compas.data.num_rows(); ++r) {
    tail.AppendRow(compas.data.row(r));
  }
  ASSERT_TRUE(engine.AppendRows(tail).ok());

  EXPECT_EQ(old_snapshot->num_rows(), old_rows);
  EXPECT_EQ(old_snapshot->mups(), old_mups);
  EXPECT_EQ(old_snapshot->epoch(), 1u);
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_EQ(engine.num_rows(), compas.data.num_rows());
  EXPECT_EQ(engine.Mups(), FromScratchMups(compas.data, engine.options()));
}

/// The core invariant: after every randomized append batch, the maintained
/// MUP set is bit-identical to a from-scratch recompute — serial and
/// 8-thread rechecks, with and without a level cap.
TEST(CoverageEngineProperty, IncrementalEqualsFromScratchAfterRandomBatches) {
  const Schema schema = Schema::Uniform({3, 2, 4, 2});
  for (const int threads : {1, 8}) {
    for (const int max_level : {-1, 2}) {
      EngineOptions opts;
      opts.tau = 5;
      opts.max_level = max_level;
      opts.num_threads = threads;
      CoverageEngine engine(schema, opts);
      Dataset accumulated(schema);
      Rng rng(1000 + 10 * threads + (max_level + 1));
      std::vector<Value> row(4);
      for (int batch = 0; batch < 12; ++batch) {
        const std::size_t k = rng.NextUint64(41);  // 0..40, empties too
        Dataset chunk(schema);
        for (std::size_t r = 0; r < k; ++r) {
          for (int i = 0; i < 4; ++i) {
            // Skew toward low values so counts actually cross τ.
            const auto card =
                static_cast<std::uint64_t>(schema.cardinality(i));
            row[static_cast<std::size_t>(i)] = static_cast<Value>(
                std::min(rng.NextUint64(card), rng.NextUint64(card)));
          }
          chunk.AppendRow(row);
          accumulated.AppendRow(row);
        }
        ASSERT_TRUE(engine.AppendRows(chunk).ok());
        ASSERT_EQ(engine.Mups(), FromScratchMups(accumulated, opts))
            << "threads=" << threads << " max_level=" << max_level
            << " batch=" << batch;
      }
    }
  }
}

/// MUP-heavy workload (Theorem-1 diagonal, ~936 MUPs): the 8-thread recheck
/// sweep takes the pool path and must stay exact while appends shrink the
/// MUP set.
TEST(CoverageEngineProperty, ParallelRecheckOnMupHeavyDiagonal) {
  const Dataset diagonal = datagen::MakeDiagonal(12);
  EngineOptions opts;
  opts.tau = 7;
  opts.num_threads = 8;
  CoverageEngine engine(diagonal.schema(), opts);
  ASSERT_TRUE(engine.AppendRows(diagonal).ok());

  Dataset accumulated(diagonal.schema());
  for (std::size_t r = 0; r < diagonal.num_rows(); ++r) {
    accumulated.AppendRow(diagonal.row(r));
  }
  ASSERT_EQ(engine.Mups(), FromScratchMups(accumulated, opts));
  ASSERT_GE(engine.Mups().size(), 128u);  // exercises the pool threshold

  // Re-appending diagonal rows pushes singleton counts over τ batch by
  // batch; every epoch must still match a from-scratch run.
  Rng rng(7);
  for (int batch = 0; batch < 6; ++batch) {
    Dataset chunk(diagonal.schema());
    for (int r = 0; r < 8; ++r) {
      const std::size_t pick = rng.NextUint64(diagonal.num_rows());
      chunk.AppendRow(diagonal.row(pick));
      accumulated.AppendRow(diagonal.row(pick));
    }
    EngineUpdateStats stats;
    ASSERT_TRUE(engine.AppendRows(chunk, &stats).ok());
    ASSERT_EQ(engine.Mups(), FromScratchMups(accumulated, opts))
        << "batch " << batch;
    EXPECT_EQ(stats.mups_rechecked,
              stats.mups_newly_covered +
                  (engine.Mups().size() - stats.mups_added));
  }
}

/// Validates the engine's set against the paper's MUP invariants directly
/// (every MUP uncovered, parents covered, antichain).
TEST(CoverageEngine, MaintainedSetSatisfiesMupInvariants) {
  const Dataset data = datagen::MakeAirbnb(2500, 7);
  CoverageEngine engine(data.schema(), {.tau = 15});
  const std::string csv = ToCsv(data);
  std::istringstream in(csv);
  ASSERT_TRUE(engine.IngestCsvChunked(in, 500).ok());

  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  EXPECT_TRUE(ValidateMupSet(engine.Mups(), oracle, 15).ok());
}

/// Readers on snapshots must never observe a torn epoch while a writer
/// advances; run under TSan in CI.
TEST(CoverageEngine, ConcurrentReadersDuringAppends) {
  const datagen::LabeledData compas = datagen::MakeCompas(2000);
  CoverageEngine engine(compas.data.schema(), {.tau = 10});
  ASSERT_TRUE(engine.AppendRows(compas.data.Head(100)).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &stop] {
      QueryContext ctx;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = engine.snapshot();
        // Internal consistency of one epoch: the root's coverage equals the
        // row count, and every published MUP is uncovered on that epoch.
        const int d = snap->data().schema().num_attributes();
        ASSERT_EQ(snap->oracle().Coverage(Pattern::Root(d), ctx),
                  snap->num_rows());
        for (const Pattern& mup : snap->mups()) {
          ASSERT_FALSE(snap->oracle().CoverageAtLeast(mup, 10, ctx));
        }
      }
    });
  }

  std::size_t next = 100;
  while (next < compas.data.num_rows()) {
    const std::size_t end = std::min(next + 100, compas.data.num_rows());
    Dataset chunk(compas.data.schema());
    for (std::size_t r = next; r < end; ++r) {
      chunk.AppendRow(compas.data.row(r));
    }
    ASSERT_TRUE(engine.AppendRows(chunk).ok());
    next = end;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(engine.Mups(), FromScratchMups(compas.data, engine.options()));
}

// ---------------------------------------------------------------------------
// Retraction (RetractRows) and sliding-window mode
// ---------------------------------------------------------------------------

Dataset FromRows(const Schema& schema,
                 const std::vector<std::vector<Value>>& rows) {
  Dataset d(schema);
  for (const auto& r : rows) d.AppendRow(r);
  return d;
}

TEST(CoverageEngineRetract, ValidatesAndRejectsAbsentRows) {
  const Schema schema = Schema::Binary(2);
  CoverageEngine engine(schema, {.tau = 1});
  ASSERT_TRUE(engine.AppendRows(FromRows(schema, {{0, 0}, {0, 1}})).ok());
  ASSERT_EQ(engine.epoch(), 1u);

  // A combination never appended cannot be retracted.
  EXPECT_FALSE(engine.RetractRows(FromRows(schema, {{1, 1}})).ok());
  // Nor more occurrences than are present.
  EXPECT_FALSE(
      engine.RetractRows(FromRows(schema, {{0, 0}, {0, 0}})).ok());
  // Failed retractions publish nothing.
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.num_rows(), 2u);

  EngineUpdateStats stats;
  ASSERT_TRUE(engine.RetractRows(FromRows(schema, {{0, 1}}), &stats).ok());
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_EQ(engine.num_rows(), 1u);
  EXPECT_EQ(stats.rows_retracted, 1u);
  EXPECT_EQ(stats.combinations_tombstoned, 1u);
  EXPECT_EQ(engine.Query(Pattern({Value{0}, Value{1}})), 0u);
  EXPECT_EQ(engine.Query(Pattern({Value{0}, Value{0}})), 1u);
  // Schema mismatches are rejected like on the append side.
  EXPECT_FALSE(engine.RetractRows(Dataset(Schema::Binary(3))).ok());
}

TEST(CoverageEngineRetract, DuplicateRowRetractionWithinOneBatch) {
  const Schema schema = Schema::Binary(2);
  CoverageEngine engine(schema, {.tau = 2});
  const std::vector<Value> row = {Value{1}, Value{0}};
  ASSERT_TRUE(
      engine.AppendRows(FromRows(schema, {row, row, row, row, row})).ok());

  // Three duplicates of the same row retracted in one batch.
  ASSERT_TRUE(engine.RetractRows(FromRows(schema, {row, row, row})).ok());
  EXPECT_EQ(engine.Query(Pattern(row)), 2u);
  // Over-retraction within one batch fails atomically: nothing changes.
  EXPECT_FALSE(engine.RetractRows(FromRows(schema, {row, row, row})).ok());
  EXPECT_EQ(engine.Query(Pattern(row)), 2u);
  ASSERT_TRUE(engine.RetractRows(FromRows(schema, {row, row})).ok());
  EXPECT_EQ(engine.num_rows(), 0u);
  EXPECT_EQ(engine.Mups(), std::vector<Pattern>{Pattern::Root(2)});
}

TEST(CoverageEngineRetract, RetractionUncoversRoot) {
  const Schema schema = Schema::Uniform({2, 3});
  EngineOptions opts;
  opts.tau = 5;
  CoverageEngine engine(schema, opts);
  Dataset data = FromRows(
      schema, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}});
  ASSERT_TRUE(engine.AppendRows(data).ok());
  // cov(root) = 6 >= 5: the root is covered, so it is not a MUP.
  const std::vector<Pattern> before = engine.Mups();
  ASSERT_FALSE(std::count(before.begin(), before.end(), Pattern::Root(2)));

  ASSERT_TRUE(engine.RetractRows(FromRows(schema, {{0, 0}, {1, 2}})).ok());
  // cov(root) = 4 < 5: the whole graph is uncovered and the root is the
  // unique maximal uncovered pattern.
  EXPECT_EQ(engine.Mups(), std::vector<Pattern>{Pattern::Root(2)});
  Dataset surviving =
      FromRows(schema, {{0, 1}, {0, 2}, {1, 0}, {1, 1}});
  EXPECT_EQ(engine.Mups(), FromScratchMups(surviving, opts));
}

/// The core retraction invariant: after every randomized append/retract
/// step, the maintained MUP set is bit-identical to a from-scratch DEEPDIVER
/// on the surviving rows — serial and 8-thread rechecks, with and without a
/// level cap.
TEST(CoverageEngineRetractProperty, RandomAppendRetractEqualsFromScratch) {
  const Schema schema = Schema::Uniform({3, 2, 4, 2});
  for (const int threads : {1, 8}) {
    for (const int max_level : {-1, 2}) {
      EngineOptions opts;
      opts.tau = 5;
      opts.max_level = max_level;
      opts.num_threads = threads;
      CoverageEngine engine(schema, opts);
      std::vector<std::vector<Value>> live;  // surviving row multiset
      Rng rng(5000 + 10 * threads + (max_level + 1));
      for (int step = 0; step < 16; ++step) {
        const bool retract = !live.empty() && rng.NextUint64(3) == 0;
        if (retract) {
          // Retract a random sub-multiset (up to half the live rows).
          const std::size_t k = 1 + rng.NextUint64(live.size() / 2 + 1);
          Dataset batch(schema);
          for (std::size_t i = 0; i < k && !live.empty(); ++i) {
            const std::size_t pick = rng.NextUint64(live.size());
            batch.AppendRow(live[pick]);
            live[pick] = live.back();
            live.pop_back();
          }
          EngineUpdateStats stats;
          ASSERT_TRUE(engine.RetractRows(batch, &stats).ok());
          ASSERT_EQ(stats.rows_retracted, batch.num_rows());
        } else {
          const std::size_t k = rng.NextUint64(31);  // 0..30, empties too
          Dataset batch(schema);
          std::vector<Value> row(4);
          for (std::size_t r = 0; r < k; ++r) {
            for (int i = 0; i < 4; ++i) {
              // Skew toward low values so counts actually cross τ.
              const auto card =
                  static_cast<std::uint64_t>(schema.cardinality(i));
              row[static_cast<std::size_t>(i)] = static_cast<Value>(
                  std::min(rng.NextUint64(card), rng.NextUint64(card)));
            }
            batch.AppendRow(row);
            live.push_back(row);
          }
          ASSERT_TRUE(engine.AppendRows(batch).ok());
        }
        ASSERT_EQ(engine.num_rows(), live.size());
        ASSERT_EQ(engine.Mups(),
                  FromScratchMups(FromRows(schema, live), opts))
            << "threads=" << threads << " max_level=" << max_level
            << " step=" << step
            << (retract ? " (retract)" : " (append)");
      }
    }
  }
}

/// Emulates the engine's window semantics (evict whole oldest batches past
/// the caps) so tests can state the expected surviving multiset.
struct WindowModel {
  std::size_t max_rows = 0;
  std::size_t max_epochs = 0;
  std::deque<std::vector<std::vector<Value>>> batches;
  std::size_t rows = 0;

  void Append(const std::vector<std::vector<Value>>& batch) {
    batches.push_back(batch);
    rows += batch.size();
    while (!batches.empty() &&
           ((max_rows > 0 && rows > max_rows) ||
            (max_epochs > 0 && batches.size() > max_epochs))) {
      rows -= batches.front().size();
      batches.pop_front();
    }
  }

  std::vector<std::vector<Value>> Live() const {
    std::vector<std::vector<Value>> all;
    for (const auto& b : batches) all.insert(all.end(), b.begin(), b.end());
    return all;
  }
};

TEST(CoverageEngineWindow, SlidingWindowMatchesFromScratchOnRetainedRows) {
  const datagen::LabeledData compas = datagen::MakeCompas(900);
  const Schema& schema = compas.data.schema();
  EngineOptions opts;
  opts.tau = 8;
  opts.window_max_rows = 300;
  CoverageEngine engine(schema, opts);
  WindowModel model{.max_rows = 300};

  std::size_t next = 0;
  Rng rng(42);
  while (next < compas.data.num_rows()) {
    const std::size_t take = std::min<std::size_t>(
        40 + rng.NextUint64(81), compas.data.num_rows() - next);
    std::vector<std::vector<Value>> batch;
    Dataset chunk(schema);
    for (std::size_t r = next; r < next + take; ++r) {
      chunk.AppendRow(compas.data.row(r));
      batch.emplace_back(compas.data.row(r).begin(),
                         compas.data.row(r).end());
    }
    next += take;
    model.Append(batch);
    EngineUpdateStats stats;
    ASSERT_TRUE(engine.AppendRows(chunk, &stats).ok());
    ASSERT_EQ(engine.num_rows(), model.rows);
    ASSERT_LE(engine.num_rows(), 300u);
    ASSERT_EQ(engine.Mups(),
              FromScratchMups(FromRows(schema, model.Live()), opts))
        << "after " << next << " streamed rows";
  }
  // The stream outgrew the window, so evictions actually happened.
  EXPECT_LT(engine.num_rows(), compas.data.num_rows());
}

TEST(CoverageEngineWindow, BatchLargerThanWindowIsAppendedAndEvicted) {
  const Schema schema = Schema::Uniform({3, 3});
  EngineOptions opts;
  opts.tau = 2;
  opts.window_max_rows = 10;
  CoverageEngine engine(schema, opts);

  // Fill the window, then append one batch bigger than the whole window:
  // it is retained and immediately evicted in the same epoch, together with
  // everything older — the window shrinks to empty.
  ASSERT_TRUE(engine.AppendRows(FromRows(schema, {{0, 0}, {1, 1}})).ok());
  Dataset big(schema);
  Rng rng(3);
  std::vector<Value> row(2);
  for (int r = 0; r < 25; ++r) {
    row[0] = static_cast<Value>(rng.NextUint64(3));
    row[1] = static_cast<Value>(rng.NextUint64(3));
    big.AppendRow(row);
  }
  EngineUpdateStats stats;
  ASSERT_TRUE(engine.AppendRows(big, &stats).ok());
  EXPECT_EQ(stats.rows_appended, 25u);
  EXPECT_EQ(stats.rows_retracted, 27u);  // the old window and the batch
  EXPECT_EQ(engine.num_rows(), 0u);
  EXPECT_EQ(engine.Mups(), std::vector<Pattern>{Pattern::Root(2)});

  // The engine recovers: appending into the tombstoned state revives
  // combinations in place and matches a from-scratch run.
  Dataset small = FromRows(schema, {{0, 0}, {0, 0}, {2, 2}});
  ASSERT_TRUE(engine.AppendRows(small).ok());
  EXPECT_EQ(engine.num_rows(), 3u);
  EXPECT_EQ(engine.Mups(), FromScratchMups(small, opts));
}

TEST(CoverageEngineWindow, MaxEpochsKeepsMostRecentBatches) {
  const Schema schema = Schema::Uniform({4, 2});
  EngineOptions opts;
  opts.tau = 2;
  opts.window_max_epochs = 2;
  CoverageEngine engine(schema, opts);
  WindowModel model{.max_epochs = 2};

  Rng rng(11);
  for (int batch_no = 0; batch_no < 6; ++batch_no) {
    std::vector<std::vector<Value>> batch;
    const std::size_t k = 3 + rng.NextUint64(5);
    for (std::size_t r = 0; r < k; ++r) {
      batch.push_back({static_cast<Value>(rng.NextUint64(4)),
                       static_cast<Value>(rng.NextUint64(2))});
    }
    model.Append(batch);
    ASSERT_TRUE(engine.AppendRows(FromRows(schema, batch)).ok());
    ASSERT_EQ(engine.num_rows(), model.rows);
    ASSERT_EQ(engine.Mups(),
              FromScratchMups(FromRows(schema, model.Live()), opts))
        << "batch " << batch_no;
  }

  // An empty append must not occupy an epoch slot: with the window already
  // full, it would otherwise evict a real batch without any data arriving.
  const std::vector<Pattern> before = engine.Mups();
  const std::uint64_t rows_before = engine.num_rows();
  ASSERT_TRUE(engine.AppendRows(Dataset(schema)).ok());
  EXPECT_EQ(engine.num_rows(), rows_before);
  EXPECT_EQ(engine.Mups(), before);
}

TEST(CoverageEngineWindow, ExplicitRetractionScrubsRetainedBatches) {
  const Schema schema = Schema::Binary(2);
  EngineOptions opts;
  opts.tau = 1;
  opts.window_max_rows = 4;
  CoverageEngine engine(schema, opts);

  // Window: [ {00, 00, 01} ].
  ASSERT_TRUE(
      engine.AppendRows(FromRows(schema, {{0, 0}, {0, 0}, {0, 1}})).ok());
  // GDPR-style erasure of one 00 occurrence scrubs it from the retained
  // batch too, so the window now holds 2 rows, not 3.
  ASSERT_TRUE(engine.RetractRows(FromRows(schema, {{0, 0}})).ok());
  EXPECT_EQ(engine.num_rows(), 2u);

  // Appending 2 more rows lands exactly on the cap: nothing is evicted.
  // Without the scrub the bookkeeping would see 5 rows and wrongly evict
  // the first batch.
  ASSERT_TRUE(engine.AppendRows(FromRows(schema, {{1, 0}, {1, 1}})).ok());
  EXPECT_EQ(engine.num_rows(), 4u);
  Dataset expected =
      FromRows(schema, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  EXPECT_EQ(engine.Mups(), FromScratchMups(expected, opts));

  // One more row pushes past the cap and evicts the scrubbed first batch
  // ({00, 01} — the retracted occurrence must not be double-retracted).
  ASSERT_TRUE(engine.AppendRows(FromRows(schema, {{1, 1}})).ok());
  EXPECT_EQ(engine.num_rows(), 3u);
  Dataset retained = FromRows(schema, {{1, 0}, {1, 1}, {1, 1}});
  EXPECT_EQ(engine.Mups(), FromScratchMups(retained, opts));
}

TEST(CoverageEngineWindow, ChunkedIngestRespectsWindow) {
  const Dataset data = datagen::MakeAirbnb(1200, 6);
  const std::string csv = ToCsv(data);
  EngineOptions opts;
  opts.tau = 6;
  opts.window_max_rows = 500;
  CoverageEngine engine(data.schema(), opts);
  std::istringstream in(csv);
  const auto stats = engine.IngestCsvChunked(in, 200);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows, 1200u);

  // 200-row chunks into a 500-row cap retain the last 2 chunks (400 rows):
  // appending chunk 7 would make 600, evicting down to 400... the steady
  // state after each append is 400 + the new 200 = 600 > 500 → evict → 400.
  EXPECT_EQ(engine.num_rows(), 400u);
  Dataset tail(data.schema());
  for (std::size_t r = 800; r < 1200; ++r) tail.AppendRow(data.row(r));
  EXPECT_EQ(engine.Mups(), FromScratchMups(tail, opts));
}

/// Readers on snapshots must never observe a torn epoch while a writer
/// advances through windowed appends and explicit retractions; run under
/// TSan in CI.
TEST(CoverageEngineWindow, ConcurrentReadersDuringWindowedAppends) {
  const datagen::LabeledData compas = datagen::MakeCompas(1200);
  const Schema& schema = compas.data.schema();
  EngineOptions opts;
  opts.tau = 10;
  opts.window_max_rows = 300;
  CoverageEngine engine(schema, opts);
  ASSERT_TRUE(engine.AppendRows(compas.data.Head(100)).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &stop] {
      QueryContext ctx;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = engine.snapshot();
        // Internal consistency of one epoch: the root's coverage equals the
        // row count, and every published MUP is uncovered on that epoch.
        const int d = snap->data().schema().num_attributes();
        ASSERT_EQ(snap->oracle().Coverage(Pattern::Root(d), ctx),
                  snap->num_rows());
        for (const Pattern& mup : snap->mups()) {
          ASSERT_FALSE(snap->oracle().CoverageAtLeast(mup, 10, ctx));
        }
      }
    });
  }

  std::size_t next = 100;
  int step = 0;
  while (next < compas.data.num_rows()) {
    const std::size_t end = std::min(next + 100, compas.data.num_rows());
    Dataset chunk(schema);
    for (std::size_t r = next; r < end; ++r) {
      chunk.AppendRow(compas.data.row(r));
    }
    ASSERT_TRUE(engine.AppendRows(chunk).ok());
    if (++step % 3 == 0 && engine.num_rows() > 20) {
      // Interleave explicit erasure of a few currently-live rows.
      const auto snap = engine.snapshot();
      Dataset erase(schema);
      for (std::size_t k = 0;
           k < snap->data().num_combinations() && erase.num_rows() < 5;
           ++k) {
        if (snap->data().count(k) > 0) {
          erase.AppendRow(snap->data().combination(k));
        }
      }
      ASSERT_TRUE(engine.RetractRows(erase).ok());
    }
    next = end;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
}

}  // namespace
}  // namespace coverage
