// The `stream` phase: one durable session (fsync) over an AirBnB d=12
// schema takes fixed-size append batches into a sliding window,
// explicitly retracts rows still in the window every fifth epoch, and
// reads one 16-probe query batch per epoch beside the writes. engine/,
// persist/ and the per-epoch dataset/ copy do the work; no from-scratch
// search runs and there is no transport.

#include <deque>
#include <filesystem>
#include <map>
#include <optional>

#include "bench.h"
#include "datagen/airbnb.h"
#include "mups/mups.h"
#include "obs/metrics.h"
#include "persist/durable_engine.h"
#include "service/coverage_service.h"

namespace perfbench {
namespace {

using namespace coverage;
namespace fs = std::filesystem;

constexpr int kDims = 12;
constexpr std::size_t kBatch = 100;
constexpr std::size_t kWindow = 4000;
constexpr std::uint64_t kTau = 50;
constexpr int kRetractEvery = 5;
constexpr std::size_t kRetractRows = 50;
constexpr std::size_t kMaxEpochs = 1000;
constexpr int kMinEpochs = 130;  // >= 100 appends: p90 has ten beyond it
constexpr int kTailEpochs = 10;    // replayed by every recovery
constexpr int kCountEpochs = 100;  // counters cover a fixed epoch prefix
constexpr int kRecoverReps = 11;
constexpr int kSampleEvery = 4;    // traced relation-copy / index replays
static_assert(kMaxEpochs >= kMinEpochs + kTailEpochs);

using Row = std::vector<Value>;

Dataset ToDataset(const Schema& schema, const std::vector<Row>& rows) {
  Dataset out(schema);
  for (const Row& row : rows) out.AppendRow(row);
  return out;
}

/// The session's window as the benchmark expects it: whole batches, oldest
/// first, evicted past the row cap; a retraction removes the first equal
/// row in the oldest batch holding one (the engine's scrub order).
class WindowModel {
 public:
  void Append(std::vector<Row> batch) {
    rows_ += batch.size();
    batches_.push_back(std::move(batch));
    while (!batches_.empty() && rows_ > kWindow) {
      rows_ -= batches_.front().size();
      batches_.pop_front();
    }
  }
  void Retract(const std::vector<Row>& removed) {
    std::map<Row, std::size_t> pending;
    for (const Row& row : removed) ++pending[row];
    for (auto& batch : batches_) {
      std::vector<Row> kept;
      for (Row& row : batch) {
        auto it = pending.find(row);
        if (it != pending.end()) {
          if (--it->second == 0) pending.erase(it);
          --rows_;
          continue;
        }
        kept.push_back(std::move(row));
      }
      batch = std::move(kept);
    }
    std::erase_if(batches_, [](const auto& b) { return b.empty(); });
  }
  std::vector<Row> Rows() const {
    std::vector<Row> out;
    for (const auto& batch : batches_) out.insert(out.end(), batch.begin(), batch.end());
    return out;
  }

 private:
  std::deque<std::vector<Row>> batches_;
  std::size_t rows_ = 0;
};

bool SameAnswers(const QueryBatchResult& a, const QueryBatchResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].coverage != b.results[i].coverage ||
        a.results[i].covered != b.results[i].covered) {
      return false;
    }
  }
  return true;
}

}  // namespace

PhaseResult RunStream(const Config& config, double budget, bool traced,
                      Ops& ops, SpanLog& spans, Turn& turn) {
  const Dataset pool =
      datagen::MakeAirbnb(kWindow + kMaxEpochs * kBatch, kDims, config.seed);
  const Schema& schema = pool.schema();
  std::vector<Row> rows(pool.num_rows());
  for (std::size_t r = 0; r < pool.num_rows(); ++r) {
    rows[r].assign(pool.row(r).begin(), pool.row(r).end());
  }
  auto batch_rows = [&](std::size_t index) {
    return std::vector<Row>(rows.begin() + static_cast<long>(index * kBatch),
                            rows.begin() + static_cast<long>((index + 1) * kBatch));
  };
  const std::vector<QueryBatchRequest> probes =
      ProbeBatches(schema, config.seed + 7, 64, kTau);

  obs::Histogram fsync_hist, checkpoint_hist;
  CoverageService::SessionOptions options;
  options.tau = kTau;
  options.num_threads = config.threads;
  options.window_max_rows = kWindow;
  options.fsync_histogram = &fsync_hist;
  options.checkpoint_histogram = &checkpoint_hist;

  // Set-up: open the session and load the first window.
  const std::string base = config.out_dir + "/stream-" + std::to_string(config.seed);
  fs::remove_all(base);
  constexpr std::size_t kFillBatches = kWindow / kBatch;
  std::vector<Dataset> fill;
  for (std::size_t b = 0; b < kFillBatches; ++b) {
    fill.push_back(ToDataset(schema, batch_rows(b)));
  }
  std::optional<CoverageService::Session> session;
  std::string dir;
  int setup_rep = 0;
  const std::vector<double> setups = RepeatSetUp(config, turn, [&] {
    session.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = base + "/setup-" + std::to_string(setup_rep++);
    const double start = NowSeconds();
    auto opened = CoverageService::OpenDurableSession(dir, schema, options);
    if (!opened.ok()) Die("stream set-up: " + opened.status().ToString());
    session.emplace(std::move(*opened));
    for (const Dataset& batch : fill) {
      auto appended = session->Append(batch);
      if (!appended.ok()) Die("stream fill: " + appended.status().ToString());
    }
    return NowSeconds() - start;
  });
  WindowModel window;
  for (std::size_t b = 0; b < kFillBatches; ++b) window.Append(batch_rows(b));

  // One epoch at a time.
  std::vector<double> append_ms, append_engine_ms, retract_ms, retract_engine_ms,
      query_us, copy_ms, extend_ms, wal_per_row;
  double appended_rows = 0;
  std::map<std::string, double> counts;
  std::size_t next_batch = kFillBatches;
  bool recording = false;
  int recorded = 0;
  // One epoch: an append, or every kRetractEvery-th epoch a retraction,
  // then one query batch against the epoch just published.
  auto step = [&](int epoch) {
    const bool retract = epoch % kRetractEvery == kRetractEvery - 1;
    EngineUpdateStats stats;
    double wall = 0.0;
    if (retract) {
      // Rows of the batch appended two epochs ago: still inside the window.
      std::vector<Row> victims = batch_rows(next_batch - 2);
      victims.resize(kRetractRows);
      const Dataset data = ToDataset(schema, victims);
      ops.Attempt();
      const double start = NowSeconds();
      auto result = session->Retract(data);
      wall = NowSeconds() - start;
      if (!result.ok()) {
        ops.Fail("retract: " + result.status().ToString());
        return;
      }
      stats = *result;
      window.Retract(victims);
      if (recording) {
        retract_ms.push_back(wall * 1e3);
        retract_engine_ms.push_back(stats.seconds * 1e3);
        if (traced) spans.Add("session.retract", spans.NextRequest(), -1, start, start + wall);
      }
    } else {
      std::vector<Row> batch = batch_rows(next_batch++);
      const Dataset data = ToDataset(schema, batch);
      if (traced && recording && epoch % kSampleEvery == 0) {
        // The epoch build's first two steps, replayed on the current
        // snapshot: the relation copy + append, then the index extension.
        auto snap = session->engine().snapshot();
        double start = NowSeconds();
        AggregatedData agg = snap->data();
        agg.AppendRows(data);
        const double copied = NowSeconds();
        copy_ms.push_back((copied - start) * 1e3);
        if (snap->data().num_tombstones() == 0) {
          BitmapCoverage extended(agg, snap->oracle());
        } else {
          std::vector<std::size_t> revived;
          for (std::size_t k = 0; k < snap->data().num_combinations(); ++k) {
            if (snap->data().count(k) == 0 && agg.count(k) > 0) revived.push_back(k);
          }
          BitmapCoverage extended(agg, snap->oracle(), {}, revived);
        }
        extend_ms.push_back((NowSeconds() - copied) * 1e3);
      }
      const std::uint64_t wal_before = session->durable()->persist_stats().wal_bytes;
      ops.Attempt();
      const double start = NowSeconds();
      auto result = session->Append(data);
      wall = NowSeconds() - start;
      if (!result.ok()) {
        ops.Fail("append: " + result.status().ToString());
        return;
      }
      stats = *result;
      window.Append(std::move(batch));
      if (recording) {
        appended_rows += static_cast<double>(kBatch);
        append_ms.push_back(wall * 1e3);
        append_engine_ms.push_back(stats.seconds * 1e3);
        const std::uint64_t wal_after = session->durable()->persist_stats().wal_bytes;
        if (wal_after > wal_before) {
          wal_per_row.push_back(static_cast<double>(wal_after - wal_before) /
                                static_cast<double>(kBatch));
        }
        if (traced) spans.Add("session.append", spans.NextRequest(), -1, start, start + wall);
      }
    }
    ops.Attempt();
    const double read_start = NowSeconds();
    auto answer =
        session->QueryBatch(probes[static_cast<std::size_t>(epoch) % probes.size()]);
    const double read_end = NowSeconds();
    if (!answer.ok()) ops.Fail("query: " + answer.status().ToString());
    if (!recording) return;
    query_us.push_back((read_end - read_start) * 1e6);
    if (traced) spans.Add("session.query", spans.NextRequest(), -1, read_start, read_end);
    if (recorded++ < kCountEpochs) {
      counts["engine.queries_per_epoch"] += static_cast<double>(stats.coverage_queries);
      counts["engine.mups_rechecked"] += static_cast<double>(stats.mups_rechecked);
      counts["engine.mups_added"] += static_cast<double>(stats.mups_added);
      counts["engine.mups_demoted"] += static_cast<double>(stats.mups_demoted);
      counts["engine.rows_evicted"] +=
          retract ? 0.0 : static_cast<double>(stats.rows_retracted);
      counts["engine.tombstones"] += static_cast<double>(stats.combinations_tombstoned);
    }
  };

  // The recovery fixture: a checkpoint, kTailEpochs unrecorded epochs, and
  // a close without a checkpoint, so every recovery replays exactly those
  // epochs. Each sample reopens its own copy of the directory (a reopen
  // re-checkpoints); the first reopened session carries on as the loop's.
  int epoch = 0;
  const std::uint64_t fsyncs_before = fsync_hist.count();
  const double fsync_s_before = fsync_hist.sum_seconds();
  const std::uint64_t checkpoints_before = checkpoint_hist.count();
  const double checkpoint_s_before = checkpoint_hist.sum_seconds();
  const Status checkpointed = session->Checkpoint();
  if (!checkpointed.ok()) ops.Fail("checkpoint: " + checkpointed.ToString());
  for (; epoch < kTailEpochs; ++epoch) step(epoch);
  const AuditResult before = session->Audit();
  std::vector<QueryBatchResult> answers;
  for (const QueryBatchRequest& request : probes) {
    auto answer = session->QueryBatch(request);
    if (!answer.ok()) Die("stream probe: " + answer.status().ToString());
    answers.push_back(std::move(*answer));
  }
  session.reset();
  std::vector<double> recover_s;
  double replay_records = 0;
  // Only the session the loop goes on with reports to the histograms.
  CoverageService::SessionOptions sample_options = options;
  sample_options.fsync_histogram = nullptr;
  sample_options.checkpoint_histogram = nullptr;
  auto recover = [&](int rep) -> std::optional<CoverageService::Session> {
    const std::string copy = base + "/recover-" + std::to_string(rep);
    fs::copy(dir, copy, fs::copy_options::recursive);
    ops.Attempt();
    const double start = NowSeconds();
    auto reopened =
        CoverageService::ReopenDurableSession(copy, rep == 0 ? options : sample_options);
    const double end = NowSeconds();
    if (!reopened.ok()) {
      ops.Fail("reopen: " + reopened.status().ToString());
      return std::nullopt;
    }
    recover_s.push_back(end - start);
    replay_records =
        static_cast<double>(reopened->durable()->recovery_stats().records_replayed);
    if (traced) spans.Add("session.reopen", spans.NextRequest(), -1, start, end);
    if (!SameMups(reopened->Audit().mups, before.mups)) {
      ops.Fail("reopened session MUPs differ");
    }
    for (std::size_t i = 0; i < probes.size(); ++i) {
      auto answer = reopened->QueryBatch(probes[i]);
      if (!answer.ok() || !SameAnswers(*answer, answers[i])) {
        ops.Fail("reopened session probe answers differ");
        break;
      }
    }
    return std::move(*reopened);
  };
  session = recover(0);
  if (!session) Die("stream: the first reopen failed");
  int rep = 1;
  auto recover_and_drop = [&] {
    recover(rep);
    fs::remove_all(base + "/recover-" + std::to_string(rep++));
  };

  // The epoch loop, until the budget is spent or the pool runs out. Time
  // waiting for the turn and the recovery samples spread over the loop are
  // left out of its clock.
  recording = true;
  const std::size_t pool_batches = rows.size() / kBatch;
  int loop_epochs = 0;
  double excluded = 0.0;
  const double loop_start = NowSeconds();
  auto loop_clock = [&] { return NowSeconds() - loop_start - excluded; };
  for (; (loop_epochs < kMinEpochs || loop_clock() < budget) && next_batch < pool_batches;
       ++epoch, ++loop_epochs) {
    excluded += turn.Yield();
    step(epoch);
    if (rep < kRecoverReps && loop_clock() >= budget * rep / kRecoverReps) {
      const double start = NowSeconds();
      recover_and_drop();
      excluded += NowSeconds() - start;
    }
  }
  const double loop_s = loop_clock();
  while (rep < kRecoverReps) {
    turn.Yield();
    recover_and_drop();
  }

  // Output check: the maintained MUP set against a from-scratch search over
  // the rows left in the window.
  {
    const std::vector<Row> kept = window.Rows();
    if (kept.size() != session->num_rows()) ops.Fail("stream window row count differs");
    AggregatedData agg(ToDataset(schema, kept));
    BitmapCoverage oracle(agg);
    MupSearchOptions search;
    search.tau = kTau;
    auto scratch = FindMups(MupAlgorithm::kDeepDiver, oracle, search);
    if (!scratch.ok() || !SameMups(*scratch, session->Audit().mups)) {
      ops.Fail("stream MUP set differs from a from-scratch search");
    }
  }
  session.reset();
  fs::remove_all(base);

  PhaseResult out;
  out.primary = Median(append_ms);
  MetricMap& m = out.metrics;
  if (!traced) {
    m["setup_s"] = {Median(setups), "s"};
    m["ingest_rows_per_s"] = {appended_rows / loop_s, "1/s"};
    m["append_p50_ms"] = {Median(append_ms), "ms"};
    m["append_p90_ms"] = {Quantile(append_ms, 0.9), "ms"};
    m["retract_p50_ms"] = {Median(retract_ms), "ms"};
    m["recover_s"] = {Median(recover_s), "s"};
    return out;
  }

  // Oracle share of a query batch, replayed serially on the final epoch.
  const AggregatedData final_rows(ToDataset(schema, window.Rows()));
  const BitmapCoverage final_index(final_rows);
  const double oracle_us_per_batch = OracleUsPerBatch(final_index, probes);

  const double fsyncs = static_cast<double>(fsync_hist.count() - fsyncs_before);
  const double checkpoints =
      static_cast<double>(checkpoint_hist.count() - checkpoints_before);
  std::vector<double> log_ms;
  for (std::size_t i = 0; i < append_ms.size(); ++i) {
    log_ms.push_back(append_ms[i] - append_engine_ms[i]);
  }
  m["engine.append_update_ms"] = {Median(append_engine_ms), "ms"};
  m["engine.retract_update_ms"] = {Median(retract_engine_ms), "ms"};
  for (const auto& [name, total] : counts) {
    m[name] = {name == "engine.queries_per_epoch" ? total / kCountEpochs : total,
               "count"};
  }
  m["persist.log_ms"] = {Median(log_ms), "ms"};
  m["persist.fsync_ms"] = {
      fsyncs > 0 ? (fsync_hist.sum_seconds() - fsync_s_before) * 1e3 / fsyncs : 0.0,
      "ms"};
  m["persist.fsyncs"] = {fsyncs, "count"};
  m["persist.checkpoint_ms"] = {
      checkpoints > 0
          ? (checkpoint_hist.sum_seconds() - checkpoint_s_before) * 1e3 / checkpoints
          : 0.0,
      "ms"};
  m["persist.checkpoints"] = {checkpoints, "count"};
  m["persist.wal_bytes_per_row"] = {Median(wal_per_row), "B"};
  m["persist.replay_records"] = {replay_records, "count"};
  const double copy_med = Median(copy_ms);
  const double extend_med = Median(extend_ms);
  m["dataset.relation_copy_ms"] = {copy_med, "ms"};
  m["coverage.index_extend_ms"] = {extend_med, "ms"};

  // Self times: an append splits into persist (Session::Append minus the
  // engine epoch), dataset (relation copy) and coverage (index extension)
  // from the sampled replays, and engine (the rest of the epoch build); a
  // retraction into persist and engine; a query batch into service and
  // coverage (the oracle's replayed share).
  SelfTimes self = EmptySelfTimes();
  for (std::size_t i = 0; i < append_ms.size(); ++i) {
    const double engine = std::min(append_engine_ms[i], append_ms[i]);
    self["persist"] += append_ms[i] - engine;
    const double copy = std::min(copy_med, engine);
    const double extend = std::min(extend_med, engine - copy);
    self["dataset"] += copy;
    self["coverage"] += extend;
    self["engine"] += engine - copy - extend;
  }
  for (std::size_t i = 0; i < retract_ms.size(); ++i) {
    AddNested(&self, {"persist", "engine"}, retract_ms[i], {retract_engine_ms[i]});
  }
  for (double us : query_us) {
    AddNested(&self, {"service", "coverage"}, us / 1e3, {oracle_us_per_batch / 1e3});
  }
  ReportSelfTimes(self, loop_s * 1e3, &m);
  return out;
}

}  // namespace perfbench
