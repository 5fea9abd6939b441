// Shared pieces of the repository benchmark: metric maps, sample
// statistics, the in-memory span log, the timing oracle wrapper, the probes
// and replays several phases share, and the per-phase entry points. See
// perfbench/README.md for the workloads.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "coverage/bitmap_coverage.h"
#include "coverage/coverage_oracle.h"
#include "mups/mups.h"
#include "pattern/pattern.h"
#include "service/coverage_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed origin (steady clock).
double NowSeconds();

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Nearest-rank quantile of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The q-quantile of `values` within each one-second window of `at` (the
/// samples' completion times), then the median over windows: a tail
/// latency that one burst of machine noise cannot move by itself.
double WindowedQuantile(const std::vector<double>& values,
                        const std::vector<double>& at, double q);

/// Operation accounting shared by every phase of a run. A wrong answer found
/// by an output check counts as a failed operation, like a request error.
class Ops {
 public:
  void Attempt(std::uint64_t n = 1);
  void Fail(const std::string& what);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  std::vector<std::string> errors() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;  // first few, for stderr
};

/// One traced interval: name, start/end (NowSeconds), the index of the span
/// that caused it (-1 for a root) and the request it belongs to.
struct Span {
  std::string name;
  std::uint64_t request = 0;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Spans stay in memory during the run and are written out once at the end.
class SpanLog {
 public:
  int Add(std::string name, std::uint64_t request, int parent, double start,
          double end);
  std::uint64_t NextRequest() { return ++last_request_; }
  /// Writes one JSON object per line; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t last_request_ = 0;
};

/// A CoverageOracle forwarding to a BitmapCoverage that counts every query
/// and times every kSampleEvery-th one, so the oracle's share of a search can
/// be estimated without putting two clock reads on every kernel call.
/// Single-threaded: use it only in serial replays.
class TimingOracle : public coverage::CoverageOracle {
 public:
  static constexpr std::uint64_t kSampleEvery = 8;

  explicit TimingOracle(const coverage::BitmapCoverage& inner) : inner_(inner) {}

  using CoverageOracle::Coverage;
  using CoverageOracle::CoverageAtLeast;

  std::uint64_t Coverage(const coverage::Pattern& pattern,
                         coverage::QueryContext& ctx) const override;
  bool CoverageAtLeast(const coverage::Pattern& pattern, std::uint64_t tau,
                       coverage::QueryContext& ctx) const override;
  std::uint64_t Coverage(const coverage::PackedPattern& pattern,
                         const coverage::PatternCodec& codec,
                         coverage::QueryContext& ctx) const override;
  bool CoverageAtLeast(const coverage::PackedPattern& pattern,
                       const coverage::PatternCodec& codec, std::uint64_t tau,
                       coverage::QueryContext& ctx) const override;

  std::uint64_t queries() const { return queries_; }
  /// Estimated total seconds spent inside the wrapped oracle.
  double EstimatedSeconds() const;

 private:
  template <typename F>
  auto Timed(F&& f) const;

  const coverage::BitmapCoverage& inner_;
  mutable std::uint64_t queries_ = 0;
  mutable std::uint64_t sampled_ = 0;
  mutable double sampled_seconds_ = 0.0;
};

/// The planner's `algorithm` run directly on `oracle` (a TimingOracle or a
/// service's BitmapCoverage), so a replay can wrap the oracle layer.
std::vector<coverage::Pattern> Search(coverage::MupAlgorithm algorithm,
                                      const coverage::CoverageOracle& oracle,
                                      const coverage::Schema& schema,
                                      const coverage::MupSearchOptions& options,
                                      coverage::MupSearchStats* stats = nullptr);

/// `count` seeded batches of 16 probes at levels 1-3 over `schema`,
/// alternating exact (tau 0) and threshold (`tau`) probes.
std::vector<coverage::QueryBatchRequest> ProbeBatches(
    const coverage::Schema& schema, std::uint64_t seed, int count,
    std::uint64_t tau);

/// Oracle time of one of `batches` in µs: every probe replayed serially
/// through a TimingOracle over `index`.
double OracleUsPerBatch(const coverage::BitmapCoverage& index,
                        const std::vector<coverage::QueryBatchRequest>& batches);

/// Self time per layer (milliseconds), keyed by module name. Every phase
/// reports the same key set so layer sums line up across workloads.
extern const std::vector<std::string> kLayers;
using SelfTimes = std::map<std::string, double>;
SelfTimes EmptySelfTimes();

/// Splits one operation of duration `total` whose nested layer boundaries
/// were measured as `inner` (outermost first, each <= the previous after
/// clamping) into self times: layers[i] gets inner[i-1] - inner[i] (with
/// inner[-1] = total) and the last layer gets the innermost duration.
void AddNested(SelfTimes* self, const std::vector<std::string>& layers,
               double total, std::vector<double> inner);

/// Writes the per-layer self-time metrics, the traced total and the
/// `other` remainder (total minus the layer self times) into `out`.
void ReportSelfTimes(const SelfTimes& self, double traced_total_ms,
                     MetricMap* out);

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;         ///< nproc
  std::string out_dir;     ///< inside the checkout; scratch + results
  /// A companion run fills metrics the named workload does not measure; it
  /// sets up once, since setup_s comes from the named workload.
  bool companion = false;
};

/// Round-robin turns between the phases of one run, each on its own thread.
/// Only the phase holding the turn runs; it hands the turn on at its first
/// Yield after kSliceSeconds, so a stretch of machine noise lands on every
/// phase alike instead of on whichever phase happened to run through it.
class TurnTaking {
 public:
  static constexpr double kSliceSeconds = 1.0;

  explicit TurnTaking(int phases);
  void Begin(int phase);
  bool Due();
  double Yield(int phase);
  void End(int phase);

 private:
  void PassLocked(int phase);

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<bool> done_;
  int current_ = 0;
  double slice_start_ = 0.0;
};

/// One phase's handle on the turns. A default-constructed Turn belongs to a
/// phase that runs alone and never waits.
class Turn {
 public:
  Turn() = default;
  Turn(TurnTaking* share, int phase) : share_(share), phase_(phase) {}

  /// Waits for the phase's first turn.
  void Begin() {
    if (share_ != nullptr) share_->Begin(phase_);
  }
  /// True once the current slice is over: a phase with threads of its own
  /// parks them before it yields.
  bool Due() { return share_ != nullptr && share_->Due(); }
  /// Between two operations: once the slice is over, hands the turn on and
  /// waits for it to come back. Returns the seconds spent waiting, which a
  /// loop leaves out of its own clock.
  double Yield() { return share_ != nullptr ? share_->Yield(phase_) : 0.0; }
  /// The phase is finished; its turns go to the others.
  void End() {
    if (share_ != nullptr) share_->End(phase_);
  }

 private:
  TurnTaking* share_ = nullptr;
  int phase_ = 0;
};

/// Set-up is repeated and its median reported. A companion sets up once;
/// the named workload at least kMinSetUps times and until kSetUpSeconds of
/// set-up have been timed, at most kMaxSetUps times, so that a set-up of a
/// few milliseconds is sampled across more than a second of machine noise.
constexpr int kMinSetUps = 5;
constexpr int kMaxSetUps = 200;
constexpr double kSetUpSeconds = 1.5;

/// Calls `set_up`, which returns the seconds it timed, as often as the rule
/// above asks, yielding the turn between calls, and returns those samples.
template <typename F>
std::vector<double> RepeatSetUp(const Config& config, Turn& turn, F&& set_up) {
  std::vector<double> samples;
  double timed = 0.0;
  do {
    samples.push_back(set_up());
    timed += samples.back();
    turn.Yield();
  } while (!config.companion && static_cast<int>(samples.size()) < kMaxSetUps &&
           (static_cast<int>(samples.size()) < kMinSetUps || timed < kSetUpSeconds));
  return samples;
}

/// What one phase measured: end-to-end metrics (untraced) or per-layer
/// metrics (traced), plus the primary latency the tracing overhead is
/// computed from.
struct PhaseResult {
  MetricMap metrics;
  double primary = 0.0;
};

/// Each phase runs its workload's loop for `budget` seconds of its own
/// turns. `traced` selects the per-layer run (spans, replays, counters)
/// over the end-to-end run. Metric names follow BENCHMARK.json.
PhaseResult RunAudit(const Config& config, double budget, bool traced, Ops& ops,
                     SpanLog& spans, Turn& turn);
PhaseResult RunStream(const Config& config, double budget, bool traced,
                      Ops& ops, SpanLog& spans, Turn& turn);
PhaseResult RunServe(const Config& config, double budget, bool traced, Ops& ops,
                     SpanLog& spans, Turn& turn);
PhaseResult RunCluster(const Config& config, double budget, bool traced,
                       Ops& ops, SpanLog& spans, Turn& turn);

/// Prints `what` to stderr and exits non-zero without a result: for set-up
/// failures after which nothing can be measured.
[[noreturn]] void Die(const std::string& what);

/// Peak resident set size of this process so far, in MiB (VmHWM).
double PeakRssMib();

/// nproc, CPU model, ISA flags, compiler, build type and the filesystem type
/// of `data_dir`, as one JSON object.
std::string MachineDescriptorJson(const std::string& data_dir);

/// Fingerprint of a sorted MUP list (order-sensitive FNV-1a over the pattern
/// strings).
std::uint64_t Fingerprint(const std::vector<coverage::Pattern>& mups);

/// True when the two MUP lists hold the same patterns (order ignored).
bool SameMups(std::vector<coverage::Pattern> a, std::vector<coverage::Pattern> b);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
