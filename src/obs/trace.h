#ifndef COVERAGE_OBS_TRACE_H_
#define COVERAGE_OBS_TRACE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"

namespace coverage {
namespace obs {

/// Per-request trace: a request id (generated at the HTTP edge or accepted
/// from an X-Request-Id header) plus an ordered per-stage wall-clock
/// breakdown ("parse", "plan", "search_level_2", "wal_fsync", ...). The
/// trace is threaded *by pointer* through the layers — service → engine
/// search → persist — and every hook is null-safe, so untraced call sites
/// pay one pointer test.
///
/// A Trace belongs to exactly one request and is touched only from the
/// thread serving it (the request handler runs single-threaded even though
/// many requests run concurrently); it is NOT internally synchronised.
class Trace {
 public:
  explicit Trace(std::string id) : id_(std::move(id)) {}

  const std::string& id() const { return id_; }

  /// Records `seconds` against `name`, accumulating when the stage was
  /// already recorded (a retried stage folds into one entry; first-seen
  /// order is preserved). Recorded while a ScopedStage on this trace is
  /// open, it is a sub-stage of that scope.
  void AddStage(const std::string& name, double seconds);

  /// Top-level stages in first-seen order. They never overlap, so their
  /// sum is bounded by the request's wall time.
  const std::vector<std::pair<std::string, double>>& stages() const {
    return stages_;
  }

  /// Stages timed inside another stage, e.g. PATTERN-BREAKER's
  /// `search_level_<k>` inside `search`, in first-seen order.
  const std::vector<std::pair<std::string, double>>& substages() const {
    return substages_;
  }

  /// Sum of the top-level stages; the edge compares this against the
  /// request's total to expose unattributed time.
  double StageSum() const;

 private:
  friend class ScopedStage;

  std::string id_;
  std::vector<std::pair<std::string, double>> stages_;
  std::vector<std::pair<std::string, double>> substages_;
  int open_scopes_ = 0;
};

/// RAII stage scope: times its own lifetime and records it on the trace at
/// destruction. A null trace makes the whole scope a no-op, so lower layers
/// hook stages unconditionally:
///
///   void DurableEngine::Mutate(..., obs::Trace* trace) {
///     { obs::ScopedStage stage(trace, "wal_append"); wal_->Append(...); }
///     ...
///   }
class ScopedStage {
 public:
  ScopedStage(Trace* trace, std::string name)
      : trace_(trace), name_(std::move(name)) {
    if (trace_ != nullptr) ++trace_->open_scopes_;
  }
  ~ScopedStage() {
    if (trace_ == nullptr) return;
    --trace_->open_scopes_;
    trace_->AddStage(name_, timer_.ElapsedSeconds());
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  Trace* trace_;
  std::string name_;
  Stopwatch timer_;
};

/// A process-unique request id: a per-process random prefix plus a
/// monotonic sequence number (e.g. "r-3f82a1c9-42"). Cheap — no syscall per
/// call — and unique enough to grep one request across server logs.
std::string GenerateTraceId();

}  // namespace obs
}  // namespace coverage

#endif  // COVERAGE_OBS_TRACE_H_
