#ifndef COVERAGE_COVERAGE_COVERAGE_ORACLE_H_
#define COVERAGE_COVERAGE_COVERAGE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "pattern/packed_pattern.h"
#include "pattern/pattern.h"

namespace coverage {

/// Per-caller state for coverage queries: reusable scratch buffers plus the
/// query counter the paper's efficiency argument is stated in. Oracles keep
/// no mutable per-query state of their own, so one oracle instance can serve
/// any number of threads as long as each thread brings its own QueryContext.
/// Contexts are cheap to construct and intended to be reused across queries —
/// the buffers grow to the working-set size once and are never reallocated on
/// the hot path.
class QueryContext {
 public:
  /// Number of Coverage() / CoverageAtLeast() calls served through this
  /// context so far.
  std::uint64_t num_queries() const { return num_queries_; }
  void ResetQueryCounter() { num_queries_ = 0; }

  // --- implementation state, used by oracle implementations ---------------

  /// Selectivity-ordered operand buffer for the fused AND-chain kernels
  /// (one slot per deterministic cell of the queried pattern).
  std::vector<const BitVector*> slots;

  void CountQuery() { ++num_queries_; }

 private:
  std::uint64_t num_queries_ = 0;
};

/// The coverage oracle of Appendix A: answers cov(P, D) (Definition 2).
///
/// Every entry point takes an explicit QueryContext and is const in the
/// strong sense: implementations must not mutate any member state, so
/// concurrent queries on one oracle are safe provided each thread uses its
/// own context. Serial callers may pass default_context(), which backs
/// `num_queries()` (the cost metric the search algorithms minimise).
class CoverageOracle {
 public:
  virtual ~CoverageOracle() = default;

  /// Number of tuples of D matching `pattern`. Thread-safe with a private
  /// `ctx` per thread.
  virtual std::uint64_t Coverage(const Pattern& pattern,
                                 QueryContext& ctx) const = 0;

  /// True iff cov(pattern) >= tau. Implementations may answer this much
  /// faster than an exact count (early exit once tau matches are found);
  /// the search algorithms only ever need the comparison.
  virtual bool CoverageAtLeast(const Pattern& pattern, std::uint64_t tau,
                               QueryContext& ctx) const {
    return Coverage(pattern, ctx) >= tau;
  }

  /// Packed-key entry points used by the packed search loops. The defaults
  /// decode and answer through the vector<int> path (one materialization per
  /// query — only non-indexed oracles like ScanCoverage pay it); BitmapCoverage
  /// overrides both to gather index slots straight from the codec's fields.
  /// Either way exactly one query is counted, so the paper's cost metric is
  /// representation-independent.
  virtual std::uint64_t Coverage(const PackedPattern& pattern,
                                 const PatternCodec& codec,
                                 QueryContext& ctx) const {
    return Coverage(codec.Decode(pattern), ctx);
  }
  virtual bool CoverageAtLeast(const PackedPattern& pattern,
                               const PatternCodec& codec, std::uint64_t tau,
                               QueryContext& ctx) const {
    return CoverageAtLeast(codec.Decode(pattern), tau, ctx);
  }

  /// True iff cov(pattern) >= tau (Definition 3).
  bool IsCovered(const Pattern& pattern, std::uint64_t tau,
                 QueryContext& ctx) const {
    return CoverageAtLeast(pattern, tau, ctx);
  }

  /// Number of queries served through default_context().
  std::uint64_t num_queries() const { return default_context_.num_queries(); }
  void ResetQueryCounter() { default_context_.ResetQueryCounter(); }

  /// The oracle's own context, for serial callers that want num_queries()
  /// to count their queries. Not thread-safe: concurrent callers pass one
  /// QueryContext each.
  QueryContext& default_context() const { return default_context_; }

 private:
  mutable QueryContext default_context_;
};

}  // namespace coverage

#endif  // COVERAGE_COVERAGE_COVERAGE_ORACLE_H_
