// The `audit` phase: what a data scientist runs. An in-process
// CoverageService (num_threads = nproc, kAuto) answers repeated passes over
// three audit requests of different shape plus one Enhance, so mups/,
// coverage/, pattern/ and enhancement/ do nearly all the work and
// server/, net/, engine/ and persist/ do none.

#include <array>

#include "bench.h"
#include "datagen/airbnb.h"
#include "datagen/bluenile.h"
#include "enhancement/enhancement.h"
#include "mups/mups.h"
#include "service/coverage_service.h"

namespace perfbench {
namespace {

using namespace coverage;

// Sizes are chosen so one pass (three audits + one Enhance) takes about a
// second on a 4-core machine: enough passes per run for a stable median.
constexpr std::size_t kDenseRows = 100000;
constexpr int kDenseDims = 12;
constexpr std::size_t kHighcardRows = 116300;
constexpr std::size_t kWideRows = 100000;
constexpr int kWideDims = 30;
constexpr std::uint64_t kTau = 100;
constexpr int kLambda = 5;
constexpr int kMinPasses = 3;

struct Kind {
  const char* name;
  Dataset data;
};

std::uint64_t PlanFingerprint(const CoveragePlan& plan) {
  std::uint64_t h = Fingerprint(plan.targets);
  for (const AcquisitionItem& item : plan.items) {
    for (Value v : item.combination) h = h * 31 + static_cast<std::uint64_t>(v + 1);
    h = h * 1000003 + item.copies;
  }
  return h;
}

template <typename F>
double MedianMillis(int reps, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double start = NowSeconds();
    f();
    ms.push_back((NowSeconds() - start) * 1e3);
  }
  return Median(ms);
}

}  // namespace

PhaseResult RunAudit(const Config& config, double budget, bool traced, Ops& ops,
                     SpanLog& spans, Turn& turn) {
  std::array<Kind, 3> kinds = {
      Kind{"dense", datagen::MakeAirbnb(kDenseRows, kDenseDims, config.seed)},
      Kind{"highcard", datagen::MakeBlueNile(kHighcardRows, config.seed + 1)},
      Kind{"wide", datagen::MakeAirbnb(kWideRows, kWideDims, config.seed + 2)}};
  ServiceOptions options;
  options.num_threads = config.threads;

  // Set-up: index all three datasets.
  auto set_up = [&](std::vector<CoverageService>* out) {
    out->clear();
    const double start = NowSeconds();
    for (const Kind& kind : kinds) {
      auto service = CoverageService::FromDataset(kind.data, options);
      if (!service.ok()) Die("audit set-up: " + service.status().ToString());
      out->push_back(std::move(*service));
    }
    return NowSeconds() - start;
  };
  std::vector<CoverageService> services;
  std::vector<double> setups = {set_up(&services)};

  // The loop: whole passes until the budget is spent; time waiting for the
  // turn is left out.
  std::array<std::vector<double>, 3> audit_ms, search_ms;
  std::array<std::vector<std::uint64_t>, 3> fingerprints;
  std::array<std::vector<Pattern>, 3> first_mups;
  std::vector<double> enhance_ms;
  std::vector<std::uint64_t> plan_fingerprints;
  CoveragePlan first_plan;
  const double loop_start = NowSeconds();
  double waited = 0.0;
  for (int pass = 0; pass < kMinPasses || NowSeconds() - loop_start - waited < budget;
       ++pass) {
    if (!config.companion) {
      // One more set-up sample per pass, into a spare set of services, so
      // the samples are spread over the run like the audits; left out of
      // the loop clock.
      const double start = NowSeconds();
      std::vector<CoverageService> spare;
      setups.push_back(set_up(&spare));
      spare.clear();
      waited += NowSeconds() - start;
    }
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      waited += turn.Yield();
      AuditRequest request;
      request.tau = kTau;
      ops.Attempt();
      const double start = NowSeconds();
      auto result = services[k].Audit(request);
      const double end = NowSeconds();
      if (!result.ok()) {
        ops.Fail(std::string("audit ") + kinds[k].name + ": " +
                 result.status().ToString());
        continue;
      }
      if (traced) {
        spans.Add(std::string("service.audit.") + kinds[k].name,
                  spans.NextRequest(), -1, start, end);
      }
      audit_ms[k].push_back((end - start) * 1e3);
      search_ms[k].push_back(result->stats.seconds * 1e3);
      fingerprints[k].push_back(Fingerprint(result->mups));
      if (pass == 0) first_mups[k] = std::move(result->mups);
    }
    waited += turn.Yield();
    EnhanceRequest enhance;
    enhance.tau = kTau;
    enhance.lambda = kLambda;
    ops.Attempt();
    const double start = NowSeconds();
    auto plan = services[0].Enhance(enhance);
    const double end = NowSeconds();
    if (!plan.ok()) {
      ops.Fail("enhance: " + plan.status().ToString());
      continue;
    }
    if (traced) spans.Add("enhancement.enhance", spans.NextRequest(), -1, start, end);
    enhance_ms.push_back((end - start) * 1e3);
    plan_fingerprints.push_back(PlanFingerprint(*plan));
    if (pass == 0) first_plan = std::move(*plan);
  }
  const double loop_ms = (NowSeconds() - loop_start - waited) * 1e3;

  // Output checks, outside the timed loop.
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const Status valid = ValidateMupSet(first_mups[k], services[k].oracle(), kTau);
    if (!valid.ok()) {
      ops.Fail(std::string("audit ") + kinds[k].name +
               " MUP set invalid: " + valid.ToString());
    }
    for (std::uint64_t fp : fingerprints[k]) {
      if (fp != fingerprints[k].front()) {
        ops.Fail(std::string("audit ") + kinds[k].name + " MUP set changed");
      }
    }
  }
  for (std::uint64_t fp : plan_fingerprints) {
    if (fp != plan_fingerprints.front()) ops.Fail("enhance plan changed");
  }
  {
    auto remedied = CoverageService::FromDataset(
        ApplyPlan(kinds[0].data, first_plan), options);
    if (!remedied.ok()) Die("remedy check: " + remedied.status().ToString());
    AuditRequest request;
    request.tau = kTau;
    request.max_level = kLambda;
    auto after = remedied->Audit(request);
    if (!after.ok() || !after->mups.empty()) {
      ops.Fail("enhance plan left MUPs at level <= lambda");
    }
  }

  PhaseResult out;
  if (!traced) {
    out.metrics["setup_s"] = {Median(setups), "s"};
    out.metrics["audit_dense_ms"] = {Median(audit_ms[0]), "ms"};
    out.metrics["audit_highcard_ms"] = {Median(audit_ms[1]), "ms"};
    out.metrics["audit_wide_ms"] = {Median(audit_ms[2]), "ms"};
    out.metrics["enhance_ms"] = {Median(enhance_ms), "ms"};
    out.primary = Median(audit_ms[0]);
    return out;
  }
  out.primary = Median(audit_ms[0]);

  // Layer replays: per audit kind, the planner's search serially on the
  // plain oracle, serially through the timing oracle (its counts must match
  // the plain run exactly), and in parallel at the service's thread count.
  MetricMap& m = out.metrics;
  std::array<double, 3> share{};
  double mismatches = 0;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string name = kinds[k].name;
    const CoverageService& service = services[k];
    MupSearchOptions search;
    search.tau = kTau;
    search.num_threads = config.threads;
    const PlannerDecision decision = PlanMupSearch(service.data(), search);
    search.max_level = decision.max_level;
    search.num_threads = 1;
    MupSearchStats serial, timed;
    const std::uint64_t request = spans.NextRequest();
    double start = NowSeconds();
    Search(decision.algorithm, service.oracle(), service.schema(), search,
           &serial);
    const double serial_s = NowSeconds() - start;
    spans.Add("mups.search.serial." + name, request, -1, start, start + serial_s);
    TimingOracle oracle(service.oracle());
    start = NowSeconds();
    Search(decision.algorithm, oracle, service.schema(), search, &timed);
    const double timed_s = NowSeconds() - start;
    const int root =
        spans.Add("mups.search.timed." + name, request, -1, start, start + timed_s);
    spans.Add("coverage.oracle." + name, request, root, start,
              start + oracle.EstimatedSeconds());
    if (serial.coverage_queries != timed.coverage_queries ||
        serial.nodes_generated != timed.nodes_generated ||
        serial.nodes_pruned != timed.nodes_pruned ||
        oracle.queries() != timed.coverage_queries) {
      ++mismatches;
    }
    search.num_threads = decision.num_threads;
    const double parallel_ms = MedianMillis(1, [&] {
      Search(decision.algorithm, service.oracle(), service.schema(), search,
             nullptr);
    });
    share[k] = timed_s > 0 ? oracle.EstimatedSeconds() / timed_s : 0.0;
    const double search_med = Median(search_ms[k]);
    m["coverage.query_ns." + name] = {
        oracle.EstimatedSeconds() * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(1, oracle.queries())),
        "ns"};
    m["coverage.query_share." + name] = {share[k], "ratio"};
    m["mups.search_ms." + name] = {search_med, "ms"};
    m["mups.self_ms." + name] = {search_med * (1.0 - share[k]), "ms"};
    m["mups.coverage_queries." + name] = {
        static_cast<double>(serial.coverage_queries), "count"};
    m["mups.nodes_generated." + name] = {
        static_cast<double>(serial.nodes_generated), "count"};
    m["mups.nodes_pruned." + name] = {static_cast<double>(serial.nodes_pruned),
                                      "count"};
    m["mups.parallel_speedup." + name] = {
        parallel_ms > 0 ? serial_s * 1e3 / parallel_ms : 0.0, "ratio"};
  }
  m["trace.count_mismatches.audit"] = {mismatches, "count"};

  // Enhance split: the lambda-capped discovery, then planning from
  // precomputed MUPs.
  std::vector<Pattern> material;
  const double discover_ms = MedianMillis(3, [&] {
    AuditRequest request;
    request.tau = kTau;
    request.max_level = kLambda;
    auto result = services[0].Audit(request);
    if (result.ok()) material = result->mups;
  });
  const double plan_ms = MedianMillis(3, [&] {
    EnhanceRequest enhance;
    enhance.tau = kTau;
    enhance.lambda = kLambda;
    enhance.mups = material;
    (void)services[0].Enhance(enhance);
  });
  m["enhancement.discover_ms"] = {discover_ms, "ms"};
  m["enhancement.plan_ms"] = {plan_ms, "ms"};
  m["dataset.aggregate_s"] = {
      MedianMillis(3, [&] { AggregatedData agg(kinds[0].data); }) / 1e3, "s"};
  {
    AggregatedData agg(kinds[0].data);
    m["coverage.index_build_s"] = {
        MedianMillis(3, [&] { BitmapCoverage index(agg); }) / 1e3, "s"};
  }

  // Self times of the loop: each audit splits into service (request
  // handling + planning), mups (search minus oracle) and coverage (oracle,
  // by the serial share); each Enhance into enhancement (planning) and the
  // discovery's search split by the dense share.
  SelfTimes self = EmptySelfTimes();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (std::size_t i = 0; i < audit_ms[k].size(); ++i) {
      AddNested(&self, {"service", "mups", "coverage"}, audit_ms[k][i],
                {search_ms[k][i], search_ms[k][i] * share[k]});
    }
  }
  for (double ms : enhance_ms) {
    AddNested(&self, {"enhancement", "mups", "coverage"}, ms,
              {discover_ms, discover_ms * share[0]});
  }
  ReportSelfTimes(self, loop_ms, &m);
  return out;
}

}  // namespace perfbench
