// Scaling to wide schemas: a marketplace with 36 boolean amenity attributes
// cannot enumerate its full pattern graph (3^36 nodes), but the dangerous
// coverage gaps are the *general* ones — combinations of one, two, or three
// attributes (paper §V-C3, Fig. 16). The service's kAuto planner detects the
// wide schema and falls back to level-limited PATTERN-BREAKER on its own; the
// explicit sweep below shows what each level cap costs.
//
//   $ ./examples/wide_catalog_scaling

#include <iostream>

#include "coverage_lib.h"

int main() {
  using namespace coverage;

  const std::size_t n = 100000;
  const int d = 36;
  std::cout << "generating " << FormatCount(n) << " listings with " << d
            << " boolean attributes...\n";
  auto service = CoverageService::FromSpec(
      DatagenSpec{.name = "airbnb", .n = n, .d = d, .seed = 7});
  if (!service.ok()) {
    std::cerr << service.status().ToString() << "\n";
    return 1;
  }
  std::cout << "distinct value combinations: "
            << FormatCount(service->data().num_combinations()) << "\n";
  std::cout << "full pattern graph would have "
            << FormatCount(service->schema().NumPatterns())
            << " nodes - the planner refuses to explore it:\n\n";

  const std::uint64_t tau = n / 1000;  // 0.1%

  // kAuto on a wide schema: the planner clamps the search to the general
  // levels and says so.
  AuditRequest auto_audit;
  auto_audit.tau = tau;
  const auto planned = service->Audit(auto_audit);
  if (!planned.ok()) {
    std::cerr << planned.status().ToString() << "\n";
    return 1;
  }
  std::cout << "kAuto ran " << planned->algorithm << " at max level "
            << planned->max_level << " -> " << planned->mups.size()
            << " MUPs\n  planner: " << planned->planner_rationale << "\n\n";

  TablePrinter table({"max level", "time (s)", "# MUPs", "most general MUP"});
  for (int max_level : {1, 2, 3}) {
    AuditRequest audit;
    audit.tau = tau;
    audit.max_level = max_level;
    audit.algorithm = MupAlgorithm::kDeepDiver;
    const auto result = service->Audit(audit);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    std::string example = "-";
    if (!result->mups.empty()) {
      const CoverageReport report = result->Report(service->schema(), 1);
      example = report.most_general.empty() ? "-" : report.most_general[0];
    }
    table.Row()
        .Cell(max_level)
        .Cell(result->stats.seconds, 3)
        .Cell(static_cast<std::uint64_t>(result->mups.size()))
        .Cell(example)
        .Done();
  }
  table.Print(std::cout);

  // Plan remediation for the pairwise gaps only.
  EnhanceRequest enhance;
  enhance.tau = tau;
  enhance.lambda = 2;
  const auto plan = service->Enhance(enhance);
  if (plan.ok()) {
    std::cout << "\nremediating all pairwise gaps needs "
              << plan->items.size() << " distinct listing profiles ("
              << FormatCount(plan->TotalTuples()) << " listings, vs "
              << plan->targets.size()
              << " uncovered pairs - each profile hits many)\n";
  }
  return 0;
}
