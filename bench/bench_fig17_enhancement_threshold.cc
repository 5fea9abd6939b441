// Regenerates Figure 17: coverage enhancement runtime varying the coverage
// threshold (paper: AirBnB n = 1M, d = 13, τ-rate 1e-6 … 1e-2, λ = 3 … 6;
// GREEDY for all settings, plus the naive hitting-set implementation which
// only finishes the single smallest setting). Expected shape: GREEDY's
// runtime grows with both λ and the threshold; the naive solver is orders of
// magnitude slower.

#include "bench_common.h"

int main() {
  using namespace coverage;
  const std::size_t n = coverage::bench::AirbnbRows();
  const int d = 13;
  bench::Banner("Figure 17: coverage enhancement vs threshold (AirBnB)",
                "n = " + FormatCount(n) + ", d = 13");

  const Dataset data = datagen::MakeAirbnb(n, d);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);

  const std::vector<double> rates = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2};
  const std::vector<int> lambdas = bench::FullScale()
                                       ? std::vector<int>{3, 4, 5, 6}
                                       : std::vector<int>{3, 4, 5};

  std::vector<std::string> header = {"tau rate", "tau"};
  for (int l : lambdas) {
    header.push_back("greedy l=" + std::to_string(l) + " (s)");
  }
  header.push_back("naive l=3 (s)");
  TablePrinter table(header);
  bench::BenchJson json("fig17_enhancement_threshold");

  for (const double rate : rates) {
    MupSearchOptions search;
    search.tau = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(rate * static_cast<double>(n)));
    auto row = table.Row();
    row.Cell(FormatDouble(rate, 6)).Cell(search.tau);

    for (const int lambda : lambdas) {
      MupSearchOptions limited = search;
      limited.max_level = lambda;  // only MUPs at level <= λ matter
      const auto mups = FindMupsDeepDiver(oracle, limited);
      EnhancementOptions options;
      options.tau = search.tau;
      options.lambda = lambda;
      options.enumeration_limit = 1u << 21;
      Stopwatch timer;
      auto plan = PlanCoverageEnhancement(oracle, mups, options);
      const double seconds = plan.ok() ? timer.ElapsedSeconds() : -1.0;
      row.Cell(bench::SecondsCell(seconds));
      json.Row()
          .Field("n", static_cast<std::uint64_t>(n))
          .Field("tau_rate", rate)
          .Field("tau", search.tau)
          .Field("lambda", lambda)
          .Field("solver", "greedy")
          .Field("seconds", seconds)
          .Field("num_mups", static_cast<std::uint64_t>(mups.size()))
          .Done();
    }

    // Naive baseline at λ=3 only — the paper's plot has a single naive
    // point; every other setting timed out for the authors as well.
    if (rate <= 1e-6) {
      MupSearchOptions limited = search;
      limited.max_level = 3;
      const auto mups = FindMupsDeepDiver(oracle, limited);
      Stopwatch timer;
      auto targets =
          UncoveredPatternsAtLevel(mups, data.schema(), 3, 1u << 21);
      const bool solved =
          targets.ok() && NaiveGreedyHittingSet(*targets, data.schema(),
                                                nullptr, nullptr, 1u << 21)
                              .ok();
      const double seconds = solved ? timer.ElapsedSeconds() : -1.0;
      row.Cell(bench::SecondsCell(seconds));
      json.Row()
          .Field("n", static_cast<std::uint64_t>(n))
          .Field("tau_rate", rate)
          .Field("tau", search.tau)
          .Field("lambda", 3)
          .Field("solver", "naive")
          .Field("seconds", seconds)
          .Field("num_mups", static_cast<std::uint64_t>(mups.size()))
          .Done();
    } else {
      row.Cell("-");
    }
    row.Done();
  }
  table.Print(std::cout);
  std::cout << "expected shape: greedy time grows with lambda and with the "
               "threshold;\nnaive only completes the cheapest setting\n";
  return 0;
}
