// Thread-scaling of the parallel MUP search on the Fig. 15 workload
// (AirBnB, τ = 0.1%): PATTERN-BREAKER at 1/2/4/8 workers sharing one
// BitmapCoverage oracle (DEEPDIVER is serial, so it has no row here). Reports wall-clock, speedup over the
// serial run, and verifies that every thread count returns the identical MUP
// set. Machine-readable results land in BENCH_parallel_scaling.json.

#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace coverage;

std::string Fingerprint(const std::vector<Pattern>& mups) {
  std::string out;
  for (const Pattern& p : mups) {
    out += p.ToString();
    out += ';';
  }
  return out;
}

}  // namespace

int main() {
  const std::size_t n = bench::FullScale() ? 1000000 : 100000;
  const int d = bench::FullScale() ? 17 : 13;
  bench::Banner("Parallel scaling: MUP search vs worker count (AirBnB)",
                "n = " + FormatCount(n) + ", d = " + std::to_string(d) +
                    ", tau = 0.1%");

  const Dataset data = datagen::MakeAirbnb(n, d);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = std::max<std::uint64_t>(1, n / 1000);

  bench::BenchJson json("parallel_scaling");
  TablePrinter table({"algorithm", "threads", "seconds", "speedup", "# MUPs",
                      "queries"});
  const MupAlgorithm algorithm = MupAlgorithm::kPatternBreaker;
  double serial_seconds = 0.0;
  std::string serial_fingerprint;
  for (const int threads : {1, 2, 4, 8}) {
    options.num_threads = threads;
    MupSearchStats stats;
    const auto mups = FindMups(algorithm, oracle, options, &stats);
    if (!mups.ok()) {
      // PATTERN-BREAKER has no resource guard, so this is unreachable
      // today; bail out loudly rather than fake a DNF row.
      std::cerr << ToString(algorithm) << ": " << mups.status().ToString()
                << "\n";
      return 1;
    }
    const std::string fingerprint = Fingerprint(*mups);
    if (threads == 1) {
      serial_seconds = stats.seconds;
      serial_fingerprint = fingerprint;
    } else if (fingerprint != serial_fingerprint) {
      std::cerr << "DETERMINISM VIOLATION: " << ToString(algorithm) << " at "
                << threads << " threads diverged from the serial output\n";
      return 1;
    }
    const double speedup =
        stats.seconds > 0 ? serial_seconds / stats.seconds : 0.0;
    table.Row()
        .Cell(ToString(algorithm))
        .Cell(threads)
        .Cell(bench::SecondsCell(stats.seconds))
        .Cell(FormatDouble(speedup, 2) + "x")
        .Cell(static_cast<std::uint64_t>(stats.num_mups))
        .Cell(stats.coverage_queries)
        .Done();
    json.Row()
        .Field("workload", "fig15_airbnb_dimensions")
        .Field("n", static_cast<std::uint64_t>(n))
        .Field("d", d)
        .Field("algorithm", ToString(algorithm))
        .Field("threads", threads)
        .Field("seconds", stats.seconds)
        .Field("speedup", speedup)
        .Field("num_mups", static_cast<std::uint64_t>(stats.num_mups))
        .Field("coverage_queries", stats.coverage_queries)
        .Done();
  }
  table.Print(std::cout);
  return 0;
}
