// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload audit|stream|serve|cluster --seed N --seconds S
//             --trace 0|1 --out-dir DIR
//
// and prints, as its last stdout line, {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set (see perfbench/README.md). Every workload
// reports every metric: the named workload's phase runs for --seconds, and
// a metric it does not measure comes from a companion phase, also run for
// --seconds, in the order audit, stream, serve. The phases of an untraced
// run take turns of about a second each, so machine noise falls on all of
// them alike.

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench.h"
#include "server/json.h"

namespace perfbench {
namespace {

using coverage::json::JsonValue;

const std::vector<std::string> kEndToEnd = {
    "setup_s",        "peak_rss_mib",      "audit_dense_ms",    "audit_highcard_ms",
    "audit_wide_ms",  "enhance_ms",        "ingest_rows_per_s", "append_p50_ms",
    "append_p90_ms",  "retract_p50_ms",    "recover_s",         "query_p50_us",
    "query_p99_us",   "audit_p50_ms",      "requests_per_s"};

/// Counts that come from serial replays or a fixed epoch prefix and so must
/// repeat exactly between traced runs of the same seed.
bool IsRepeatableCount(const std::string& name) {
  for (const char* prefix :
       {"mups.coverage_queries.", "mups.nodes_generated.", "mups.nodes_pruned.",
        "engine.queries_per_epoch", "engine.mups_", "engine.rows_evicted",
        "engine.tombstones", "cluster.count_rounds", "cluster.patterns_counted"}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

using Phase = PhaseResult (*)(const Config&, double, bool, Ops&, SpanLog&, Turn&);

const std::map<std::string, Phase>& Phases() {
  static const std::map<std::string, Phase> phases = {
      {"audit", RunAudit},
      {"stream", RunStream},
      {"serve", RunServe},
      {"cluster", RunCluster}};
  return phases;
}

void Merge(const MetricMap& from, MetricMap* into) {
  for (const auto& [name, metric] : from) into->try_emplace(name, metric);
}

/// The phases an untraced run of `workload` needs to measure every
/// end-to-end metric: the named one, then audit and stream, then serve
/// unless cluster already measures the client-side metrics.
std::vector<std::string> RunPhases(const std::string& workload) {
  std::vector<std::string> out = {workload};
  for (const std::string name : {"audit", "stream", "serve"}) {
    if (name != workload && !(name == "serve" && workload == "cluster")) {
      out.push_back(name);
    }
  }
  return out;
}

int Usage() {
  std::cerr << "usage: perfbench --workload audit|stream|serve|cluster --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

int Main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default: left to adapt, it follows the
  // order in which the phases' threads free large blocks, and peak RSS
  // then jumps by tens of MiB between runs of the same seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Config config;
  config.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") config.workload = value;
      else if (flag == "--seed") config.seed = std::stoull(value);
      else if (flag == "--seconds") config.seconds = std::stod(value);
      else if (flag == "--trace") config.trace = value == "1";
      else if (flag == "--out-dir") config.out_dir = value;
      else return Usage();
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (!Phases().contains(config.workload) || config.out_dir.empty() ||
      config.seconds <= 0) {
    return Usage();
  }
  std::filesystem::create_directories(config.out_dir);

  Ops ops;
  SpanLog spans;
  MetricMap metrics;
  const Phase main_phase = Phases().at(config.workload);
  Config companion = config;
  companion.companion = true;
  if (!config.trace) {
    const std::vector<std::string> names = RunPhases(config.workload);
    TurnTaking share(static_cast<int>(names.size()));
    std::vector<PhaseResult> results(names.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < names.size(); ++i) {
      threads.emplace_back([&, i] {
        Turn turn(&share, static_cast<int>(i));
        turn.Begin();
        try {
          results[i] = Phases().at(names[i])(i == 0 ? config : companion,
                                             config.seconds, false, ops, spans, turn);
        } catch (const std::exception& e) {
          Die(names[i] + " phase: " + e.what());
        }
        turn.End();
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const PhaseResult& result : results) Merge(result.metrics, &metrics);
    metrics["peak_rss_mib"] = {PeakRssMib(), "MiB"};
    for (const std::string& name : kEndToEnd) {
      if (!metrics.contains(name)) Die("no phase measured " + name);
    }
    for (auto it = metrics.begin(); it != metrics.end();) {
      it = std::find(kEndToEnd.begin(), kEndToEnd.end(), it->first) == kEndToEnd.end()
               ? metrics.erase(it)
               : std::next(it);
    }
  } else {
    // The untraced run of the same phase first: tracing overhead is the
    // traced primary latency relative to it.
    // Traced phases run one after another, each alone.
    Turn alone;
    const double untraced =
        main_phase(config, config.seconds, false, ops, spans, alone).primary;
    const PhaseResult traced = main_phase(config, config.seconds, true, ops, spans, alone);
    metrics = traced.metrics;
    metrics["trace.overhead_pct"] = {
        untraced > 0 ? (traced.primary - untraced) / untraced * 100.0 : 0.0, "%"};
    for (const char* name : {"audit", "stream", "serve", "cluster"}) {
      if (name == config.workload) continue;
      Merge(Phases().at(name)(companion, config.seconds, true, ops, spans, alone).metrics,
            &metrics);
    }
    double mismatches = 0;
    for (auto it = metrics.begin(); it != metrics.end();) {
      if (it->first.rfind("trace.count_mismatches.", 0) == 0) {
        mismatches += it->second.value;
        it = metrics.erase(it);
      } else {
        ++it;
      }
    }
    // Counts that must repeat: compare with the previous traced run of this
    // workload and seed, then keep this run's for the next comparison.
    const std::string counts_path = config.out_dir + "/counts-" + config.workload +
                                    "-s" + std::to_string(config.seed) + ".json";
    JsonValue::Object counts;
    for (const auto& [name, metric] : metrics) {
      if (IsRepeatableCount(name)) counts[name] = metric.value;
    }
    std::ifstream previous_file(counts_path);
    if (previous_file) {
      const std::string text((std::istreambuf_iterator<char>(previous_file)),
                             std::istreambuf_iterator<char>());
      auto previous = coverage::json::Parse(text);
      if (previous.ok()) {
        for (const auto& [name, value] : counts) {
          const JsonValue* old = previous->Find(name);
          if (old == nullptr || old->AsDouble() != value.AsDouble()) {
            ++mismatches;
            std::cerr << "perfbench: count " << name << " differs from the "
                      << "previous traced run\n";
          }
        }
      }
    }
    std::ofstream(counts_path) << coverage::json::Serialize(JsonValue(counts)) << "\n";
    metrics["trace.count_mismatches"] = {mismatches, "count"};
    const std::string spans_path = config.out_dir + "/spans-" + config.workload +
                                   "-s" + std::to_string(config.seed) + ".jsonl";
    if (!spans.Write(spans_path)) Die("could not write " + spans_path);
  }

  for (const std::string& error : ops.errors()) {
    std::cerr << "perfbench: failed operation: " << error << "\n";
  }
  JsonValue::Object metric_json;
  for (const auto& [name, metric] : metrics) {
    JsonValue::Object m;
    m["value"] = metric.value;
    m["unit"] = metric.unit;
    metric_json[name] = std::move(m);
  }
  JsonValue::Object result;
  result["correct"] = ops.failed() == 0;
  result["attempted"] = ops.attempted();
  result["failed"] = ops.failed();
  result["metrics"] = std::move(metric_json);
  const std::string result_line = coverage::json::Serialize(JsonValue(result));
  const std::string machine = MachineDescriptorJson(config.out_dir);
  std::ofstream(config.out_dir + "/result-" + config.workload + "-s" +
                std::to_string(config.seed) + "-t" + (config.trace ? "1" : "0") +
                ".json")
      << "{\"machine\": " << machine << ", \"result\": " << result_line << "}\n";
  std::cout << "machine: " << machine << "\n" << result_line << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
