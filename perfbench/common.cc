#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "server/json.h"

namespace perfbench {

using coverage::json::JsonValue;

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t index =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return v[index];
}

double WindowedQuantile(const std::vector<double>& values,
                        const std::vector<double>& at, double q) {
  if (values.empty()) return 0.0;
  const double origin = *std::min_element(at.begin(), at.end());
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    windows[static_cast<long>(at[i] - origin)].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (auto& [second, samples] : windows) {
    per_window.push_back(Quantile(std::move(samples), q));
  }
  return Median(per_window);
}

void Ops::Attempt(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Ops::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (errors_.size() < 16) errors_.push_back(what);
}

std::uint64_t Ops::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Ops::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Ops::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

int SpanLog::Add(std::string name, std::uint64_t request, int parent,
                 double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), request, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonValue::Object o;
    o["id"] = static_cast<std::uint64_t>(i);
    o["name"] = s.name;
    o["request"] = s.request;
    o["parent"] = s.parent;
    o["start"] = s.start;
    o["end"] = s.end;
    out << coverage::json::Serialize(JsonValue(std::move(o))) << "\n";
  }
  return static_cast<bool>(out);
}

TurnTaking::TurnTaking(int phases)
    : done_(static_cast<std::size_t>(phases), false), slice_start_(NowSeconds()) {}

void TurnTaking::Begin(int phase) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return current_ == phase; });
}

bool TurnTaking::Due() {
  std::lock_guard<std::mutex> lock(mu_);
  return NowSeconds() - slice_start_ >= kSliceSeconds;
}

double TurnTaking::Yield(int phase) {
  std::unique_lock<std::mutex> lock(mu_);
  const double now = NowSeconds();
  if (now - slice_start_ < kSliceSeconds) return 0.0;
  PassLocked(phase);
  cv_.wait(lock, [&] { return current_ == phase; });
  return NowSeconds() - now;
}

void TurnTaking::End(int phase) {
  std::lock_guard<std::mutex> lock(mu_);
  done_[static_cast<std::size_t>(phase)] = true;
  PassLocked(phase);
}

void TurnTaking::PassLocked(int phase) {
  const int n = static_cast<int>(done_.size());
  for (int step = 1; step <= n; ++step) {
    const int next = (phase + step) % n;
    if (!done_[static_cast<std::size_t>(next)]) {
      current_ = next;
      break;
    }
  }
  slice_start_ = NowSeconds();
  cv_.notify_all();
}

template <typename F>
auto TimingOracle::Timed(F&& f) const {
  if (++queries_ % kSampleEvery != 0) return f();
  const auto start = Clock::now();
  auto result = f();
  sampled_seconds_ +=
      std::chrono::duration<double>(Clock::now() - start).count();
  ++sampled_;
  return result;
}

std::uint64_t TimingOracle::Coverage(const coverage::Pattern& pattern,
                                     coverage::QueryContext& ctx) const {
  return Timed([&] { return inner_.Coverage(pattern, ctx); });
}

bool TimingOracle::CoverageAtLeast(const coverage::Pattern& pattern,
                                   std::uint64_t tau,
                                   coverage::QueryContext& ctx) const {
  return Timed([&] { return inner_.CoverageAtLeast(pattern, tau, ctx); });
}

std::uint64_t TimingOracle::Coverage(const coverage::PackedPattern& pattern,
                                     const coverage::PatternCodec& codec,
                                     coverage::QueryContext& ctx) const {
  return Timed([&] { return inner_.Coverage(pattern, codec, ctx); });
}

bool TimingOracle::CoverageAtLeast(const coverage::PackedPattern& pattern,
                                   const coverage::PatternCodec& codec,
                                   std::uint64_t tau,
                                   coverage::QueryContext& ctx) const {
  return Timed(
      [&] { return inner_.CoverageAtLeast(pattern, codec, tau, ctx); });
}

double TimingOracle::EstimatedSeconds() const {
  if (sampled_ == 0) return 0.0;
  return sampled_seconds_ * static_cast<double>(queries_) /
         static_cast<double>(sampled_);
}

std::vector<coverage::Pattern> Search(coverage::MupAlgorithm algorithm,
                                      const coverage::CoverageOracle& oracle,
                                      const coverage::Schema& schema,
                                      const coverage::MupSearchOptions& options,
                                      coverage::MupSearchStats* stats) {
  if (algorithm == coverage::MupAlgorithm::kPatternBreaker) {
    return coverage::FindMupsPatternBreaker(oracle, schema, options, stats);
  }
  return coverage::FindMupsDeepDiver(oracle, schema, options, stats);
}

std::vector<coverage::QueryBatchRequest> ProbeBatches(
    const coverage::Schema& schema, std::uint64_t seed, int count,
    std::uint64_t tau) {
  coverage::Rng rng(seed);
  const int dims = schema.num_attributes();
  std::vector<coverage::QueryBatchRequest> batches(static_cast<std::size_t>(count));
  for (coverage::QueryBatchRequest& batch : batches) {
    for (int i = 0; i < 16; ++i) {
      std::vector<coverage::Value> cells(static_cast<std::size_t>(dims),
                                         coverage::kWildcard);
      const int level = static_cast<int>(rng.NextInt(1, 3));
      for (int j = 0; j < level; ++j) {
        const int attr = static_cast<int>(rng.NextInt(0, dims - 1));
        cells[static_cast<std::size_t>(attr)] = static_cast<coverage::Value>(
            rng.NextInt(0, schema.cardinality(attr) - 1));
      }
      batch.queries.push_back({coverage::Pattern(cells), i % 2 == 0 ? 0 : tau});
    }
  }
  return batches;
}

double OracleUsPerBatch(const coverage::BitmapCoverage& index,
                        const std::vector<coverage::QueryBatchRequest>& batches) {
  TimingOracle oracle(index);
  coverage::QueryContext ctx;
  for (const coverage::QueryBatchRequest& batch : batches) {
    for (const coverage::QueryRequest& q : batch.queries) {
      if (q.tau == 0) {
        (void)oracle.Coverage(q.pattern, ctx);
      } else {
        (void)oracle.CoverageAtLeast(q.pattern, q.tau, ctx);
      }
    }
  }
  return oracle.EstimatedSeconds() * 1e6 / static_cast<double>(batches.size());
}

const std::vector<std::string> kLayers = {
    "net",    "server", "cluster", "service", "enhancement", "mups",
    "engine", "persist", "dataset", "coverage"};

SelfTimes EmptySelfTimes() {
  SelfTimes self;
  for (const std::string& layer : kLayers) self[layer] = 0.0;
  return self;
}

void AddNested(SelfTimes* self, const std::vector<std::string>& layers,
               double total, std::vector<double> inner) {
  double outer = total;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i + 1 == layers.size()) {
      (*self)[layers[i]] += outer;
      break;
    }
    const double next = std::clamp(inner[i], 0.0, outer);
    (*self)[layers[i]] += outer - next;
    outer = next;
  }
}

void ReportSelfTimes(const SelfTimes& self, double traced_total_ms,
                     MetricMap* out) {
  double sum = 0.0;
  for (const auto& [layer, ms] : self) {
    (*out)["self." + layer + "_ms"] = {ms, "ms"};
    sum += ms;
  }
  (*out)["self.other_ms"] = {traced_total_ms - sum, "ms"};
  (*out)["traced.total_ms"] = {traced_total_ms, "ms"};
}

void Die(const std::string& what) {
  // _Exit: other phase threads may be waiting for their turn, and exit()
  // would run static destructors under them.
  std::cerr << "perfbench: " << what << std::endl;
  std::_Exit(1);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: {
      std::ostringstream hex;
      hex << "0x" << std::hex << fs.f_type;
      return hex.str();
    }
  }
}

}  // namespace

std::string MachineDescriptorJson(const std::string& data_dir) {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0 &&
        model == "unknown") {
      model = value;
    }
    if (key == "flags" && flags.empty()) flags = " " + value + " ";
  }
  auto has = [&](const char* flag) {
    return flags.find(std::string(" ") + flag + " ") != std::string::npos;
  };
  JsonValue::Array isa;
  for (const char* flag : {"sse4_2", "avx2", "bmi2", "avx512f", "avx512bw",
                           "avx512vl", "avx512_vpopcntdq"}) {
    if (has(flag)) isa.push_back(flag);
  }
  JsonValue::Object o;
  o["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  o["cpu_model"] = model;
  o["isa"] = std::move(isa);
#if defined(__clang__)
  o["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  o["compiler"] = std::string("gcc ") + __VERSION__;
#else
  o["compiler"] = "unknown";
#endif
  o["build_type"] = PERFBENCH_BUILD_TYPE;
  o["data_dir_fs"] = FilesystemType(data_dir);
  return coverage::json::Serialize(JsonValue(std::move(o)));
}

std::uint64_t Fingerprint(const std::vector<coverage::Pattern>& mups) {
  std::uint64_t h = 1469598103934665603ull;
  for (const coverage::Pattern& p : mups) {
    for (char c : p.ToString() + ";") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

bool SameMups(std::vector<coverage::Pattern> a,
              std::vector<coverage::Pattern> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace perfbench
