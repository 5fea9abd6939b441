#include "obs/trace.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <random>

namespace coverage {
namespace obs {

void Trace::AddStage(const std::string& name, double seconds) {
  auto& into = open_scopes_ > 0 ? substages_ : stages_;
  for (auto& [existing, total] : into) {
    if (existing == name) {
      total += seconds;
      return;
    }
  }
  into.emplace_back(name, seconds);
}

double Trace::StageSum() const {
  double sum = 0.0;
  for (const auto& [name, seconds] : stages_) sum += seconds;
  return sum;
}

std::string GenerateTraceId() {
  // One random prefix per process distinguishes restarts; the atomic
  // sequence distinguishes requests within one.
  static const std::uint32_t prefix = [] {
    std::random_device rd;
    return static_cast<std::uint32_t>(rd());
  }();
  static std::atomic<std::uint64_t> sequence{0};
  char buf[32];
  std::snprintf(buf, sizeof(buf), "r-%08x-%llu", prefix,
                static_cast<unsigned long long>(
                    sequence.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

}  // namespace obs
}  // namespace coverage
