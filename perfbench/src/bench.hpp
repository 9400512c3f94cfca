// Shared pieces of xorec_perfbench: wall clock, the seeded generator,
// percentiles, the result record and a minimal JSON writer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Every timing in the benchmark is wall-clock steady_clock, never CPU time.
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the only randomness the benchmark uses. Everything it
/// generates (data, erasure patterns, op mix) is a function of --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }

 private:
  uint64_t s_;
};

/// A seed derived from a parent seed and a stream index (per stripe, per
/// thread), so parallel generation stays deterministic.
inline uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  return Rng(seed ^ (stream * 0xd1b54a32d192ed03ull)).next();
}

/// Nearest-rank quantile of `v` (copied, then sorted); 0 for an empty set.
double quantile(std::vector<double> v, double q);

/// The tail quantile a sample of `n` supports: 0.99, or the highest
/// quantile that still leaves at least ten samples beyond it.
double tail_quantile(size_t n);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation of xorec_perfbench reports (printed as one JSON line).
struct Result {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> e2e;    // always measured untraced
  std::vector<Metric> layer;  // traced runs only
  /// Per-layer metrics whose layer is off this workload's path: measured
  /// by a replay or probe at the workload's shape, as a control.
  std::vector<std::string> off_path;
  /// Free-form descriptive fields: host/config descriptor, sample counts,
  /// the effective tail quantile, span self-time summaries.
  std::vector<std::pair<std::string, std::string>> info;  // key -> raw JSON
};

/// Quote and escape `s` as a JSON string.
std::string json_str(const std::string& s);
/// A JSON number with every digit kept (non-finite values become null).
std::string json_num(double v);

}  // namespace perfbench
