// Sampler: the time-series half of the observability layer. A background
// thread collects a MetricSnapshot from the registry every `interval` and
// keeps the last `capacity` of them in a fixed ring, so rates are reported
// over a sliding window instead of the lifetime-average uptime division
// ServiceStats is stuck with: a service that idled for an hour and is now
// saturated shows its *current* throughput and queue depth, not the
// hour-diluted mean.
//
// The sampler registers itself as a source on the registry it samples, so
// every scrape also carries the windowed derivations:
//
//   xorec_window_seconds / xorec_window_samples        the window itself
//   xorec_shard_queue_depth_window_mean{shard}         mean TaskQueue depth
//   xorec_shard_throughput_window_gBps{shard}          d(bytes)/dt / 1e9
//   xorec_plan_cache_hit_ratio_window                  d(hits)/d(lookups)
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace xorec::obs {

struct SamplerOptions {
  /// Tick period of the background thread (sample_now() works regardless).
  std::chrono::milliseconds interval{100};
  /// Ring capacity: the window spans at most `capacity * interval`.
  size_t capacity = 64;
};

class Sampler {
 public:
  /// Registers the windowed metrics above as a source on `registry`.
  /// The sampler must outlive scrapes of the registry.
  explicit Sampler(MetricsRegistry& registry, SamplerOptions opt = {});
  /// stop()s the thread.
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start();
  void stop();

  /// Collect one snapshot into the ring immediately (also what the thread
  /// does per tick) — how tests advance the window deterministically.
  void sample_now();

  size_t samples() const;
  /// Timespan covered by the ring (newest.at - oldest.at), seconds.
  double window_seconds() const;

  /// d(value)/dt of a (counter) metric across the window; 0 with fewer
  /// than two samples, with no elapsed time, or when the metric is absent.
  double rate_per_second(std::string_view name,
                         const std::vector<std::pair<std::string, std::string>>& labels =
                             {}) const;
  /// Mean of a (gauge) metric over every ring sample that carries it.
  double window_mean(std::string_view name,
                     const std::vector<std::pair<std::string, std::string>>& labels =
                         {}) const;

  /// Window-mean xorec_shard_queue_depth per shard, indexed by shard id.
  /// Empty until the first sample lands.
  std::vector<double> shard_depth_means() const;

 private:
  void append_window_metrics(std::vector<Metric>& out) const;
  void run();

  MetricsRegistry& registry_;
  SamplerOptions opt_;

  mutable std::mutex mu_;  // guards ring_
  std::deque<MetricSnapshot> ring_;

  std::mutex tmu_;  // guards running_/stop_ + thread lifecycle
  std::condition_variable tcv_;
  std::thread thread_;
  bool stop_ = false;
  bool running_ = false;
};

}  // namespace xorec::obs
