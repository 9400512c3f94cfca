#include "obs/sampler.hpp"

namespace xorec::obs {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

Sampler::Sampler(MetricsRegistry& registry, SamplerOptions opt)
    : registry_(registry), opt_(opt) {
  if (opt_.capacity == 0) opt_.capacity = 1;
  registry_.add_source([this](std::vector<Metric>& out) { append_window_metrics(out); });
}

Sampler::~Sampler() { stop(); }

void Sampler::start() {
  std::lock_guard lk(tmu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void Sampler::stop() {
  {
    std::lock_guard lk(tmu_);
    if (!running_) return;
    stop_ = true;
  }
  tcv_.notify_all();
  thread_.join();
  std::lock_guard lk(tmu_);
  running_ = false;
}

void Sampler::run() {
  std::unique_lock lk(tmu_);
  while (!stop_) {
    lk.unlock();
    sample_now();
    lk.lock();
    tcv_.wait_for(lk, opt_.interval, [this] { return stop_; });
  }
}

void Sampler::sample_now() {
  // Collect BEFORE taking the ring mutex: collect() walks the attached
  // stats() paths (service mutex et al.), and our own registered window
  // source takes the ring mutex — neither may nest inside the other.
  MetricSnapshot snap = registry_.collect();
  std::lock_guard lk(mu_);
  ring_.push_back(std::move(snap));
  while (ring_.size() > opt_.capacity) ring_.pop_front();
}

size_t Sampler::samples() const {
  std::lock_guard lk(mu_);
  return ring_.size();
}

double Sampler::window_seconds() const {
  std::lock_guard lk(mu_);
  if (ring_.size() < 2) return 0;
  return seconds_between(ring_.front().at, ring_.back().at);
}

double Sampler::rate_per_second(
    std::string_view name,
    const std::vector<std::pair<std::string, std::string>>& labels) const {
  std::lock_guard lk(mu_);
  if (ring_.size() < 2) return 0;
  const Metric* oldest = ring_.front().find(name, labels);
  const Metric* newest = ring_.back().find(name, labels);
  if (!oldest || !newest) return 0;
  const double dt = seconds_between(ring_.front().at, ring_.back().at);
  if (dt <= 0) return 0;
  return (newest->value - oldest->value) / dt;
}

double Sampler::window_mean(
    std::string_view name,
    const std::vector<std::pair<std::string, std::string>>& labels) const {
  std::lock_guard lk(mu_);
  double sum = 0;
  size_t n = 0;
  for (const MetricSnapshot& snap : ring_) {
    if (const Metric* m = snap.find(name, labels)) {
      sum += m->value;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0;
}

std::vector<double> Sampler::shard_depth_means() const {
  std::lock_guard lk(mu_);
  std::vector<double> sums;
  std::vector<size_t> counts;
  for (const MetricSnapshot& snap : ring_) {
    for (const Metric& m : snap.metrics) {
      if (m.name != "xorec_shard_queue_depth") continue;
      // The single label is {"shard", "<id>"} (append_service).
      if (m.labels.size() != 1) continue;
      const size_t shard = static_cast<size_t>(std::stoul(m.labels[0].second));
      if (shard >= sums.size()) {
        sums.resize(shard + 1, 0);
        counts.resize(shard + 1, 0);
      }
      sums[shard] += m.value;
      ++counts[shard];
    }
  }
  std::vector<double> means(sums.size(), 0);
  for (size_t i = 0; i < sums.size(); ++i)
    if (counts[i]) means[i] = sums[i] / static_cast<double>(counts[i]);
  return means;
}

void Sampler::append_window_metrics(std::vector<Metric>& out) const {
  const auto gauge = [&out](std::string name, std::vector<std::pair<std::string, std::string>> labels,
                            const char* help, double v) {
    out.push_back({std::move(name), std::move(labels), MetricKind::Gauge, "window", help, v});
  };

  double win_s = 0;
  size_t n = 0;
  double hit_delta = 0, lookup_delta = 0, lifetime_ratio = 0;
  std::vector<double> depth_means;
  std::vector<double> gBps;
  {
    std::lock_guard lk(mu_);
    n = ring_.size();
    if (n >= 2) {
      const MetricSnapshot& a = ring_.front();
      const MetricSnapshot& b = ring_.back();
      win_s = seconds_between(a.at, b.at);
      hit_delta = b.value_or("xorec_plan_cache_warm_hits_total") -
                  a.value_or("xorec_plan_cache_warm_hits_total");
      lookup_delta = hit_delta + b.value_or("xorec_plan_cache_warm_misses_total") -
                     a.value_or("xorec_plan_cache_warm_misses_total");
      lifetime_ratio = b.value_or("xorec_plan_cache_warm_hit_ratio");
      if (win_s > 0) {
        for (const Metric& m : b.metrics) {
          if (m.name != "xorec_shard_bytes_coded_total" || m.labels.size() != 1) continue;
          const size_t shard = static_cast<size_t>(std::stoul(m.labels[0].second));
          if (shard >= gBps.size()) gBps.resize(shard + 1, 0);
          const double delta = m.value - a.value_or(m.name, m.labels);
          gBps[shard] = delta / win_s / 1e9;
        }
      }
    }
  }
  depth_means = shard_depth_means();

  gauge("xorec_window_seconds", {}, "Timespan covered by the sampler ring.", win_s);
  gauge("xorec_window_samples", {}, "Snapshots currently in the sampler ring.",
        static_cast<double>(n));
  for (size_t i = 0; i < depth_means.size(); ++i)
    gauge("xorec_shard_queue_depth_window_mean", {{"shard", std::to_string(i)}},
          "Mean TaskQueue depth of this shard over the sampler window.",
          depth_means[i]);
  for (size_t i = 0; i < gBps.size(); ++i)
    gauge("xorec_shard_throughput_window_gBps", {{"shard", std::to_string(i)}},
          "Gigabytes/s coded by this shard over the sampler window "
          "(d bytes_coded / dt), not the lifetime average.",
          gBps[i]);
  gauge("xorec_plan_cache_hit_ratio_window", {},
        "Plan-cache hit ratio of lookups inside the sampler window (falls "
        "back to the lifetime warm ratio when the window saw no lookups).",
        lookup_delta > 0 ? hit_delta / lookup_delta : lifetime_ratio);
}

}  // namespace xorec::obs
