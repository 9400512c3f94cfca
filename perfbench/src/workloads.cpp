#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "api/xorec.hpp"
#include "ec/plan_cache.hpp"
#include "kernel/xor_kernel.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "slp/metrics.hpp"
#include "slp/pipeline.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr size_t kK = 10, kM = 4, kN = kK + kM;
constexpr size_t kPatterns = 16;
constexpr double kSliceSeconds = 0.5;
constexpr size_t kTailChunk = 1000;
const std::string kSpec = "rs(10,4)";
/// The correctness reference: rs(10,4)'s bitmatrix with no optimizer pass,
/// the byte-wise scalar kernel and the interpreter, so it runs none of the
/// passes, SIMD kernels or backends under test. A private plan cache keeps
/// its compile out of the shared-cache counters the workloads report.
const std::string kRefSpec = "rs(10,4)@passes=base,isa=scalar,exec=interp,cache=private";

enum class Kind { Encode, DegradedRead, Wire };

struct Shape {
  Kind kind;
  size_t frag_len;
  size_t stripes;
  size_t callers;     // closed-loop load threads, one op in flight each
  size_t warmup_ops;  // per caller, before the window opens
  size_t replay_ops;  // ops replayed per kind in a traced run
  size_t crc_stripes; // stripes whose data fragments the crc replay reads
  size_t probe_ops;   // wire requests of the net probe (object workloads)
};

Shape shape_for(const std::string& name) {
  // 64 distinct 14 MiB stripes (~900 MiB) stream past every cache level.
  if (name == "object_encode") return {Kind::Encode, 1 << 20, 64, 4, 16, 32, 16, 4};
  if (name == "object_degraded_read") return {Kind::DegradedRead, 1 << 20, 64, 4, 16, 32, 16, 4};
  if (name == "wire_packet") return {Kind::Wire, 4096, 256, 2, 256, 2000, 256, 0};
  throw std::invalid_argument("unknown workload: " + name);
}

struct Pattern {
  std::vector<uint32_t> available, erased;  // both ascending
};

/// 16 distinct erasure patterns drawn from the seed. The shape of the set
/// is fixed so the decode work per op and the set-up compile cost do not
/// swing with the seed: for each size e = 1..m, three patterns erase e data
/// fragments and one erases e-1 data fragments plus one parity fragment.
std::vector<Pattern> make_patterns(uint64_t seed) {
  Rng rng(derive_seed(seed, 0x7a77));
  // Up to `count` distinct ids from [lo, lo + n), in seeded order.
  auto draw = [&](uint32_t lo, uint32_t n, size_t count) {
    std::vector<uint32_t> ids(n);
    for (uint32_t i = 0; i < n; ++i) ids[i] = lo + i;
    for (size_t i = 0; i < count; ++i) std::swap(ids[i], ids[i + rng.below(n - i)]);
    ids.resize(count);
    return ids;
  };
  std::vector<Pattern> out;
  for (size_t e = 1; e <= kM; ++e) {
    for (size_t j = 0; j < kPatterns / kM;) {
      const size_t parity = j == kPatterns / kM - 1 ? 1 : 0;
      Pattern p;
      p.erased = draw(0, kK, e - parity);
      for (uint32_t id : draw(kK, kM, parity)) p.erased.push_back(id);
      std::sort(p.erased.begin(), p.erased.end());
      for (uint32_t id = 0; id < kN; ++id)
        if (!std::binary_search(p.erased.begin(), p.erased.end(), id)) p.available.push_back(id);
      if (std::none_of(out.begin(), out.end(),
                       [&](const Pattern& q) { return q.erased == p.erased; })) {
        out.push_back(std::move(p));
        ++j;
      }
    }
  }
  return out;
}

/// `count` zeroed, 64-byte aligned fragments of `frag_len` bytes. Plain
/// 4 KiB pages on purpose: 2 MiB pages made the 1 MiB-strided fragments
/// collide in the same cache sets and ran slower on the reference host.
class Frags {
 public:
  Frags(size_t count, size_t frag_len)
      : len_(frag_len),
        mem_(static_cast<uint8_t*>(std::aligned_alloc(64, std::max<size_t>(count, 1) * frag_len))) {
    if (!mem_) throw std::bad_alloc();
    std::memset(mem_.get(), 0, count * frag_len);
  }
  uint8_t* at(size_t i) const { return mem_.get() + i * len_; }

 private:
  struct Free {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  size_t len_;
  std::unique_ptr<uint8_t, Free> mem_;
};

template <class Fn>
void parallel_for(size_t n, size_t threads, Fn fn) {
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  for (std::thread& th : pool) th.join();
}

/// Resident set size in MB of 10^6 bytes, from the process's own
/// /proc/self/statm (getrusage's peak is unusable: it carries the RSS of
/// the process that exec'd this one). 0 where statm is unavailable.
double resident_mb() {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen("/proc/self/statm", "r"), &std::fclose);
  unsigned long size = 0, resident = 0;
  if (!f || std::fscanf(f.get(), "%lu %lu", &size, &resident) != 2) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// One op a caller issued: the stripe and, for reconstructs, the pattern.
struct OpRec {
  uint32_t stripe = 0;
  int32_t pattern = -1;  // -1 = encode
};

enum class Outcome { Ok, Failed, Mismatch };

struct OpResult {
  Outcome outcome = Outcome::Ok;
  double latency_ms = 0;
  double service_ms = -1;  // submit + wait through the ServiceHandle, if any
};

/// One successful op of a window.
struct Sample {
  OpRec rec;
  double latency_ms = 0;
  double service_ms = -1;
  double done_s = 0;  // completion time since the window opened
};

struct Window {
  double wall_s = 0;
  size_t ops = 0, failed = 0, mismatched = 0;
  std::vector<Sample> samples;  // callers interleaved in issue order

  std::vector<double> latencies_ms() const {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.latency_ms);
    return v;
  }
};

/// A tail latency of a window: ops are taken in completion order in chunks
/// of kTailChunk, each chunk's q-quantile is read (capped at the highest
/// quantile with ten samples beyond it, 0.99 for a full chunk), and the
/// median over chunks is reported, so a burst of outside interference moves
/// it less. A window with fewer ops than one chunk reads its own quantile.
double chunked_quantile_ms(const Window& w, double q, size_t* chunks) {
  std::vector<Sample> done = w.samples;
  std::sort(done.begin(), done.end(), [](const Sample& a, const Sample& b) { return a.done_s < b.done_s; });
  std::vector<double> tails;
  for (size_t lo = 0; lo + kTailChunk <= done.size(); lo += kTailChunk) {
    std::vector<double> chunk;
    for (size_t i = lo; i < lo + kTailChunk; ++i) chunk.push_back(done[i].latency_ms);
    tails.push_back(quantile(chunk, std::min(q, tail_quantile(chunk.size()))));
  }
  *chunks = tails.size();
  if (tails.empty()) return quantile(w.latencies_ms(), std::min(q, tail_quantile(done.size())));
  return quantile(tails, 0.5);
}

/// Throughput of each whole `slice_s` slice of the window (ops counted by
/// completion time), in ops per second.
std::vector<double> slice_rates(const Window& w, double slice_s) {
  const size_t slices = static_cast<size_t>(w.wall_s / slice_s);
  std::vector<double> counts(slices, 0);
  for (const Sample& s : w.samples)
    if (const size_t i = static_cast<size_t>(s.done_s / slice_s); i < slices) counts[i] += 1;
  for (double& c : counts) c /= slice_s;
  return counts;
}

/// Everything set-up creates, torn down in reverse member order.
struct Served {
  std::unique_ptr<xorec::CodecService> service;
  std::optional<xorec::ServiceHandle> handle;
  std::vector<std::shared_ptr<const xorec::ReconstructPlan>> plans;  // by pattern
  std::unique_ptr<xorec::net::NetServer> server;
  std::vector<std::unique_ptr<xorec::net::Client>> clients;  // one per caller
};

struct SetupCost {
  double total_s = 0, service_ms = 0, plan_compile_ms = 0, server_start_ms = 0;
  double rss_mb = 0;
  size_t plan_misses = 0;
  double compile_ms_per_miss = 0;
};

class Runner {
 public:
  Runner(const Options& opt, Shape sh)
      : opt_(opt), sh_(sh), patterns_(make_patterns(opt.seed)), trace_(opt.trace, sh.callers + 1) {}

  Result run();

 private:
  void set_up();
  void make_data();
  Window run_window(double seconds, size_t warmup_ops, uint64_t phase);
  OpResult do_op(size_t tid, uint64_t op_id, Rng& rng, uint64_t seq, OpRec& rec);
  OpResult service_op(size_t tid, const OpRec& rec);
  OpResult wire_op(size_t tid, xorec::net::Client& client, const OpRec& rec);
  /// Byte-compares an op's outputs with the reference parity (encode) or
  /// the original fragments (reconstruct).
  bool verify(const OpRec& rec, uint8_t* const* out) const;
  /// `r` with a successful outcome turned into Mismatch when verify fails.
  OpResult checked(size_t tid, const OpRec& rec, OpResult r) const;

  void measure_layers(Result& r, const Window& untraced, const Window& traced,
                      const xorec::ServiceStats& s0, const xorec::ServiceStats& s1,
                      const xorec::net::NetServerStats& n0, const xorec::net::NetServerStats& n1,
                      size_t queue_depth_max);
  std::vector<OpRec> replay_list(const Window& w, bool encode, size_t n) const;
  template <class Fn>
  std::vector<double> timed_calls(const char* span, size_t n, Fn fn);

  Trace& tracer() { return tracing_ ? trace_ : untraced_; }
  const uint8_t* const* data(size_t s) const { return frag_ptrs_[s].data(); }
  uint8_t* const* scratch(size_t tid) const { return scratch_ptrs_[tid].data(); }
  /// Where an op writes: object_encode's per-stripe parity buffers, else
  /// the caller's scratch fragments.
  uint8_t* const* outputs(size_t tid, const OpRec& rec) const {
    return rec.pattern < 0 && out_ ? out_ptrs_[rec.stripe].data() : scratch(tid);
  }
  std::array<const uint8_t*, kN> survivors(size_t s, const Pattern& p) const {
    std::array<const uint8_t*, kN> a{};
    for (size_t i = 0; i < p.available.size(); ++i) a[i] = frag_ptrs_[s][p.available[i]];
    return a;
  }

  Options opt_;
  Shape sh_;
  std::vector<Pattern> patterns_;
  Trace trace_;
  Trace untraced_{false, 0};
  bool tracing_ = false;  // spans are recorded only while tracing_ is set
  SetupCost setup_;
  std::unique_ptr<Frags> set_;    // stripes x kN: data, then reference parity
  std::unique_ptr<Frags> out_;    // object_encode: stripes x kM parity outputs
  std::unique_ptr<Frags> spare_;  // (callers + 1) x kN scratch outputs
  std::vector<std::array<const uint8_t*, kN>> frag_ptrs_;
  std::vector<std::array<uint8_t*, kM>> out_ptrs_;
  std::vector<std::array<uint8_t*, kN>> scratch_ptrs_;
  std::vector<std::vector<uint32_t>> own_;  // object_encode: each caller's stripes
  Served sv_;  // declared last: torn down before the buffers it reads
};

/// Start a NetServer over `service` and connect `clients` clients to it.
void start_server(Served& sv, xorec::CodecService& service, size_t clients) {
  sv.server = std::make_unique<xorec::net::NetServer>(service);
  sv.server->start();
  for (size_t i = 0; i < clients; ++i)
    sv.clients.push_back(
        std::make_unique<xorec::net::Client>("127.0.0.1", sv.server->tcp_port()));
}

void Runner::set_up() {
  const auto& cache = *xorec::ec::PlanCache::process_shared();
  const xorec::CacheStats c0 = cache.stats();
  const double rss0 = resident_mb();
  const auto t0 = Clock::now();
  sv_.service = std::make_unique<xorec::CodecService>();
  setup_.service_ms = seconds_since(t0) * 1e3;
  const auto t1 = Clock::now();
  sv_.handle.emplace(sv_.service->acquire(kSpec));
  if (sh_.kind != Kind::Encode)
    for (const Pattern& p : patterns_)
      sv_.plans.push_back(sv_.handle->plan_reconstruct(p.available, p.erased));
  setup_.plan_compile_ms = seconds_since(t1) * 1e3;
  if (sh_.kind == Kind::Wire) {
    const auto t2 = Clock::now();
    start_server(sv_, *sv_.service, sh_.callers);
    setup_.server_start_ms = seconds_since(t2) * 1e3;
  }
  setup_.total_s = seconds_since(t0);
  setup_.rss_mb = resident_mb() - rss0;
  const xorec::CacheStats c1 = cache.stats();
  setup_.plan_misses = c1.misses - c0.misses;
  if (setup_.plan_misses)
    setup_.compile_ms_per_miss = static_cast<double>(c1.compile_ns - c0.compile_ns) / 1e6 /
                                 static_cast<double>(setup_.plan_misses);
}

void Runner::make_data() {
  const size_t F = sh_.frag_len;
  set_ = std::make_unique<Frags>(sh_.stripes * kN, F);
  spare_ = std::make_unique<Frags>((sh_.callers + 1) * kN, F);
  frag_ptrs_.resize(sh_.stripes);
  for (size_t s = 0; s < sh_.stripes; ++s)
    for (size_t i = 0; i < kN; ++i) frag_ptrs_[s][i] = set_->at(s * kN + i);
  scratch_ptrs_.resize(sh_.callers + 1);
  for (size_t t = 0; t <= sh_.callers; ++t)
    for (size_t i = 0; i < kN; ++i) scratch_ptrs_[t][i] = spare_->at(t * kN + i);
  if (sh_.kind == Kind::Encode) {
    out_ = std::make_unique<Frags>(sh_.stripes * kM, F);
    out_ptrs_.resize(sh_.stripes);
    for (size_t s = 0; s < sh_.stripes; ++s)
      for (size_t j = 0; j < kM; ++j) out_ptrs_[s][j] = out_->at(s * kM + j);
    // Each caller owns the stripes congruent to its index (so no two
    // callers write one parity buffer) and cycles them in a seeded order.
    own_.resize(sh_.callers);
    for (size_t s = 0; s < sh_.stripes; ++s) own_[s % sh_.callers].push_back(static_cast<uint32_t>(s));
    for (size_t t = 0; t < sh_.callers; ++t) {
      Rng rng(derive_seed(opt_.seed, 0x0e0 + t));
      for (size_t i = own_[t].size(); i > 1; --i) std::swap(own_[t][i - 1], own_[t][rng.below(i)]);
    }
  }

  const size_t threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  const auto ref = xorec::make_codec(kRefSpec);
  parallel_for(sh_.stripes, threads, [&](size_t s) {
    Rng rng(derive_seed(opt_.seed, 0x1000 + s));
    for (size_t i = 0; i < kK; ++i) {
      uint8_t* p = set_->at(s * kN + i);
      for (size_t off = 0; off < F; off += 8) {
        const uint64_t w = rng.next();
        std::memcpy(p + off, &w, 8);
      }
    }
    uint8_t* parity[kM];
    for (size_t j = 0; j < kM; ++j) parity[j] = set_->at(s * kN + kK + j);
    ref->encode(frag_ptrs_[s].data(), parity, F);
  });
}

OpResult Runner::checked(size_t tid, const OpRec& rec, OpResult r) const {
  if (r.outcome == Outcome::Ok && !verify(rec, outputs(tid, rec))) r.outcome = Outcome::Mismatch;
  return r;
}

bool Runner::verify(const OpRec& rec, uint8_t* const* out) const {
  const size_t F = sh_.frag_len;
  const auto& frags = frag_ptrs_[rec.stripe];
  if (rec.pattern < 0) {
    for (size_t j = 0; j < kM; ++j)
      if (std::memcmp(out[j], frags[kK + j], F) != 0) return false;
    return true;
  }
  const Pattern& p = patterns_[static_cast<size_t>(rec.pattern)];
  for (size_t j = 0; j < p.erased.size(); ++j)
    if (std::memcmp(out[j], frags[p.erased[j]], F) != 0) return false;
  return true;
}

OpResult Runner::service_op(size_t tid, const OpRec& rec) {
  const size_t F = sh_.frag_len;
  const xorec::ServiceHandle& h = *sv_.handle;
  Trace& t = tracer();
  OpResult r;
  uint8_t* const* out = outputs(tid, rec);
  const auto t0 = Clock::now();
  try {
    std::future<void> fut;
    if (rec.pattern < 0) {
      const auto ts = Clock::now();
      {
        Trace::Scope sp(t, tid, "api.service.submit");
        fut = h.encode(data(rec.stripe), out, F);
      }
      {
        Trace::Scope sp(t, tid, "api.service.wait");
        fut.get();
      }
      r.service_ms = seconds_since(ts) * 1e3;
    } else {
      const Pattern& p = patterns_[static_cast<size_t>(rec.pattern)];
      const auto avail = survivors(rec.stripe, p);
      std::shared_ptr<const xorec::ReconstructPlan> plan;
      {
        Trace::Scope sp(t, tid, "ec.plan_lookup");
        plan = h.plan_reconstruct(p.available, p.erased);
      }
      const auto ts = Clock::now();
      {
        Trace::Scope sp(t, tid, "api.service.submit");
        fut = h.reconstruct(std::move(plan), avail.data(), out, F);
      }
      {
        Trace::Scope sp(t, tid, "api.service.wait");
        fut.get();
      }
      r.service_ms = seconds_since(ts) * 1e3;
    }
  } catch (const std::exception&) {
    r.outcome = Outcome::Failed;
  }
  r.latency_ms = seconds_since(t0) * 1e3;
  return r;
}

OpResult Runner::wire_op(size_t tid, xorec::net::Client& client, const OpRec& rec) {
  const size_t F = sh_.frag_len;
  Trace& t = tracer();
  OpResult r;
  uint8_t* const* out = outputs(tid, rec);
  const auto t0 = Clock::now();
  try {
    Trace::Scope sp(t, tid, "net.client.call");
    if (rec.pattern < 0) {
      client.encode(kSpec, data(rec.stripe), kK, out, kM, F);
    } else {
      const Pattern& p = patterns_[static_cast<size_t>(rec.pattern)];
      const auto avail = survivors(rec.stripe, p);
      client.reconstruct(kSpec, p.available, avail.data(), p.erased, out, F);
    }
  } catch (const std::exception&) {
    r.outcome = Outcome::Failed;
  }
  r.latency_ms = seconds_since(t0) * 1e3;
  return r;
}

OpResult Runner::do_op(size_t tid, uint64_t op_id, Rng& rng, uint64_t seq, OpRec& rec) {
  switch (sh_.kind) {
    case Kind::Encode:
      rec = {own_[tid][seq % own_[tid].size()], -1};
      break;
    case Kind::DegradedRead:
      rec.stripe = static_cast<uint32_t>(rng.below(sh_.stripes));
      rec.pattern = static_cast<int32_t>(rng.below(kPatterns));
      break;
    case Kind::Wire: {
      const bool encode = rng.below(10) < 7;
      rec.stripe = static_cast<uint32_t>(rng.below(sh_.stripes));
      rec.pattern = encode ? -1 : static_cast<int32_t>(rng.below(kPatterns));
      break;
    }
  }
  OpResult r;
  {
    Trace::Scope root(tracer(), tid, "op", op_id);
    r = sh_.kind == Kind::Wire ? wire_op(tid, *sv_.clients[tid], rec) : service_op(tid, rec);
  }
  if (sh_.kind == Kind::Wire && r.outcome == Outcome::Failed) {
    // A failed call may leave the stream mid-frame: reconnect.
    try {
      sv_.clients[tid] =
          std::make_unique<xorec::net::Client>("127.0.0.1", sv_.server->tcp_port());
    } catch (const std::exception&) {
    }
  }
  return checked(tid, rec, r);
}

Window Runner::run_window(double seconds, size_t warmup_ops, uint64_t phase) {
  struct Log {
    Window w;
    Clock::time_point end;
    bool warmup_mismatch = false;
  };
  const size_t n = sh_.callers;
  std::vector<Log> logs(n);
  std::barrier sync(static_cast<std::ptrdiff_t>(n + 1));
  Clock::time_point start, deadline;
  std::vector<std::thread> callers;
  for (size_t t = 0; t < n; ++t)
    callers.emplace_back([&, t] {
      Rng rng(derive_seed(opt_.seed, phase * 64 + t));
      Log& log = logs[t];
      uint64_t seq = 0;
      for (size_t i = 0; i < warmup_ops; ++i, ++seq) {
        OpRec rec;
        if (do_op(t, 0, rng, seq, rec).outcome == Outcome::Mismatch) log.warmup_mismatch = true;
      }
      sync.arrive_and_wait();  // every caller warmed up
      sync.arrive_and_wait();  // the window's start and deadline are set
      log.end = start;
      while (Clock::now() < deadline) {
        OpRec rec;
        const uint64_t op_id = ((t + 1) << 40) | (phase << 32) | seq;
        const OpResult r = do_op(t, op_id, rng, seq++, rec);
        log.end = Clock::now();
        ++log.w.ops;
        if (r.outcome == Outcome::Failed) ++log.w.failed;
        if (r.outcome == Outcome::Mismatch) ++log.w.mismatched;
        if (r.outcome == Outcome::Ok)
          log.w.samples.push_back({rec, r.latency_ms, r.service_ms,
                                   std::chrono::duration<double>(log.end - start).count()});
      }
    });
  sync.arrive_and_wait();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  sync.arrive_and_wait();
  for (std::thread& th : callers) th.join();

  Window w;
  Clock::time_point end = start;
  for (size_t t = 0; t < n; ++t) {
    Log& log = logs[t];
    end = std::max(end, log.end);
    w.ops += log.w.ops;
    w.failed += log.w.failed;
    w.mismatched += log.w.mismatched + (log.warmup_mismatch ? 1 : 0);
  }
  // Interleave the callers' op records, so a replay prefix covers them all.
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const Log& log : logs)
      if (i < log.w.samples.size()) {
        any = true;
        w.samples.push_back(log.w.samples[i]);
      }
    if (!any) break;
  }
  w.wall_s = std::chrono::duration<double>(end - start).count();
  return w;
}

std::vector<OpRec> Runner::replay_list(const Window& w, bool encode, size_t n) const {
  std::vector<OpRec> out;
  for (const Sample& s : w.samples) {
    if (out.size() == n) break;
    if ((s.rec.pattern < 0) == encode) out.push_back(s.rec);
  }
  // A kind the window did not issue is replayed over seeded draws.
  Rng rng(derive_seed(opt_.seed, encode ? 0x5e : 0x5d));
  while (out.size() < n)
    out.push_back({static_cast<uint32_t>(rng.below(sh_.stripes)),
                   encode ? -1 : static_cast<int32_t>(rng.below(kPatterns))});
  return out;
}

/// Run fn(i) for i < n on the replay slot, each call in its own span;
/// returns the per-call wall times in µs.
template <class Fn>
std::vector<double> Runner::timed_calls(const char* span, size_t n, Fn fn) {
  const size_t slot = sh_.callers;
  std::vector<double> us;
  us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    {
      Trace::Scope sp(trace_, slot, span);
      fn(i);
    }
    us.push_back(seconds_since(t0) * 1e6);
  }
  return us;
}

void Runner::measure_layers(Result& r, const Window& untraced, const Window& traced,
                            const xorec::ServiceStats& s0, const xorec::ServiceStats& s1,
                            const xorec::net::NetServerStats& n0,
                            const xorec::net::NetServerStats& n1, size_t queue_depth_max) {
  namespace net = xorec::net;
  const size_t F = sh_.frag_len;
  const double data_bytes = static_cast<double>(kK * F);
  const xorec::ServiceHandle& h = *sv_.handle;
  const xorec::Codec& codec = h.codec();
  auto add = [&](const std::string& name, double value, const char* unit) {
    r.layer.push_back({name, value, unit});
  };
  auto off_path = [&](std::initializer_list<const char*> names) {
    for (const char* n : names) r.off_path.push_back(n);
  };
  const bool object = sh_.kind != Kind::Wire;
  tracing_ = true;

  // Decode plans: object_encode's set-up compiles none, so compile them
  // now (after the windows) for the static counts and replays.
  if (sv_.plans.empty())
    for (const Pattern& p : patterns_)
      sv_.plans.push_back(h.plan_reconstruct(p.available, p.erased));

  // ---- slp: static counts of the programs the pool runs --------------------
  const xorec::slp::PipelineResult* enc = codec.encode_pipeline();
  const auto em = xorec::slp::measure(enc->final_program(), enc->final_form());
  double dec_xor = 0, dec_mem = 0;
  size_t ccap = em.ccap;
  for (const auto& plan : sv_.plans) {
    const xorec::PlanStats& ps = plan->schedule_stats();
    dec_xor += static_cast<double>(ps.xor_ops);
    dec_mem += static_cast<double>(ps.mem_accesses);
    ccap = std::max(ccap, ps.ccap);
  }
  add("slp.encode_xor_ops", static_cast<double>(em.xor_ops), "count");
  add("slp.encode_mem_accesses", static_cast<double>(em.mem_accesses), "count");
  add("slp.decode_xor_ops_mean", dec_xor / kPatterns, "count");
  add("slp.decode_mem_accesses_mean", dec_mem / kPatterns, "count");
  add("slp.ccap_max", static_cast<double>(ccap), "blocks");
  if (sh_.kind == Kind::Encode) off_path({"slp.decode_xor_ops_mean", "slp.decode_mem_accesses_mean"});
  if (sh_.kind == Kind::DegradedRead) off_path({"slp.encode_xor_ops", "slp.encode_mem_accesses"});

  // ---- runtime: the window's ops replayed on this thread -------------------
  const std::vector<OpRec> enc_ops = replay_list(traced, true, sh_.replay_ops);
  const std::vector<OpRec> dec_ops = replay_list(traced, false, sh_.replay_ops);
  uint8_t* const* out = scratch(sh_.callers);
  const std::vector<double> enc_us = timed_calls("runtime.execute", enc_ops.size(), [&](size_t i) {
    codec.encode(data(enc_ops[i].stripe), out, F);
  });
  const std::vector<double> dec_us = timed_calls("runtime.execute", dec_ops.size(), [&](size_t i) {
    const size_t p = static_cast<size_t>(dec_ops[i].pattern);
    const auto avail = survivors(dec_ops[i].stripe, patterns_[p]);
    sv_.plans[p]->execute(avail.data(), out, F);
  });
  add("runtime.encode_GBps", data_bytes * static_cast<double>(enc_us.size()) / sum(enc_us) / 1e3, "GB/s");
  add("runtime.decode_GBps", data_bytes * static_cast<double>(dec_us.size()) / sum(dec_us) / 1e3, "GB/s");
  if (sh_.kind == Kind::Encode) off_path({"runtime.decode_GBps"});
  if (sh_.kind == Kind::DegradedRead) off_path({"runtime.encode_GBps"});

  // ---- kernel: k = 10 sources at the workload's fragment size --------------
  const std::vector<double> xor_us = timed_calls("kernel.xor_many", enc_ops.size(), [&](size_t i) {
    xorec::kernel::xor_many(out[0], data(enc_ops[i].stripe), kK, F);
  });
  add("kernel.xor_many_GBps", data_bytes * static_cast<double>(xor_us.size()) / sum(xor_us) / 1e3, "GB/s");

  // ---- ec: plan cache -------------------------------------------------------
  add("ec.plan_compile_ms", setup_.compile_ms_per_miss, "ms");
  add("ec.plan_misses_setup", static_cast<double>(setup_.plan_misses), "count");
  std::vector<double> lookup_us = trace_.durations_us("ec.plan_lookup");
  if (lookup_us.empty())  // the window issued no lookup of its own: replay them
    lookup_us = timed_calls("ec.plan_lookup", dec_ops.size(), [&](size_t i) {
      const Pattern& p = patterns_[static_cast<size_t>(dec_ops[i].pattern)];
      (void)h.plan_reconstruct(p.available, p.erased);
    });
  add("ec.plan_lookup_us_p50", quantile(lookup_us, 0.5), "us");
  const size_t hits = s1.cache.hits - s0.cache.hits;
  const size_t lookups = hits + (s1.cache.misses - s0.cache.misses);
  add("ec.plan_hit_ratio", lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0, "ratio");
  add("ec.plan_lookups", static_cast<double>(lookups), "count");
  if (sh_.kind == Kind::Encode)
    off_path({"ec.plan_lookup_us_p50", "ec.plan_hit_ratio", "ec.plan_lookups"});

  // ---- api: service routing -------------------------------------------------
  // Per service op (submit + wait through the handle): its time minus the
  // median execute time of its kind replayed above. Object workloads time
  // their own service ops in the window; wire_packet's go through the
  // server, so its ops are replayed through the handle on this thread.
  // svc_us[kind] (0 = encode, 1 = reconstruct) keeps those unloaded
  // replays for the server residual below.
  std::vector<double> svc_us[2];
  auto replay_service = [&](const std::vector<OpRec>& ops) {
    for (size_t i = 0; i < ops.size(); ++i) {
      const OpResult o = checked(sh_.callers, ops[i], service_op(sh_.callers, ops[i]));
      if (o.outcome == Outcome::Mismatch) r.correct = false;
      if (o.outcome == Outcome::Ok) svc_us[ops[i].pattern < 0 ? 0 : 1].push_back(o.service_ms * 1e3);
    }
  };
  const double exec_p50_us[2] = {quantile(enc_us, 0.5), quantile(dec_us, 0.5)};
  std::vector<double> overhead_ms;
  if (object) {
    const int kind = sh_.kind == Kind::Encode ? 0 : 1;
    for (const Sample& s : traced.samples) overhead_ms.push_back(s.service_ms - exec_p50_us[kind] / 1e3);
  } else {
    std::vector<OpRec> ops;
    for (size_t i = 0; i < sh_.replay_ops && i < traced.samples.size(); ++i) ops.push_back(traced.samples[i].rec);
    replay_service(ops);
    for (int kind = 0; kind < 2; ++kind)
      for (double us : svc_us[kind]) overhead_ms.push_back((us - exec_p50_us[kind]) / 1e3);
  }
  add("api.service_overhead_ms_p50", quantile(overhead_ms, 0.5), "ms");
  size_t shards_used = 0;
  for (size_t i = 0; i < s1.shards.size() && i < s0.shards.size(); ++i)
    if (s1.shards[i].submitted > s0.shards[i].submitted) ++shards_used;
  add("api.shards_used", static_cast<double>(shards_used), "count");
  add("api.queue_depth_max", static_cast<double>(queue_depth_max), "count");

  // ---- net: wire protocol, server residual ---------------------------------
  const size_t crc_frags = std::min(sh_.crc_stripes, enc_ops.size()) * kK;
  const std::vector<double> crc_us = timed_calls("net.crc32", crc_frags, [&](size_t i) {
    (void)net::crc32(data(enc_ops[i / kK].stripe)[i % kK], F);
  });
  add("net.crc_GBps", static_cast<double>(F * crc_us.size()) / sum(crc_us) / 1e3, "GB/s");

  // Client-side frame work of one request: build the request frame, then
  // decode + bind a response frame of the matching shape.
  auto response_image = [&](size_t frags) {
    net::FrameHeader rh;
    rh.type = net::FrameType::Response;
    rh.k = kK;
    rh.m = kM;
    rh.frag_len = static_cast<uint32_t>(F);
    rh.present_bitmap = (uint64_t{1} << frags) - 1;
    rh.payload_count = static_cast<uint16_t>(frags);
    // An empty but non-null spec: build_frame memcpy's spec.data() even
    // when the spec is empty, and a null source there is undefined.
    return net::build_frame(rh, std::string_view("", 0), scratch(sh_.callers));
  };
  std::vector<std::vector<uint8_t>> responses(kM + 1);
  for (size_t e = 1; e <= kM; ++e) responses[e] = response_image(e);
  auto frame_work = [&](const OpRec& rec) {
    net::FrameHeader q;
    q.request_id = 1;
    q.frag_len = static_cast<uint32_t>(F);
    size_t outputs = kM;
    std::array<const uint8_t*, kN> payloads{};
    if (rec.pattern < 0) {
      q.type = net::FrameType::EncodeRequest;
      q.k = kK;
      q.present_bitmap = (uint64_t{1} << kK) - 1;
      q.payload_count = kK;
      for (size_t i = 0; i < kK; ++i) payloads[i] = data(rec.stripe)[i];
    } else {
      const Pattern& p = patterns_[static_cast<size_t>(rec.pattern)];
      q.type = net::FrameType::ReconstructRequest;
      for (uint32_t id : p.available) q.present_bitmap |= uint64_t{1} << id;
      for (uint32_t id : p.erased) q.erased_bitmap |= uint64_t{1} << id;
      q.payload_count = static_cast<uint16_t>(p.available.size());
      payloads = survivors(rec.stripe, p);
      outputs = p.erased.size();
    }
    (void)net::build_frame(q, kSpec, payloads.data());
    const std::vector<uint8_t>& resp = responses[outputs];
    net::FrameHeader rh;
    net::FrameView view;
    if (net::decode_frame_header(resp.data(), resp.size(), rh) != net::FrameError::Ok ||
        net::bind_frame_body(rh, resp.data() + net::wire::kFrameHeaderSize,
                             resp.size() - net::wire::kFrameHeaderSize,
                             view) != net::FrameError::Ok)
      throw std::logic_error("perfbench: frame codec replay failed");
  };

  // The requests whose round trips the residual is taken over: the traced
  // window's own (wire_packet), or a short probe through a server started
  // on this service (object workloads, where the wire is off the path).
  std::vector<OpRec> net_ops;
  std::vector<double> rtt_us;
  net::NetServerStats d0 = n0, d1 = n1;
  double server_start_ms = setup_.server_start_ms;
  if (object) {
    const auto t0 = Clock::now();
    Served probe;  // a server and one client over this run's service
    start_server(probe, *sv_.service, 1);
    server_start_ms = seconds_since(t0) * 1e3;
    d0 = probe.server->stats();
    const std::vector<OpRec>& pool = sh_.kind == Kind::Encode ? enc_ops : dec_ops;
    for (size_t i = 0; i < sh_.probe_ops; ++i) {
      Trace::Scope root(trace_, sh_.callers, "op", (uint64_t{0xff} << 40) | i);
      const OpResult o = checked(sh_.callers, pool[i], wire_op(sh_.callers, *probe.clients[0], pool[i]));
      if (o.outcome == Outcome::Mismatch) r.correct = false;
      if (o.outcome != Outcome::Ok) continue;
      net_ops.push_back(pool[i]);
      rtt_us.push_back(o.latency_ms * 1e3);
    }
    d1 = probe.server->stats();
    probe.clients.clear();
    probe.server->stop();
    replay_service(net_ops);
    off_path({"net.crc_GBps", "net.frame_codec_us", "net.server_residual_us_p50",
              "net.writev_segments_per_call", "net.backpressure_stalls", "net.errors",
              "setup.server_start_ms"});
  } else {
    for (const Sample& s : traced.samples) {
      net_ops.push_back(s.rec);
      rtt_us.push_back(s.latency_ms * 1e3);
    }
  }
  const size_t frame_n = std::min(object ? sh_.probe_ops : sh_.replay_ops, net_ops.size());
  std::vector<double> frame_enc_us, frame_dec_us;
  const std::vector<double> frame_us = timed_calls("net.frame_codec", frame_n, [&](size_t i) {
    frame_work(net_ops[i]);
  });
  for (size_t i = 0; i < frame_n; ++i)
    (net_ops[i].pattern < 0 ? frame_enc_us : frame_dec_us).push_back(frame_us[i]);
  add("net.frame_codec_us", quantile(frame_us, 0.5), "us");
  const double frame_p50[2] = {quantile(frame_enc_us, 0.5), quantile(frame_dec_us, 0.5)};
  const double svc_p50[2] = {quantile(svc_us[0], 0.5), quantile(svc_us[1], 0.5)};
  std::vector<double> residual_us;
  for (size_t i = 0; i < net_ops.size(); ++i) {
    const int kind = net_ops[i].pattern < 0 ? 0 : 1;
    residual_us.push_back(rtt_us[i] - frame_p50[kind] - svc_p50[kind]);
  }
  add("net.server_residual_us_p50", quantile(residual_us, 0.5), "us");
  const size_t writev_calls = d1.writev_calls - d0.writev_calls;
  add("net.writev_segments_per_call",
      writev_calls ? static_cast<double>(d1.writev_segments - d0.writev_segments) /
                         static_cast<double>(writev_calls)
                   : 0.0,
      "ratio");
  add("net.backpressure_stalls", static_cast<double>(d1.backpressure_stalls - d0.backpressure_stalls), "count");
  add("net.errors", static_cast<double>(d1.errors - d0.errors), "count");

  // ---- set-up ---------------------------------------------------------------
  add("setup.service_ms", setup_.service_ms, "ms");
  add("setup.plan_compile_ms", setup_.plan_compile_ms, "ms");
  add("setup.server_start_ms", server_start_ms, "ms");

  // ---- tracing overhead: traced window vs the untraced one before it -------
  auto gbps = [&](const Window& w) {
    return w.wall_s > 0 ? data_bytes * static_cast<double>(w.samples.size()) / w.wall_s / 1e9 : 0.0;
  };
  const double u = gbps(untraced), t = gbps(traced);
  add("trace.overhead_pct", u > 0 ? (u - t) / u * 100.0 : 0.0, "%");
  tracing_ = false;
}

Result Runner::run() {
  Result r;
  set_up();
  r.info.push_back({"reference", json_str(kRefSpec)});
  r.info.push_back({"setup_s", json_num(setup_.total_s)});
  r.info.push_back({"setup_rss_MB", json_num(setup_.rss_mb)});
  if (opt_.setup_only) return r;

  make_data();
  const size_t F = sh_.frag_len;
  const double data_bytes = static_cast<double>(kK * F);
  const double window_s = opt_.trace ? opt_.seconds / 2 : opt_.seconds;
  const Window w = run_window(window_s, sh_.warmup_ops, 1);
  r.attempted = w.ops;
  r.failed = w.failed;
  if (w.mismatched) r.correct = false;

  // Throughput is the median over half-second slices of the window and the
  // tails are medians over 1000-op chunks, so a burst of interference from
  // outside the process moves them less.
  const size_t n = w.samples.size();
  const std::vector<double> rates = slice_rates(w, kSliceSeconds);
  const double ops_per_s = rates.size() >= 3 ? quantile(rates, 0.5)
                           : w.wall_s > 0   ? static_cast<double>(n) / w.wall_s
                                            : 0.0;
  size_t tail_chunks = 0;
  r.e2e.push_back({"throughput_GBps", data_bytes * ops_per_s / 1e9, "GB/s"});
  r.e2e.push_back({"latency_p50_ms", quantile(w.latencies_ms(), 0.5), "ms"});
  r.e2e.push_back({"latency_p90_ms", chunked_quantile_ms(w, 0.9, &tail_chunks), "ms"});
  r.e2e.push_back({"latency_p99_ms", chunked_quantile_ms(w, 0.99, &tail_chunks), "ms"});
  r.e2e.push_back({"setup_s", setup_.total_s, "s"});
  r.e2e.push_back({"setup_rss_MB", setup_.rss_mb, "MB"});
  r.e2e.push_back({"fail_ratio", w.ops ? static_cast<double>(w.failed) / static_cast<double>(w.ops) : 0.0, "ratio"});
  r.info.push_back({"latency_samples", std::to_string(n)});
  r.info.push_back({"tail_quantile", json_num(tail_chunks ? tail_quantile(kTailChunk) : tail_quantile(n))});
  r.info.push_back({"tail_chunks", std::to_string(tail_chunks)});

  if (opt_.trace) {
    // Counters are deltas over the traced window, from a snapshot taken
    // after set-up and warm-up.
    const xorec::ServiceStats s0 = sv_.service->stats();
    const xorec::net::NetServerStats n0 = sv_.server ? sv_.server->stats() : xorec::net::NetServerStats{};
    std::atomic<bool> stop{false};
    size_t depth_max = 0;
    std::thread sampler([&] {
      while (!stop.load()) {
        depth_max = std::max(depth_max, sv_.handle->session().pending());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    tracing_ = true;
    const Window tw = run_window(window_s, 0, 2);
    tracing_ = false;
    stop = true;
    sampler.join();
    const xorec::ServiceStats s1 = sv_.service->stats();
    const xorec::net::NetServerStats n1 = sv_.server ? sv_.server->stats() : xorec::net::NetServerStats{};
    r.attempted += tw.ops;
    r.failed += tw.failed;
    if (tw.mismatched) r.correct = false;
    measure_layers(r, w, tw, s0, s1, n0, n1, depth_max);

    std::string spans = "{";
    for (const auto& [name, s] : trace_.summarize()) {
      if (spans.size() > 1) spans += ",";
      spans += json_str(name) + ":{\"count\":" + std::to_string(s.count) +
               ",\"dur_us_p50\":" + json_num(quantile(s.dur_us, 0.5)) +
               ",\"self_us_p50\":" + json_num(quantile(s.self_us, 0.5)) +
               ",\"self_us_total\":" + json_num(sum(s.self_us)) + "}";
    }
    r.info.push_back({"spans", spans + "}"});
    if (!opt_.trace_out.empty() && !trace_.write_chrome(opt_.trace_out))
      throw std::runtime_error("cannot write trace file " + opt_.trace_out);
  }
  // The backend/ISA each pool resolved to, after exec=auto and host degrade.
  std::string pools;
  for (const xorec::PoolStats& p : sv_.service->stats().pools)
    pools += (pools.empty() ? "" : "; ") + p.spec + " -> " + p.exec_backend + "/" + p.exec_isa;
  r.info.push_back({"pool_exec", json_str(pools)});
  return r;
}

}  // namespace

Result run_workload(const Options& opt) {
  Runner runner(opt, shape_for(opt.workload));
  return runner.run();
}

}  // namespace perfbench
