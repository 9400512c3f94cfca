// The SLP codecs against the GF-table baseline the paper measures against:
// each family (rs/cauchy/lrc at the default block size) is sampled
// interleaved with an isal(6,3) arm, and the headline is the median of the
// per-pair slp_over_isal throughput ratios for encode and reconstruct.
//
// Artifact: BENCH_exec_backend.json (override with XOREC_EXEC_JSON) in the
// shared bench_json.hpp schema — per family, the encode and reconstruct
// GB/s of both arms and the paired slp_over_isal ratios.
#include "bench_common.hpp"
#include "bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace xorec;
using namespace xorec::bench;

namespace {

const std::vector<std::string>& family_specs() {
  static const std::vector<std::string> specs = {"rs(6,3)", "cauchy(6,3)", "lrc(6,2,2)"};
  return specs;
}

/// One ~20 ms throughput sample of `fn` over `bytes_per_call`, in GB/s.
/// The caller interleaves samples across the arms under comparison; one
/// sample is deliberately short so clock/thermal drift lands on both arms.
template <typename Fn>
double sample_gbps(size_t bytes_per_call, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  size_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    const double sec = std::chrono::duration<double>(clock::now() - t0).count();
    if (sec >= 0.02 || iters >= (1u << 20))
      return static_cast<double>(bytes_per_call) * static_cast<double>(iters) / sec / 1e9;
    iters = sec > 0 ? std::max(iters * 2, static_cast<size_t>(0.025 * iters / sec))
                    : iters * 2;
  }
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One codec arm: codec, pre-encoded cluster, and a
/// single-data-fragment-erasure reconstruct plan (recoverable in every
/// family). Sampling is split out so arms can be measured interleaved.
struct Arm {
  std::shared_ptr<const Codec> codec;
  std::shared_ptr<Cluster> cluster;
  std::shared_ptr<DecodeFixture> fix;
  std::shared_ptr<const ReconstructPlan> plan;
  size_t bytes = 0;

  explicit Arm(const std::string& spec)
      : codec(codec_for(spec)),
        cluster(std::make_shared<Cluster>(*codec)),
        fix(std::make_shared<DecodeFixture>(*codec, cluster, std::vector<uint32_t>{0})),
        plan(codec->plan_reconstruct(fix->available, fix->erased)),
        bytes(cluster->n * cluster->frag_len) {}

  double sample_encode() const {
    return sample_gbps(bytes, [&] {
      codec->encode(cluster->data_ptrs.data(), cluster->parity_ptrs.data(),
                    cluster->frag_len);
      benchmark::ClobberMemory();
    });
  }
  double sample_reconstruct() const {
    return sample_gbps(bytes, [&] {
      plan->execute(fix->avail_ptrs.data(), fix->out_ptrs.data(), cluster->frag_len);
      benchmark::ClobberMemory();
    });
  }
};

constexpr int kSamples = 15;
constexpr const char* kBaseline = "isal(6,3)";

/// Sample `slp` and `isal` interleaved (one of each per round) and append
/// each arm's median GB/s plus the median of the PER-ROUND slp/isal ratios
/// for encode and reconstruct. Interleaving is what makes the ratio
/// trustworthy on a busy host: sequential measurement charges any slowdown
/// over the run to whichever arm ran last, and adjacent samples share drift
/// state, so the paired ratio cancels it where a ratio of independent
/// medians would not.
void measure_pair(const std::string& family, const Arm& slp, const Arm& isal,
                  std::vector<BenchRecord>& records) {
  for (const Arm* a : {&slp, &isal}) {  // warm: plans compiled, caches primed
    a->sample_encode();
    a->sample_reconstruct();
  }
  std::vector<double> enc[2], dec[2], enc_r, dec_r;
  for (int s = 0; s < kSamples; ++s) {
    enc[0].push_back(slp.sample_encode());
    enc[1].push_back(isal.sample_encode());
    dec[0].push_back(slp.sample_reconstruct());
    dec[1].push_back(isal.sample_reconstruct());
    enc_r.push_back(enc[0].back() / enc[1].back());
    dec_r.push_back(dec[0].back() / dec[1].back());
  }
  const std::string isal_cfg = family + "/" + kBaseline;
  records.push_back({"exec_backend/encode", family, "GBps", median(enc[0])});
  records.push_back({"exec_backend/encode", isal_cfg, "GBps", median(enc[1])});
  records.push_back({"exec_backend/encode", family, "slp_over_isal", median(enc_r)});
  records.push_back({"exec_backend/reconstruct", family, "GBps", median(dec[0])});
  records.push_back({"exec_backend/reconstruct", isal_cfg, "GBps", median(dec[1])});
  records.push_back({"exec_backend/reconstruct", family, "slp_over_isal", median(dec_r)});
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  // Console view: google-benchmark entries per family + the baseline.
  std::vector<std::string> specs = family_specs();
  specs.push_back(kBaseline);
  for (const std::string& spec : specs) {
    auto codec = codec_for(spec);
    auto cluster = std::make_shared<Cluster>(*codec);
    register_encode("exec_encode/" + spec, codec, cluster);
    register_decode_plan("exec_reconstruct/" + spec, codec, cluster, {0});
  }

  benchmark::RunSpecifiedBenchmarks();

  // Artifact: hand-timed so the JSON does not depend on benchmark's
  // reporter; same codecs, same single-erasure reconstruct.
  std::vector<BenchRecord> records;
  const Arm isal(kBaseline);
  for (const std::string& spec : family_specs()) measure_pair(spec, Arm(spec), isal, records);

  const char* env = std::getenv("XOREC_EXEC_JSON");
  const std::string path = env && *env ? env : "BENCH_exec_backend.json";
  std::ofstream out(path);
  write_bench_json(out, "bench_exec_backend",
                   {{"families", "rs(6,3) cauchy(6,3) lrc(6,2,2)"},
                    {"baseline", kBaseline},
                    {"erasure", "fragment 0"},
                    {"object_bytes", std::to_string(kDataBytes)}},
                   records);
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());

  // The headline, spelled out on the console: paired SLP/isal ratios.
  for (const std::string& spec : family_specs()) {
    double enc = 0, dec = 0;
    for (const BenchRecord& r : records)
      if (r.config == spec && r.metric == "slp_over_isal")
        (r.name == "exec_backend/encode" ? enc : dec) = r.value;
    std::printf("%-12s over %s: encode %.2fx  reconstruct %.2fx\n", spec.c_str(), kBaseline,
                enc, dec);
  }

  benchmark::Shutdown();
  return 0;
}
