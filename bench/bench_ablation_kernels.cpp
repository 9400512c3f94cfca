// A2 — kernel ablation: the n-ary single-pass XOR kernels by ISA flavor
// (scalar xor1 / word64 / AVX2 xor32 / AVX-512 xor64 / NEON xor16) and
// arity, on L1-resident blocks. Shows the #M = k+1 single-pass advantage
// and SIMD speedup that motivate §5 and §7.2. Each ISA's one entry point
// (kernel_table(isa).many) unrolls k <= 8 and loops beyond, so the arity
// sweep covers both of its paths.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "kernel/xor_kernel.hpp"

using namespace xorec;

namespace {

void bench_xor_many(benchmark::State& state, kernel::Isa isa, size_t arity, size_t len) {
  std::mt19937_64 rng(1);
  std::vector<std::vector<uint8_t>> bufs(arity + 1, std::vector<uint8_t>(len));
  for (auto& b : bufs)
    for (auto& x : b) x = static_cast<uint8_t>(rng());
  std::vector<const uint8_t*> srcs;
  for (size_t j = 1; j <= arity; ++j) srcs.push_back(bufs[j].data());
  const kernel::XorManyFn fn = kernel::resolve(isa);
  for (auto _ : state) {
    fn(bufs[0].data(), srcs.data(), arity, len);
    benchmark::ClobberMemory();
  }
  // Bytes moved: k source streams + 1 destination stream.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>((arity + 1) * len));
}

/// The equivalent work done as a chain of binary XORs (the pre-fusion
/// execution shape): same result, (k-1) passes instead of one.
void bench_xor_chain(benchmark::State& state, kernel::Isa isa, size_t arity, size_t len) {
  std::mt19937_64 rng(2);
  std::vector<std::vector<uint8_t>> bufs(arity + 1, std::vector<uint8_t>(len));
  for (auto& b : bufs)
    for (auto& x : b) x = static_cast<uint8_t>(rng());
  const kernel::XorManyFn fn = kernel::resolve(isa);
  for (auto _ : state) {
    const uint8_t* first2[2] = {bufs[1].data(), bufs[2].data()};
    fn(bufs[0].data(), first2, 2, len);
    for (size_t j = 3; j <= arity; ++j) {
      const uint8_t* acc2[2] = {bufs[0].data(), bufs[j].data()};
      fn(bufs[0].data(), acc2, 2, len);
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>((arity + 1) * len));
}

/// ISAs worth benching on THIS host (kernel_table degrades unsupported
/// requests, so registering them would silently re-measure the fallback).
std::vector<kernel::Isa> host_isas() {
  std::vector<kernel::Isa> isas = {kernel::Isa::Scalar, kernel::Isa::Word64};
  if (kernel::cpu_has_avx2()) isas.push_back(kernel::Isa::Avx2);
  if (kernel::cpu_has_avx512()) isas.push_back(kernel::Isa::Avx512);
  if (kernel::cpu_has_neon()) isas.push_back(kernel::Isa::Neon);
  return isas;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  const size_t len = 4096;
  for (kernel::Isa isa : host_isas()) {
    for (size_t arity : {2u, 3u, 4u, 8u, 9u, 16u}) {
      const std::string name =
          std::string("xor_many/") + kernel::isa_name(isa) + "/k" + std::to_string(arity);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [isa, arity, len](benchmark::State& s) { bench_xor_many(s, isa, arity, len); });
    }
  }
  // Fused vs chain at the same arity (the §5 deforestation claim).
  for (size_t arity : {4u, 8u, 16u}) {
    const std::string chain_name = "xor_chain_vs_fused/chain/k" + std::to_string(arity);
    benchmark::RegisterBenchmark(
        chain_name.c_str(),
        [arity, len](benchmark::State& s) { bench_xor_chain(s, kernel::Isa::Avx2, arity, len); });
    const std::string fused_name = "xor_chain_vs_fused/fused/k" + std::to_string(arity);
    benchmark::RegisterBenchmark(
        fused_name.c_str(),
        [arity, len](benchmark::State& s) { bench_xor_many(s, kernel::Isa::Avx2, arity, len); });
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
