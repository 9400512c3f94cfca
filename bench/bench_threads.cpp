// A4 — thread scaling, both parallelism axes:
//  - threads_encode/tN: the blocked executor's §8 intra-stripe direction
//    (strip ranges split across fork-join workers, private scratch), and
//  - batch_encode/tN:   BatchCoder's stripe-level direction (N session
//    workers, 8 independent stripes per flush, codec single-threaded).
// Shape target: batch_encode/tN >= threads_encode/t1 for N >= 2 — whole
// stripes parallelize at least as well as split strips.
#include "bench_common.hpp"

#include <thread>

using namespace xorec;
using namespace xorec::bench;

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  const size_t n = 10, p = 4, block = 1024;
  // Larger object so per-thread spans stay meaningful.
  const size_t frag_len = (64u << 20) / n / 64 * 64;
  auto cluster = std::make_shared<RsCluster>(n, p, frag_len);

  const size_t hw = std::max<size_t>(std::thread::hardware_concurrency(), 1);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > 2 * hw) break;
    ec::CodecOptions opt = full_options(block);
    opt.exec.threads = threads;
    auto codec = std::make_shared<ec::RsCodec>(n, p, opt);
    // Wall clock: the workers run on other threads, so the calling
    // thread's CPU time would undercount and inflate GB/s.
    register_encode("threads_encode/t" + std::to_string(threads), codec, cluster)
        ->UseRealTime();
  }

  // Stripe-level scaling: same total bytes per flush across 8 stripes of
  // 10 MB objects, sessions of 1/2/4/8 workers over a 1-thread codec.
  auto batch_codec = std::make_shared<ec::RsCodec>(n, p, full_options(block));
  auto enc_set = make_cluster_set(*batch_codec, 8);
  auto dec_set = make_decode_set(*batch_codec, 8, {2, 4, 5, 6});
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > 2 * hw) break;
    register_encode_batch("batch_encode/t" + std::to_string(threads), batch_codec,
                          enc_set, threads);
    register_decode_batch("batch_decode/t" + std::to_string(threads), batch_codec,
                          dec_set, threads);
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
