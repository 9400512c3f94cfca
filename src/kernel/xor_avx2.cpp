// AVX2 kernels — compiled with -mavx2 in this TU only; selected at runtime
// by dispatch.cpp. The 2x-unrolled main loop moves 64 bytes per iteration
// per stream, matching the paper's xor32 (mm256_xor) inner loop; arities up
// to 8 run a fully unrolled instance of it.
#include "kernel/xor_kernel.hpp"

#if defined(XOREC_HAVE_AVX2)

#include <immintrin.h>

#include <cstring>

namespace xorec::kernel {

namespace {

/// 64 bytes per iteration: 2 ymm accumulators, fully unrolled over exactly
/// K sources.
template <size_t K>
void avx2_loop(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i));
    __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i + 32));
    for (size_t j = 1; j < K; ++j) {
      a0 = _mm256_xor_si256(a0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i)));
      a1 = _mm256_xor_si256(a1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i + 32)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), a1);
  }
  for (; i + 32 <= len; i += 32) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i));
    for (size_t j = 1; j < K; ++j)
      a = _mm256_xor_si256(a, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a);
  }
  for (; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < K; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

void xor_generic_avx2(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i));
    __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i + 32));
    for (size_t j = 1; j < k; ++j) {
      a0 = _mm256_xor_si256(a0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i)));
      a1 = _mm256_xor_si256(a1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i + 32)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), a1);
  }
  if (i < len) {
    // Tail: byte loop keeps it simple; fused instructions in hot paths run
    // on whole blocks, so this only triggers for ragged strip lengths.
    for (size_t b = i; b < len; ++b) {
      uint8_t acc = srcs[0][b];
      for (size_t j = 1; j < k; ++j) acc ^= srcs[j][b];
      dst[b] = acc;
    }
  }
}

}  // namespace

void xor_many_avx2(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  switch (k) {
    case 1:
      if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
      return;
    case 2: avx2_loop<2>(dst, srcs, len); return;
    case 3: avx2_loop<3>(dst, srcs, len); return;
    case 4: avx2_loop<4>(dst, srcs, len); return;
    case 5: avx2_loop<5>(dst, srcs, len); return;
    case 6: avx2_loop<6>(dst, srcs, len); return;
    case 7: avx2_loop<7>(dst, srcs, len); return;
    case 8: avx2_loop<8>(dst, srcs, len); return;
    default: xor_generic_avx2(dst, srcs, k, len); return;
  }
}

const KernelTable& avx2_table() {
  static const KernelTable t{Isa::Avx2, &xor_many_avx2};
  return t;
}

}  // namespace xorec::kernel

#endif  // XOREC_HAVE_AVX2
