// NEON kernels for aarch64 — NEON is baseline there, so no runtime probe is
// needed beyond the compile-time gate; dispatch.cpp routes Isa::Neon (and
// Auto) here. The main loop moves 64 bytes per iteration per stream with 4
// q-register accumulators; arities up to 8 run a fully unrolled instance.
#include "kernel/xor_kernel.hpp"

#if defined(XOREC_HAVE_NEON)

#include <arm_neon.h>

#include <cstring>

namespace xorec::kernel {

namespace {

template <size_t K>
void neon_loop(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    uint8x16_t a0 = vld1q_u8(srcs[0] + i);
    uint8x16_t a1 = vld1q_u8(srcs[0] + i + 16);
    uint8x16_t a2 = vld1q_u8(srcs[0] + i + 32);
    uint8x16_t a3 = vld1q_u8(srcs[0] + i + 48);
    for (size_t j = 1; j < K; ++j) {
      a0 = veorq_u8(a0, vld1q_u8(srcs[j] + i));
      a1 = veorq_u8(a1, vld1q_u8(srcs[j] + i + 16));
      a2 = veorq_u8(a2, vld1q_u8(srcs[j] + i + 32));
      a3 = veorq_u8(a3, vld1q_u8(srcs[j] + i + 48));
    }
    vst1q_u8(dst + i, a0);
    vst1q_u8(dst + i + 16, a1);
    vst1q_u8(dst + i + 32, a2);
    vst1q_u8(dst + i + 48, a3);
  }
  for (; i + 16 <= len; i += 16) {
    uint8x16_t a = vld1q_u8(srcs[0] + i);
    for (size_t j = 1; j < K; ++j) a = veorq_u8(a, vld1q_u8(srcs[j] + i));
    vst1q_u8(dst + i, a);
  }
  for (; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < K; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

}  // namespace

void xor_many_neon(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  switch (k) {
    case 1:
      if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
      return;
    case 2: neon_loop<2>(dst, srcs, len); return;
    case 3: neon_loop<3>(dst, srcs, len); return;
    case 4: neon_loop<4>(dst, srcs, len); return;
    case 5: neon_loop<5>(dst, srcs, len); return;
    case 6: neon_loop<6>(dst, srcs, len); return;
    case 7: neon_loop<7>(dst, srcs, len); return;
    case 8: neon_loop<8>(dst, srcs, len); return;
    default: break;
  }
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    uint8x16_t a = vld1q_u8(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) a = veorq_u8(a, vld1q_u8(srcs[j] + i));
    vst1q_u8(dst + i, a);
  }
  for (; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

const KernelTable& neon_table() {
  static const KernelTable t{Isa::Neon, &xor_many_neon};
  return t;
}

}  // namespace xorec::kernel

#endif  // XOREC_HAVE_NEON
