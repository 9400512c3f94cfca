// Baseline-ISA kernels: byte-at-a-time (the paper's xor1) and uint64-word
// with a 4x-unrolled multi-word inner loop (32 bytes per iteration per
// stream, the MemXOR-style unrolling). These are what the executor runs on
// machines without SIMD (and under XOREC_FORCE_ISA).
#include <cstring>

#include "kernel/xor_kernel.hpp"

namespace xorec::kernel {

namespace {

// ---- word64 ----------------------------------------------------------------

inline uint64_t load64(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);  // unaligned loads are fine on x86; memcpy keeps it
  return w;               // portable and compiles to plain moves
}

inline void store64(uint8_t* p, uint64_t w) { std::memcpy(p, &w, 8); }

/// Fully unrolled word64 loop over exactly K sources: 4 accumulator words
/// (32 bytes) per iteration, then single words, then a byte tail.
template <size_t K>
void word64_loop(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    uint64_t a0 = load64(srcs[0] + i);
    uint64_t a1 = load64(srcs[0] + i + 8);
    uint64_t a2 = load64(srcs[0] + i + 16);
    uint64_t a3 = load64(srcs[0] + i + 24);
    for (size_t j = 1; j < K; ++j) {
      a0 ^= load64(srcs[j] + i);
      a1 ^= load64(srcs[j] + i + 8);
      a2 ^= load64(srcs[j] + i + 16);
      a3 ^= load64(srcs[j] + i + 24);
    }
    store64(dst + i, a0);
    store64(dst + i + 8, a1);
    store64(dst + i + 16, a2);
    store64(dst + i + 24, a3);
  }
  for (; i + 8 <= len; i += 8) {
    uint64_t acc = load64(srcs[0] + i);
    for (size_t j = 1; j < K; ++j) acc ^= load64(srcs[j] + i);
    store64(dst + i, acc);
  }
  for (; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < K; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

}  // namespace

void xor_many_scalar(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  if (k == 1) {
    if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
    return;
  }
  for (size_t i = 0; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

void xor_many_word64(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  switch (k) {
    case 1:
      if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
      return;
    case 2: word64_loop<2>(dst, srcs, len); return;
    case 3: word64_loop<3>(dst, srcs, len); return;
    case 4: word64_loop<4>(dst, srcs, len); return;
    default: break;
  }
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t acc = load64(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) acc ^= load64(srcs[j] + i);
    store64(dst + i, acc);
  }
  for (; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

const KernelTable& scalar_table() {
  static const KernelTable t{Isa::Scalar, &xor_many_scalar};
  return t;
}

const KernelTable& word64_table() {
  static const KernelTable t{Isa::Word64, &xor_many_word64};
  return t;
}

}  // namespace xorec::kernel
