// CRC-32 by carry-less multiplication — compiled with -mpclmul -msse4.1 in
// this TU only; net::crc32 (frame.cpp) selects it at runtime when the CPU
// has PCLMULQDQ. The method is the reflected-polynomial fold from Intel's
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ": four
// 128-bit lanes each absorb 16 bytes per step by folding 512 bits ahead,
// the lanes collapse into one, the remaining 16-byte blocks fold in 128 bits
// ahead, and a Barrett reduction turns the 128-bit remainder into the 32-bit
// CRC register. Tails under 16 bytes go through the portable loop, which
// continues from the folded register via the seed chaining contract.
#include "net/frame.hpp"

#if defined(XOREC_HAVE_PCLMUL)

#include <immintrin.h>

namespace xorec::net::detail {

namespace {

// Fold and reduction constants for P(x) = 0x104C11DB7: each is
// (x^k mod P(x)) << 32, bit-reflected and shifted left one, as in the Intel
// paper's reflected variant.
constexpr uint64_t kFold512Lo = 0x154442bd4;  // x^(4*128+32) mod P
constexpr uint64_t kFold512Hi = 0x1c6e41596;  // x^(4*128-32) mod P
constexpr uint64_t kFold128Lo = 0x1751997d0;  // x^(128+32) mod P
constexpr uint64_t kFold128Hi = 0x0ccaa009e;  // x^(128-32) mod P
constexpr uint64_t kFold64 = 0x163cd6124;     // x^64 mod P
constexpr uint64_t kPoly = 0x1db710641;       // P, reflected
constexpr uint64_t kMu = 0x1f7011641;         // floor(x^64 / P), reflected

inline __m128i load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x folded forward over the fold distance `k` encodes, xor'd onto `next`.
inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// The CRC register after absorbing `len` bytes (len >= 64, len % 16 == 0)
/// starting from register state `crc` (pre-inverted, no final xor).
uint32_t fold_blocks(uint32_t crc, const uint8_t* p, size_t len) {
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;

  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, k512, load(p));
    x1 = fold(x1, k512, load(p + 16));
    x2 = fold(x2, k512, load(p + 32));
    x3 = fold(x3, k512, load(p + 48));
  }

  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  __m128i x = fold(x0, k128, x1);
  x = fold(x, k128, x2);
  x = fold(x, k128, x3);
  for (; len >= 16; p += 16, len -= 16) x = fold(x, k128, load(p));

  // 128 -> 64 bits: the low half folds onto the high half (appending the 32
  // zero bits the reflected CRC definition implies).
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(k128, x, 0x01));
  // 96 -> 64 bits.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32),
                                         _mm_set_epi64x(0, kFold64), 0x00));
  // Barrett reduction 64 -> 32 bits.
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

}  // namespace

bool cpu_has_pclmul() {
  static const bool has =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return has;
}

uint32_t crc32_clmul(const uint8_t* data, size_t len, uint32_t seed) {
  if (len < 64) return crc32_portable(data, len, seed);
  const size_t folded = len & ~size_t{15};
  const uint32_t reg = fold_blocks(~seed, data, folded);
  return crc32_portable(data + folded, len - folded, ~reg);
}

}  // namespace xorec::net::detail

#endif  // XOREC_HAVE_PCLMUL
