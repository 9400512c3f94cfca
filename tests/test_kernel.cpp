// XOR kernels: every ISA flavor against a byte-wise oracle, across arity,
// length (including ragged tails), misalignment and exact-alias dst==src.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "kernel/xor_kernel.hpp"

namespace k = xorec::kernel;

namespace {

std::vector<uint8_t> random_bytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng());
  return v;
}

std::vector<uint8_t> oracle(const std::vector<std::vector<uint8_t>>& srcs, size_t len) {
  std::vector<uint8_t> out(len, 0);
  for (const auto& s : srcs)
    for (size_t i = 0; i < len; ++i) out[i] ^= s[i];
  return out;
}

}  // namespace

class KernelSweep : public ::testing::TestWithParam<std::tuple<k::Isa, size_t, size_t>> {};

TEST_P(KernelSweep, MatchesOracle) {
  const auto [isa, arity, len] = GetParam();
  std::vector<std::vector<uint8_t>> srcs;
  std::vector<const uint8_t*> ptrs;
  for (size_t j = 0; j < arity; ++j) {
    srcs.push_back(random_bytes(len, static_cast<uint32_t>(1000 + j)));
    ptrs.push_back(srcs.back().data());
  }
  std::vector<uint8_t> dst(len, 0xEE);
  k::xor_many(dst.data(), ptrs.data(), arity, len, isa);
  EXPECT_EQ(dst, oracle(srcs, len));
}

std::string kernel_sweep_name(
    const ::testing::TestParamInfo<std::tuple<k::Isa, size_t, size_t>>& info) {
  return std::string(k::isa_name(std::get<0>(info.param))) + "_k" +
         std::to_string(std::get<1>(info.param)) + "_len" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, KernelSweep,
    ::testing::Combine(::testing::Values(k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2,
                                         k::Isa::Avx512, k::Isa::Neon),
                       ::testing::Values<size_t>(1, 2, 3, 4, 5, 7, 8, 9, 13, 24),
                       ::testing::Values<size_t>(1, 7, 31, 32, 33, 63, 64, 65, 127, 128,
                                                 129, 255, 1024, 4096, 10000)),
    kernel_sweep_name);

// ---- kernel_table(isa).many in every call shape the executor makes --------
//
// Out of place, dst ^= srcs (dst leading its own sources) and a destination
// at any alignment, over every arity `many` unrolls. The test keeps the name
// of the fixed/accum/streaming table forms whose call shapes it now checks
// on `many`.

class KernelTableSweep : public ::testing::TestWithParam<std::tuple<k::Isa, size_t, size_t>> {
};

TEST_P(KernelTableSweep, FixedAccumNtMatchOracle) {
  const auto [isa, arity, len] = GetParam();
  const k::KernelTable& kt = k::kernel_table(isa);
  ASSERT_NE(kt.many, nullptr) << k::isa_name(kt.isa);
  std::vector<std::vector<uint8_t>> srcs;
  std::vector<const uint8_t*> ptrs;
  for (size_t j = 0; j < arity; ++j) {
    srcs.push_back(random_bytes(len, static_cast<uint32_t>(2000 + j)));
    ptrs.push_back(srcs.back().data());
  }
  const auto expected = oracle(srcs, len);

  std::vector<uint8_t> dst(len, 0xEE);
  kt.many(dst.data(), ptrs.data(), arity, len);
  EXPECT_EQ(dst, expected) << "out of place, k=" << arity << " " << k::isa_name(kt.isa);

  // dst ^= srcs...: dst leads the source list, so k + 1 streams.
  auto acc = random_bytes(len, 999);
  std::vector<uint8_t> acc_expected(len);
  for (size_t i = 0; i < len; ++i) acc_expected[i] = static_cast<uint8_t>(acc[i] ^ expected[i]);
  std::vector<const uint8_t*> acc_ptrs{acc.data()};
  acc_ptrs.insert(acc_ptrs.end(), ptrs.begin(), ptrs.end());
  kt.many(acc.data(), acc_ptrs.data(), arity + 1, len);
  EXPECT_EQ(acc, acc_expected) << "accumulate, k=" << arity << " " << k::isa_name(kt.isa);

  // Misaligned destination inside a larger buffer: exact bytes written,
  // none outside [shift, shift + len).
  for (size_t shift : {1, 33}) {
    std::vector<uint8_t> buf(len + 128, 0xEE);
    kt.many(buf.data() + shift, ptrs.data(), arity, len);
    for (size_t i = 0; i < buf.size(); ++i) {
      const bool inside = i >= shift && i < shift + len;
      ASSERT_EQ(buf[i], inside ? expected[i - shift] : 0xEE)
          << "shift " << shift << " i " << i << " k=" << arity << " " << k::isa_name(kt.isa);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, KernelTableSweep,
    ::testing::Combine(::testing::Values(k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2,
                                         k::Isa::Avx512, k::Isa::Neon, k::Isa::Auto),
                       ::testing::Values<size_t>(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values<size_t>(1, 31, 63, 64, 65, 96, 127, 129, 1000,
                                                 4096)),
    kernel_sweep_name);

TEST(KernelTable, DegradesToHostSupport) {
  // Requesting a family the host lacks lands on a runnable fallback, and
  // the table says which one it picked.
  for (k::Isa isa : {k::Isa::Avx2, k::Isa::Avx512, k::Isa::Neon, k::Isa::Auto}) {
    const k::KernelTable& kt = k::kernel_table(isa);
    EXPECT_NE(kt.many, nullptr);
    switch (kt.isa) {
      case k::Isa::Avx2: EXPECT_TRUE(k::cpu_has_avx2()); break;
      case k::Isa::Avx512: EXPECT_TRUE(k::cpu_has_avx512()); break;
      case k::Isa::Neon: EXPECT_TRUE(k::cpu_has_neon()); break;
      case k::Isa::Scalar:
      case k::Isa::Word64: break;
      case k::Isa::Auto: FAIL() << "kernel_table returned unresolved Auto";
    }
  }
}

namespace {

constexpr k::Isa kAllIsas[] = {k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2, k::Isa::Avx512,
                               k::Isa::Neon};

/// dst aliases srcs[pos] exactly: v = s0 ^ .. ^ v ^ .. ^ s(k-1), at a ragged
/// length so every kernel runs its vector body and its tail.
void expect_in_place_safe(k::Isa isa, size_t arity, size_t pos) {
  const size_t len = 777;
  std::vector<std::vector<uint8_t>> srcs;
  std::vector<const uint8_t*> ptrs;
  for (size_t j = 0; j < arity; ++j) {
    srcs.push_back(random_bytes(len, static_cast<uint32_t>(100 * arity + j)));
    ptrs.push_back(srcs.back().data());
  }
  const auto expected = oracle(srcs, len);
  uint8_t* dst = srcs[pos].data();
  k::xor_many(dst, ptrs.data(), arity, len, isa);
  for (size_t i = 0; i < len; ++i)
    ASSERT_EQ(dst[i], expected[i]) << k::isa_name(isa) << " k=" << arity << " dst=srcs["
                                   << pos << "] i " << i;
}

}  // namespace

TEST(Kernel, InPlaceAccumulationIsSafe) {
  // dst aliases the first or a middle source: v ^= x ^ y ..., including
  // arities past the unrolled k <= 8 loops.
  for (k::Isa isa : kAllIsas)
    for (size_t arity : {2u, 3u, 9u, 13u}) {
      expect_in_place_safe(isa, arity, 0);
      expect_in_place_safe(isa, arity, arity / 2);
    }
}

TEST(Kernel, InPlaceAliasingLastSource) {
  for (k::Isa isa : kAllIsas)
    for (size_t arity : {2u, 3u, 9u, 13u}) expect_in_place_safe(isa, arity, arity - 1);
}

TEST(Kernel, MisalignedPointers) {
  // Strips in real fragments land at arbitrary offsets; all ISAs use
  // unaligned loads.
  const size_t len = 512;
  for (k::Isa isa :
       {k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2, k::Isa::Avx512, k::Isa::Neon}) {
    for (size_t shift : {1, 3, 7, 17}) {
      auto a = random_bytes(len + 64, 10);
      auto b = random_bytes(len + 64, 11);
      std::vector<uint8_t> dst(len + 64, 0);
      const uint8_t* srcs[2] = {a.data() + shift, b.data() + 2 * shift};
      k::xor_many(dst.data() + shift, srcs, 2, len, isa);
      for (size_t i = 0; i < len; ++i)
        ASSERT_EQ(dst[shift + i], static_cast<uint8_t>(a[shift + i] ^ b[2 * shift + i]));
    }
  }
}

TEST(Kernel, SingleSourceIsCopy) {
  const auto a = random_bytes(100, 20);
  std::vector<uint8_t> dst(100, 0);
  const uint8_t* srcs[1] = {a.data()};
  k::xor_many(dst.data(), srcs, 1, 100, k::Isa::Auto);
  EXPECT_EQ(dst, a);
}

TEST(Kernel, ZeroLengthIsNoop) {
  std::vector<uint8_t> dst{42};
  const uint8_t* srcs[2] = {dst.data(), dst.data()};
  k::xor_many(dst.data(), srcs, 2, 0, k::Isa::Auto);
  EXPECT_EQ(dst[0], 42);
}

TEST(Kernel, ResolveNeverReturnsNull) {
  for (k::Isa isa : {k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2, k::Isa::Avx512,
                     k::Isa::Neon, k::Isa::Auto})
    EXPECT_NE(k::resolve(isa), nullptr);
}

TEST(Kernel, IsaNamesRoundTrip) {
  for (k::Isa isa : {k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2, k::Isa::Avx512,
                     k::Isa::Neon, k::Isa::Auto}) {
    const auto parsed = k::parse_isa(k::isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(k::parse_isa("sse2").has_value());
  EXPECT_FALSE(k::parse_isa("").has_value());
  EXPECT_FALSE(k::parse_isa(nullptr).has_value());
}

TEST(Kernel, SelfXorEvenTimesIsZero) {
  // Property: x ^ x ^ x ^ x = 0 regardless of kernel.
  const auto a = random_bytes(2048, 30);
  const uint8_t* srcs[4] = {a.data(), a.data(), a.data(), a.data()};
  std::vector<uint8_t> dst(2048, 0xFF);
  k::xor_many(dst.data(), srcs, 4, 2048, k::Isa::Auto);
  for (uint8_t b : dst) ASSERT_EQ(b, 0);
}
