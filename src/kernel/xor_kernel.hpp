// Multi-input XOR kernels: the execution substrate for fused SLP®⊕
// instructions (§5) and the xor1/xor32 variants of §7.2.
//
// Contract of xor_many:
//   dst[0..len) = srcs[0] ^ srcs[1] ^ ... ^ srcs[k-1]   (k >= 1)
// - single pass: each source stream is read once, dst written once
//   (#M = k + 1 in the paper's model);
// - dst may be exactly equal to any srcs[i] (in-place accumulation); partial
//   overlap is undefined behaviour;
// - arbitrary len and alignment.
//
// Each ISA has one entry point of this shape. It switches on k to a fully
// unrolled loop for k <= 8 and runs a generic source loop beyond, so callers
// never pick a call form: the executor binds every instruction to
// kernel_table(isa).many.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace xorec::kernel {

enum class Isa : uint8_t {
  Scalar,  // byte-at-a-time (the paper's xor1)
  Word64,  // uint64 at a time, 4x unrolled
  Avx2,    // 32-byte SIMD (the paper's xor32); falls back if unsupported
  Avx512,  // 64-byte SIMD; falls back to Avx2/Word64 if unsupported
  Neon,    // 16-byte SIMD on aarch64; falls back to Word64 elsewhere
  Auto,    // best available
};

using XorManyFn = void (*)(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len);

/// One ISA's kernel: `many` is its xor_many implementation.
struct KernelTable {
  Isa isa = Isa::Scalar;  // the ISA actually implemented (post-degrade)
  XorManyFn many = nullptr;
};

/// Kernel for the requested ISA, degraded to the best supported one
/// (Avx512 -> Avx2 -> Word64; Neon -> Word64 off-ARM) and clamped by the
/// XOREC_FORCE_ISA override when set. table.isa names the selection.
const KernelTable& kernel_table(Isa isa);

/// Best variadic implementation for the requested ISA — kernel_table(isa).many.
XorManyFn resolve(Isa isa);

/// One-shot convenience.
void xor_many(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len,
              Isa isa = Isa::Auto);

/// CPU feature probes, memoized on first call (__builtin_cpu_supports used
/// to run on every resolve()).
bool cpu_has_avx2();
bool cpu_has_avx512();
bool cpu_has_neon();

/// The XOREC_FORCE_ISA override (parsed from the environment once, on first
/// dispatch): when set, EVERY resolution — Auto and explicit requests alike —
/// lands on this ISA (still degraded to what the host can execute), so the
/// full dispatch surface is testable on any machine. nullopt = no override.
std::optional<Isa> forced_isa();
/// Test hook: replace the override for the current process (nullopt restores
/// "no override", NOT the environment value). Not thread-safe against
/// in-flight resolves; call from single-threaded test setup only.
void set_forced_isa_for_testing(std::optional<Isa> isa);

const char* isa_name(Isa isa);
/// Inverse of isa_name for the spec grammar / XOREC_FORCE_ISA values;
/// nullopt for unknown names.
std::optional<Isa> parse_isa(const char* name);

// Implementations (exposed for tests/benches; prefer kernel_table()).
void xor_many_scalar(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len);
void xor_many_word64(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len);
const KernelTable& scalar_table();
const KernelTable& word64_table();
#if defined(XOREC_HAVE_AVX2)
void xor_many_avx2(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len);
const KernelTable& avx2_table();
#endif
#if defined(XOREC_HAVE_AVX512)
void xor_many_avx512(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len);
const KernelTable& avx512_table();
#endif
#if defined(XOREC_HAVE_NEON)
void xor_many_neon(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len);
const KernelTable& neon_table();
#endif

}  // namespace xorec::kernel
