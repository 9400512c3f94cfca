// The blocked SLP execution engine (§6.1): runs a compiled program over
// strips in B-byte blocks so all the pebbles of one iteration stay
// cache-resident, with optional thread-level parallelism over the strip
// length.
//
// The constructor resolves the program once into a slot table: every
// operand becomes an index into one flat array of block pointers laid out
// [inputs][outputs][scratch], and every instruction becomes {dst slot,
// offset into one concatenated argument-slot array, arity}. Per block, run()
// gathers each instruction's argument pointers from the slot table into one
// small reused buffer (no per-operand address-space switch, no allocation),
// calls the ISA's xor_many kernel (kernel_table(isa).many — fully unrolled
// for arity <= 8, a source loop beyond), then advances the input/output
// slots by B while the scratch slots stay put.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "kernel/xor_kernel.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/exec_program.hpp"

namespace xorec::runtime {

struct ExecOptions {
  size_t block_size = 2048;               // B of the blocking technique
  kernel::Isa isa = kernel::Isa::Auto;
  size_t threads = 1;                      // 1 = run on the calling thread
  bool stagger_scratch = true;             // §7.4 anti-conflict layout
  /// §8's software-prefetch direction: while executing block i, issue
  /// prefetches for the *input* strips of block i+1 so loads overlap the
  /// in-cache XOR work. 0 disables.
  bool prefetch_next_block = false;
};

/// Executor scratch-freelist counters (see Executor::scratch_stats).
struct ScratchStats {
  size_t free = 0;        // arenas parked in the freelist now
  size_t high_water = 0;  // max concurrently-running run() callers seen
  size_t allocated = 0;   // total arenas ever constructed
  size_t dropped = 0;     // arenas freed instead of parked (freelist at cap)
};

/// Owns the scratch pebble arenas for one compiled program at one block
/// size; reusable across calls. run() is thread-safe: with threads == 1
/// concurrent callers draw private scratch from a freelist (the BatchCoder
/// stripe-parallel path), with threads > 1 concurrent calls serialize on
/// the fork-join pool's per-worker arenas. The freelist is bounded by the
/// high-water concurrency actually observed, so a burst of callers cannot
/// permanently pin burst-many arenas.
class Executor {
 public:
  /// Throws std::invalid_argument for block_size == 0 or an instruction
  /// that writes an input strip.
  Executor(const ExecProgram& program, ExecOptions opt = {});

  const ExecOptions& options() const { return opt_; }

  /// The ISA this executor actually runs (after Auto resolution, host
  /// capability degrade, and the XOREC_FORCE_ISA override).
  kernel::Isa isa() const { return isa_; }

  ScratchStats scratch_stats() const;

  /// inputs:  num_inputs strip pointers, each strip_len bytes.
  /// outputs: num_outputs strip pointers, each strip_len bytes.
  /// Any strip_len is accepted (the last block may be short).
  void run(const uint8_t* const* inputs, uint8_t* const* outputs, size_t strip_len) const;

 private:
  /// One pre-resolved instruction.
  struct Op {
    uint32_t dst = 0;       // slot index
    uint32_t arg_base = 0;  // offset into arg_slots_
    uint32_t arity = 0;
  };

  /// One caller's private state: the pebble arena, the slot table (scratch
  /// slots point into the arena for good) and the per-instruction argument
  /// buffer, so run() never allocates.
  struct Scratch {
    StripArena arena;
    std::vector<uint8_t*> slots;
    std::vector<const uint8_t*> args;
    explicit Scratch(const Executor& ex);
  };

  void run_range(const uint8_t* const* inputs, uint8_t* const* outputs, size_t begin,
                 size_t end, Scratch& scratch) const;
  std::unique_ptr<Scratch> acquire_scratch() const;
  void release_scratch(std::unique_ptr<Scratch> s) const;

  ExecOptions opt_;
  kernel::XorManyFn kernel_;
  kernel::Isa isa_ = kernel::Isa::Scalar;
  uint32_t num_inputs_ = 0, num_outputs_ = 0, num_scratch_ = 0;
  uint32_t max_arity_ = 1;
  std::vector<Op> ops_;
  std::vector<uint32_t> arg_slots_;  // all ops' argument slots, concatenated
  std::vector<std::unique_ptr<Scratch>> worker_scratch_;  // threads > 1 path
  mutable std::mutex scratch_mu_;  // guards the freelist + counters below
  mutable std::vector<std::unique_ptr<Scratch>> free_scratch_;
  mutable size_t scratch_in_use_ = 0;
  mutable size_t scratch_high_water_ = 0;
  mutable size_t scratch_allocated_ = 0;
  mutable size_t scratch_dropped_ = 0;
};

}  // namespace xorec::runtime
