// Compilation of an SLP into a pointer-space execution program.
//
// Address spaces:
//   In      — input strips (the SLP's constants),
//   Out     — output strips (goal values are written straight to the user's
//             buffers; no final copy),
//   Scratch — per-run B-byte buffers backing non-goal pebbles.
//
// A variable that appears in `outputs` is pinned to its output strip for
// *every* assignment (pebble programs may stage dead temporaries through an
// output buffer before the final value lands there — harmless, the last
// write wins and intermediate reads are resolved consistently).
#pragma once

#include <cstdint>
#include <vector>

#include "slp/program.hpp"

namespace xorec::runtime {

enum class Space : uint8_t { In = 0, Out = 1, Scratch = 2 };

struct Operand {
  Space space;
  uint32_t index;
};

struct ExecOp {
  Operand dst;
  std::vector<Operand> srcs;
};

struct ExecProgram {
  std::vector<ExecOp> ops;
  uint32_t num_inputs = 0;
  uint32_t num_outputs = 0;
  uint32_t num_scratch = 0;
};

/// Lower an SLP (any stage/form) to the execution program. A variable listed
/// several times in outputs is rejected (the runtime cannot write one value
/// to two strips without a copy; callers never need this).
ExecProgram compile(const slp::Program& p);

}  // namespace xorec::runtime
