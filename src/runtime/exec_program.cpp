#include "runtime/exec_program.hpp"

#include <stdexcept>

namespace xorec::runtime {

ExecProgram compile(const slp::Program& p) {
  p.validate();
  ExecProgram e;
  e.num_inputs = p.num_consts;
  e.num_outputs = static_cast<uint32_t>(p.outputs.size());

  // Variable -> fixed location. Outputs pin their variable; the rest get a
  // scratch slot on first assignment.
  constexpr uint32_t kUnset = UINT32_MAX;
  std::vector<uint32_t> out_slot(p.num_vars, kUnset);
  for (uint32_t i = 0; i < p.outputs.size(); ++i) {
    if (out_slot[p.outputs[i]] != kUnset)
      throw std::invalid_argument("compile: variable returned twice");
    out_slot[p.outputs[i]] = i;
  }
  std::vector<uint32_t> scratch_slot(p.num_vars, kUnset);

  auto loc_of = [&](uint32_t var) -> Operand {
    if (out_slot[var] != kUnset) return {Space::Out, out_slot[var]};
    if (scratch_slot[var] == kUnset) scratch_slot[var] = e.num_scratch++;
    return {Space::Scratch, scratch_slot[var]};
  };

  e.ops.reserve(p.body.size());
  for (const slp::Instruction& ins : p.body) {
    ExecOp op;
    op.srcs.reserve(ins.args.size());
    for (const slp::Term& t : ins.args) {
      if (t.is_const()) {
        op.srcs.push_back({Space::In, t.id});
      } else {
        op.srcs.push_back(loc_of(t.id));
      }
    }
    op.dst = loc_of(ins.target);
    e.ops.push_back(std::move(op));
  }
  return e;
}

}  // namespace xorec::runtime
