#include "runtime/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/thread_pool.hpp"

namespace xorec::runtime {

namespace {

uint32_t slot_of(const Operand& o, uint32_t num_inputs, uint32_t num_outputs) {
  switch (o.space) {
    case Space::In: return o.index;
    case Space::Out: return num_inputs + o.index;
    case Space::Scratch: return num_inputs + num_outputs + o.index;
  }
  throw std::invalid_argument("Executor: bad operand space");
}

}  // namespace

Executor::Scratch::Scratch(const Executor& ex)
    : arena(ex.num_scratch_, ex.opt_.block_size, ex.opt_.block_size, ex.opt_.stagger_scratch),
      slots(ex.num_inputs_ + ex.num_outputs_ + ex.num_scratch_),
      args(ex.max_arity_) {
  const uint32_t n_moving = ex.num_inputs_ + ex.num_outputs_;
  for (uint32_t s = 0; s < ex.num_scratch_; ++s) slots[n_moving + s] = arena.strip(s);
}

Executor::Executor(const ExecProgram& program, ExecOptions opt)
    : opt_(opt),
      num_inputs_(program.num_inputs),
      num_outputs_(program.num_outputs),
      num_scratch_(program.num_scratch) {
  if (opt_.block_size == 0) throw std::invalid_argument("Executor: block_size == 0");
  if (opt_.threads == 0) opt_.threads = 1;

  const kernel::KernelTable& kt = kernel::kernel_table(opt_.isa);
  kernel_ = kt.many;
  isa_ = kt.isa;

  const uint32_t ni = num_inputs_, no = num_outputs_;
  ops_.reserve(program.ops.size());
  for (const ExecOp& op : program.ops) {
    if (op.dst.space == Space::In)
      throw std::invalid_argument("Executor: write to input space");
    const uint32_t dst = slot_of(op.dst, ni, no);
    if (op.srcs.size() == 1 && slot_of(op.srcs[0], ni, no) == dst) continue;  // self-copy
    const auto arity = static_cast<uint32_t>(op.srcs.size());
    ops_.push_back({dst, static_cast<uint32_t>(arg_slots_.size()), arity});
    for (const Operand& src : op.srcs) arg_slots_.push_back(slot_of(src, ni, no));
    max_arity_ = std::max(max_arity_, arity);
  }

  if (opt_.threads > 1) {
    worker_scratch_.reserve(opt_.threads);
    for (size_t w = 0; w < opt_.threads; ++w)
      worker_scratch_.push_back(std::make_unique<Scratch>(*this));
  } else {
    // Pre-warm one freelist entry so the common single-caller case never
    // allocates inside run().
    free_scratch_.push_back(std::make_unique<Scratch>(*this));
    scratch_allocated_ = 1;
  }
}

std::unique_ptr<Executor::Scratch> Executor::acquire_scratch() const {
  {
    std::lock_guard lk(scratch_mu_);
    ++scratch_in_use_;
    scratch_high_water_ = std::max(scratch_high_water_, scratch_in_use_);
    if (!free_scratch_.empty()) {
      auto s = std::move(free_scratch_.back());
      free_scratch_.pop_back();
      return s;
    }
    ++scratch_allocated_;
  }
  return std::make_unique<Scratch>(*this);
}

void Executor::release_scratch(std::unique_ptr<Scratch> s) const {
  std::lock_guard lk(scratch_mu_);
  --scratch_in_use_;
  // Keep at most high-water arenas parked: a one-off burst of concurrent
  // callers must not pin burst-many arenas for the executor's lifetime.
  if (free_scratch_.size() < std::max<size_t>(scratch_high_water_, 1))
    free_scratch_.push_back(std::move(s));
  else
    ++scratch_dropped_;  // s frees on scope exit
}

ScratchStats Executor::scratch_stats() const {
  std::lock_guard lk(scratch_mu_);
  return {free_scratch_.size(), scratch_high_water_, scratch_allocated_, scratch_dropped_};
}

void Executor::run_range(const uint8_t* const* inputs, uint8_t* const* outputs, size_t begin,
                         size_t end, Scratch& scratch) const {
  const size_t B = opt_.block_size;
  const uint32_t ni = num_inputs_;
  const uint32_t n_moving = ni + num_outputs_;
  uint8_t** slots = scratch.slots.data();
  const uint8_t** args = scratch.args.data();
  const uint32_t* arg_slots = arg_slots_.data();

  // Input slots are never written (the constructor rejects In
  // destinations); the const_cast only unifies the table type.
  for (uint32_t i = 0; i < ni; ++i) slots[i] = const_cast<uint8_t*>(inputs[i]) + begin;
  for (uint32_t o = ni; o < n_moving; ++o) slots[o] = outputs[o - ni] + begin;

  for (size_t off = begin; off < end; off += B) {
    const size_t len = std::min(B, end - off);
    const bool more = off + B < end;
    if (opt_.prefetch_next_block && more) {
      // Pull the next block's input cache lines while this block computes.
      for (uint32_t i = 0; i < ni; ++i) {
        const uint8_t* next = slots[i] + B;
        for (size_t l = 0; l < len; l += 64) __builtin_prefetch(next + l, 0, 1);
      }
    }
    for (const Op& op : ops_) {
      const uint32_t* as = arg_slots + op.arg_base;
      for (uint32_t j = 0; j < op.arity; ++j) args[j] = slots[as[j]];
      kernel_(slots[op.dst], args, op.arity, len);
    }
    // Only while a block follows: past the last one the pointers would
    // leave their strips.
    if (more)
      for (uint32_t s = 0; s < n_moving; ++s) slots[s] += B;
  }
}

void Executor::run(const uint8_t* const* inputs, uint8_t* const* outputs,
                   size_t strip_len) const {
  if (strip_len == 0 || ops_.empty()) return;
  const size_t B = opt_.block_size;

  if (opt_.threads <= 1) {
    auto s = acquire_scratch();
    try {
      run_range(inputs, outputs, 0, strip_len, *s);
    } catch (...) {
      release_scratch(std::move(s));
      throw;
    }
    release_scratch(std::move(s));
    return;
  }

  // Split the strip into per-worker spans of whole blocks. The shared pool
  // serializes overlapping run_on_all calls, so the per-worker arenas are
  // never used by two outer calls at once.
  const size_t n_blocks = (strip_len + B - 1) / B;
  const size_t workers = std::min(opt_.threads, n_blocks);
  const size_t per = (n_blocks + workers - 1) / workers;
  ThreadPool& pool = ThreadPool::shared(workers);
  pool.run_on_all([&](size_t w) {
    if (w >= workers) return;
    const size_t begin = std::min(w * per * B, strip_len);
    const size_t end = std::min((w + 1) * per * B, strip_len);
    if (begin < end) run_range(inputs, outputs, begin, end, *worker_scratch_[w]);
  });
}

}  // namespace xorec::runtime
