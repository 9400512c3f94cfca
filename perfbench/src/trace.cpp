#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

Trace::Trace(bool on, size_t threads) : on_(on), origin_(Clock::now()), slots_(threads) {
  if (on_)
    for (Slot& s : slots_) s.spans.reserve(1 << 16);
}

int64_t Trace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

Trace::Scope::Scope(Trace& t, size_t tid, const char* name, uint64_t op) : t_(&t), tid_(tid) {
  if (!t.on_) return;
  Slot& s = t.slots_[tid];
  const int64_t parent = s.open.empty() ? -1 : s.open.back();
  if (op == 0 && parent >= 0) op = s.spans[static_cast<size_t>(parent)].op;
  idx_ = static_cast<int64_t>(s.spans.size());
  s.spans.push_back({name, op, parent, t.now_ns(), -1});
  s.open.push_back(idx_);
}

Trace::Scope::~Scope() {
  if (idx_ < 0) return;
  Slot& s = t_->slots_[tid_];
  s.spans[static_cast<size_t>(idx_)].t1 = t_->now_ns();
  s.open.pop_back();
}

std::map<std::string, Trace::Summary> Trace::summarize() const {
  std::map<std::string, Summary> out;
  for (const Slot& slot : slots_) {
    // Children close before their parent and never overlap each other on
    // one slot, so a parent's self time is its duration minus the sum of
    // its direct children's durations.
    std::vector<int64_t> child_ns(slot.spans.size(), 0);
    for (const Span& sp : slot.spans)
      if (sp.t1 >= 0 && sp.parent >= 0)
        child_ns[static_cast<size_t>(sp.parent)] += sp.t1 - sp.t0;
    for (size_t i = 0; i < slot.spans.size(); ++i) {
      const Span& sp = slot.spans[i];
      if (sp.t1 < 0) continue;
      Summary& s = out[sp.name];
      ++s.count;
      s.dur_us.push_back(static_cast<double>(sp.t1 - sp.t0) / 1e3);
      s.self_us.push_back(static_cast<double>(sp.t1 - sp.t0 - child_ns[i]) / 1e3);
    }
  }
  return out;
}

std::vector<double> Trace::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Slot& slot : slots_)
    for (const Span& sp : slot.spans)
      if (sp.t1 >= 0 && name == sp.name) out.push_back(static_cast<double>(sp.t1 - sp.t0) / 1e3);
  return out;
}

bool Trace::write_chrome(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fputs("{\"traceEvents\":[", f.get());
  bool first = true;
  for (size_t tid = 0; tid < slots_.size(); ++tid)
    for (const Span& sp : slots_[tid].spans) {
      if (sp.t1 < 0) continue;
      std::fprintf(f.get(),
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                   first ? "" : ",", sp.name, tid, static_cast<double>(sp.t0) / 1e3,
                   static_cast<double>(sp.t1 - sp.t0) / 1e3,
                   static_cast<unsigned long long>(sp.op));
      first = false;
    }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
