// Span recorder for traced runs. Spans are recorded from the benchmark's
// own files around each call into a layer's public API; the library itself
// is not instrumented. They stay in memory (one vector per thread, no
// locking) and are written out once the run ends.
//
// Span names used by the workloads:
//   op                      root span of one request, carries the op id
//   api.service.submit      ServiceHandle::encode / reconstruct (enqueue)
//   api.service.wait        the returned future's get()
//   ec.plan_lookup          ServiceHandle::plan_reconstruct
//   net.client.call         one net::Client round trip
//   runtime.execute         replay: Codec::encode / ReconstructPlan::execute
//   kernel.xor_many         replay: kernel::xor_many, k = 10 sources
//   net.crc32               replay: net::crc32 over one fragment
//   net.frame_codec         replay: client-side frame build + parse
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Trace {
 public:
  /// `threads` recording slots; slot i may only be used by one thread at a
  /// time. A disabled trace records nothing and costs one branch per span.
  Trace(bool on, size_t threads);

  bool on() const { return on_; }

  /// RAII span on slot `tid`. The parent is the innermost open span on the
  /// same slot; `op` = 0 inherits the parent's op id.
  class Scope {
   public:
    Scope(Trace& t, size_t tid, const char* name, uint64_t op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* t_;
    size_t tid_;
    int64_t idx_ = -1;
  };

  struct Summary {
    size_t count = 0;
    std::vector<double> dur_us;   // span durations
    std::vector<double> self_us;  // durations minus their direct children
  };
  /// Per span name: durations and self times of every closed span.
  std::map<std::string, Summary> summarize() const;

  /// Durations (µs) of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;

  /// Chrome trace-event JSON (open in chrome://tracing or Perfetto).
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t op;
    int64_t parent;  // index into the same slot, -1 for roots
    int64_t t0, t1;  // ns since the trace's origin
  };
  struct Slot {
    std::vector<Span> spans;
    std::vector<int64_t> open;  // stack of open span indices
  };

  int64_t now_ns() const;

  bool on_;
  Clock::time_point origin_;
  std::vector<Slot> slots_;
};

}  // namespace perfbench
