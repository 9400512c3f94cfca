// The three perfbench workloads (README.md has the full definitions):
//
//   object_encode         4 closed-loop callers encode streaming 10 MB
//                         rs(10,4) stripes through one ServiceHandle
//   object_degraded_read  the same shape, reconstructing 1-4 erasures
//                         drawn from 16 seeded patterns
//   wire_packet           2 net::Client connections into an in-process
//                         NetServer over loopback, 40 KiB rs(10,4) objects,
//                         70% encode / 30% reconstruct
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;       // traced run: per-layer metrics instead of end-to-end
  bool setup_only = false;  // measure set-up once, then exit
  std::string trace_out;    // where a traced run writes its spans (optional)
};

/// Run one workload. Throws std::invalid_argument for an unknown name.
Result run_workload(const Options& opt);

}  // namespace perfbench
