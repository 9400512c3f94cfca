// xorec_perfbench: runs one workload against the public xorec API and
// prints one JSON line. run.py builds it, repeats set-up in fresh
// processes and selects the metrics a run reports; see README.md.
//
//   xorec_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--setup-only] [--trace-out FILE]
//
// Exit codes: 0 = outputs correct, 1 = an output mismatched the reference,
// 2 = bad arguments or a failed run, 3 = refused (an XOREC_FORCE_* or
// XOREC_JIT_* override is set, so the numbers would not measure the
// default backends).
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

std::vector<std::string> backend_overrides() {
  std::vector<std::string> found;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("XOREC_FORCE_", 0) == 0 || kv.rfind("XOREC_JIT_", 0) == 0)
      found.push_back(kv.substr(0, kv.find('=')));
  }
  return found;
}

std::string host_descriptor() {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"l2_bytes\":" + std::to_string(l2) + ",\"l3_bytes\":" + std::to_string(l3) +
#ifdef __clang__
         ",\"compiler\":" + json_str(std::string("clang ") + __clang_version__) +
#else
         ",\"compiler\":" + json_str(std::string("gcc ") + __VERSION__) +
#endif
         ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) + "}";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (out.size() > 1) out += ",";
    out += json_str(m.name) + ":{\"value\":" + json_num(m.value) + ",\"unit\":" + json_str(m.unit) + "}";
  }
  return out + "}";
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() != "0";
    else if (a == "--trace-out") opt.trace_out = value();
    else if (a == "--setup-only") opt.setup_only = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer that closes its socket must not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  if (const auto found = backend_overrides(); !found.empty()) {
    std::fprintf(stderr, "xorec_perfbench: refusing to report while backend overrides are set:");
    for (const std::string& name : found) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 3;
  }
  try {
    const Options opt = parse(argc, argv);
    const Result r = run_workload(opt);
    std::string out = "{\"workload\":" + json_str(opt.workload) +
                      ",\"seed\":" + std::to_string(opt.seed) +
                      ",\"trace\":" + (opt.trace ? "true" : "false") +
                      ",\"correct\":" + (r.correct ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(r.attempted) +
                      ",\"failed\":" + std::to_string(r.failed) + ",\"host\":" + host_descriptor() +
                      ",\"e2e\":" + metrics_json(r.e2e) + ",\"layer\":" + metrics_json(r.layer) +
                      ",\"off_path\":[";
    for (size_t i = 0; i < r.off_path.size(); ++i) out += (i ? "," : "") + json_str(r.off_path[i]);
    out += "]";
    for (const auto& [key, raw] : r.info) out += "," + json_str(key) + ":" + raw;
    std::printf("%s}\n", out.c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xorec_perfbench: %s\n", e.what());
    return 2;
  }
}
