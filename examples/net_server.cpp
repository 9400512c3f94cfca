// net_server — stand up the network serving front-end over a CodecService.
//
//   ./net_server                          # ephemeral ports, printed on stdout
//   ./net_server --tcp-port 9901 --udp-port 9902
//   ./net_server --monitor-port 9903      # HTTP /metrics + /stats.json
//   ./net_server --monitor-port 0        # monitor on an ephemeral port
//   ./net_server --sample-ms 100 --sample-window 64   # sampler ring knobs
//   ./net_server --port-file ports.txt    # write "tcp udp [monitor]\n"
//   ./net_server --seconds 30             # serve for N seconds, then report
//
// --monitor-port (even 0) enables the observability stack: a
// MetricsRegistry over the service and server, a Sampler ring for windowed
// rates, and the HTTP MonitorServer. Without the flag none of it runs.
//
// Serves until --seconds elapse (default: forever, SIGINT/SIGTERM to stop),
// then prints the serving report: requests, degraded reads, backpressure
// stalls and the per-pool net counters from ServiceStats.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "api/service.hpp"
#include "example_util.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/sampler.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  if (xorec::examples::handle_list_codecs(argc, argv)) return 0;

  xorec::net::ServerOptions opt;
  xorec::obs::MonitorOptions mon_opt;
  xorec::obs::SamplerOptions sam_opt;
  bool monitor = false;
  std::string port_file;
  int seconds = 0;  // 0 = run until signaled
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--tcp-port") == 0)
      opt.tcp_port = static_cast<uint16_t>(std::atoi(next("--tcp-port")));
    else if (std::strcmp(argv[i], "--udp-port") == 0)
      opt.udp_port = static_cast<uint16_t>(std::atoi(next("--udp-port")));
    else if (std::strcmp(argv[i], "--host") == 0)
      opt.host = next("--host");
    else if (std::strcmp(argv[i], "--monitor-port") == 0) {
      monitor = true;
      mon_opt.port = static_cast<uint16_t>(std::atoi(next("--monitor-port")));
    } else if (std::strcmp(argv[i], "--sample-ms") == 0)
      sam_opt.interval = std::chrono::milliseconds(std::atoi(next("--sample-ms")));
    else if (std::strcmp(argv[i], "--sample-window") == 0)
      sam_opt.capacity = static_cast<size_t>(std::atoi(next("--sample-window")));
    else if (std::strcmp(argv[i], "--port-file") == 0)
      port_file = next("--port-file");
    else if (std::strcmp(argv[i], "--seconds") == 0)
      seconds = std::atoi(next("--seconds"));
    else {
      std::fprintf(stderr,
                   "usage: net_server [--host H] [--tcp-port P] [--udp-port P]\n"
                   "                  [--monitor-port P] [--sample-ms N] [--sample-window N]\n"
                   "                  [--port-file PATH] [--seconds N]\n");
      return 2;
    }
  }

  xorec::CodecService service;
  xorec::net::NetServer server(service, opt);

  // The observability stack (only with --monitor-port): registry over both
  // counter surfaces, sampler ring for windowed rates, HTTP endpoint.
  // Declared in this order so teardown runs monitor -> sampler -> registry.
  xorec::obs::MetricsRegistry registry;
  std::unique_ptr<xorec::obs::Sampler> sampler;
  std::unique_ptr<xorec::obs::MonitorServer> monitor_server;
  if (monitor) {
    registry.attach(service);
    registry.attach(server);
    sampler = std::make_unique<xorec::obs::Sampler>(registry, sam_opt);
    sampler->start();
    mon_opt.host = opt.host;
    monitor_server = std::make_unique<xorec::obs::MonitorServer>(registry, mon_opt);
    monitor_server->start();
  }

  server.start();
  std::printf("net_server: tcp %s:%u  udp %s:%u\n", opt.host.c_str(),
              server.tcp_port(), opt.host.c_str(), server.udp_port());
  if (monitor_server)
    std::printf("net_server: monitor http://%s:%u  (/metrics, /stats.json)\n",
                opt.host.c_str(), monitor_server->port());
  std::fflush(stdout);

  if (!port_file.empty()) {
    // Written after start(): the ports are live by the time the file exists,
    // so a script can poll for the file and connect immediately. The third
    // field is the monitor port (net_client's "%d %d" scan ignores it).
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "net_server: cannot write %s\n", port_file.c_str());
      return 1;
    }
    if (monitor_server)
      std::fprintf(f, "%u %u %u\n", server.tcp_port(), server.udp_port(),
                   monitor_server->port());
    else
      std::fprintf(f, "%u %u\n", server.tcp_port(), server.udp_port());
    std::fclose(f);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!g_stop && (seconds == 0 || std::chrono::steady_clock::now() < deadline))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  if (monitor_server) monitor_server->stop();
  if (sampler) sampler->stop();

  const xorec::net::NetServerStats s = server.stats();
  std::printf("\nserving report\n");
  std::printf("  connections accepted   %zu\n", s.connections_accepted);
  std::printf("  tcp requests/responses %zu / %zu (errors %zu)\n", s.requests,
              s.responses, s.errors);
  std::printf("  tcp bytes in/out       %llu / %llu\n",
              static_cast<unsigned long long>(s.tcp_bytes_in),
              static_cast<unsigned long long>(s.tcp_bytes_out));
  std::printf("  backpressure stalls    %zu\n", s.backpressure_stalls);
  std::printf("  udp groups             %zu (degraded reads %zu, unrecoverable %zu)\n",
              s.udp_groups, s.udp_degraded_reads, s.udp_unrecoverable);
  if (monitor_server) {
    const xorec::obs::MonitorStats ms = monitor_server->stats();
    std::printf("  monitor scrapes        %zu (bad requests %zu)\n", ms.requests,
                ms.bad_requests);
  }
  std::printf("\nper-pool net traffic\n");
  for (const auto& pool : service.stats().pools)
    std::printf("  %-40s net_requests %zu  in %llu  out %llu\n", pool.spec.c_str(),
                pool.net_requests, static_cast<unsigned long long>(pool.net_bytes_in),
                static_cast<unsigned long long>(pool.net_bytes_out));
  return 0;
}
