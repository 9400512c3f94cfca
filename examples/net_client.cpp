// net_client — drive a running net_server end to end and self-verify:
//
//   phase 1 (TCP): remote-encode a stripe, byte-compare the returned parity
//     against a local encode of the same data; then erase m fragments and
//     remote-reconstruct them (a degraded read served over the wire),
//     byte-comparing the rebuilt fragments against the originals.
//   phase 2 (UDP): stream stripes as strip-packet groups through a seeded
//     loss policy and require every group to be ACKed complete with ZERO
//     retransmissions — lost strips are rebuilt server-side by degraded
//     reads, which the receipt counts.
//
//   ./net_client --port-file ports.txt                  # as written by net_server
//   ./net_client --tcp-port P --udp-port P [--spec S] [--loss 0.15]
//
// Exits 0 only when every byte compared equal and every group was delivered;
// 1 on a failed check or a socket/protocol error, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <random>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "example_util.hpp"
#include "net/client.hpp"
#include "net/datagram.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++g_failures;
}

int run(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string spec = "rs(6,4)";
  std::string port_file;
  int tcp_port = 0, udp_port = 0;
  double loss = 0.15;
  int stripes = 20;
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) host = next("--host");
    else if (std::strcmp(argv[i], "--tcp-port") == 0) tcp_port = std::atoi(next("--tcp-port"));
    else if (std::strcmp(argv[i], "--udp-port") == 0) udp_port = std::atoi(next("--udp-port"));
    else if (std::strcmp(argv[i], "--port-file") == 0) port_file = next("--port-file");
    else if (std::strcmp(argv[i], "--spec") == 0) spec = next("--spec");
    else if (std::strcmp(argv[i], "--loss") == 0) loss = std::atof(next("--loss"));
    else if (std::strcmp(argv[i], "--stripes") == 0) stripes = std::atoi(next("--stripes"));
    else if (std::strcmp(argv[i], "--seed") == 0) seed = std::strtoull(next("--seed"), nullptr, 10);
    else {
      std::fprintf(stderr,
                   "usage: net_client (--port-file PATH | --tcp-port P --udp-port P)\n"
                   "                  [--host H] [--spec S] [--loss R] [--stripes N] [--seed S]\n");
      return 2;
    }
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "r");
    if (!f || std::fscanf(f, "%d %d", &tcp_port, &udp_port) != 2) {
      std::fprintf(stderr, "net_client: cannot read ports from %s\n", port_file.c_str());
      return 2;
    }
    std::fclose(f);
  }
  if (tcp_port <= 0 || udp_port <= 0) {
    std::fprintf(stderr, "net_client: need --port-file or --tcp-port/--udp-port\n");
    return 2;
  }

  const auto codec = xorec::make_codec(spec);
  const uint32_t k = codec->data_fragments();
  const uint32_t m = codec->parity_fragments();
  const size_t frag_len = 4096;  // multiple of every family's fragment_multiple

  std::mt19937_64 rng(seed);
  std::vector<std::vector<uint8_t>> data(k);
  std::vector<const uint8_t*> data_ptrs(k);
  for (uint32_t i = 0; i < k; ++i) {
    data[i].resize(frag_len);
    for (auto& b : data[i]) b = static_cast<uint8_t>(rng());
    data_ptrs[i] = data[i].data();
  }

  std::printf("net_client: %s over tcp %s:%d + udp %s:%d\n", spec.c_str(),
              host.c_str(), tcp_port, host.c_str(), udp_port);

  // ---- phase 1: TCP encode + degraded read ---------------------------------
  std::printf("phase 1: TCP encode + remote degraded read\n");
  xorec::net::Client client(host, static_cast<uint16_t>(tcp_port));
  client.ping();
  check(true, "ping round-trip");

  std::vector<std::vector<uint8_t>> parity(m, std::vector<uint8_t>(frag_len));
  std::vector<uint8_t*> parity_ptrs(m);
  for (uint32_t i = 0; i < m; ++i) parity_ptrs[i] = parity[i].data();
  client.encode(spec, data_ptrs.data(), k, parity_ptrs.data(), m, frag_len);

  std::vector<std::vector<uint8_t>> local_parity(m, std::vector<uint8_t>(frag_len));
  std::vector<uint8_t*> local_parity_ptrs(m);
  for (uint32_t i = 0; i < m; ++i) local_parity_ptrs[i] = local_parity[i].data();
  codec->encode(data_ptrs.data(), local_parity_ptrs.data(), frag_len);
  bool parity_ok = true;
  for (uint32_t i = 0; i < m; ++i)
    parity_ok = parity_ok && parity[i] == local_parity[i];
  check(parity_ok, "remote parity byte-identical to local encode");

  // Erase the first m fragments and ask the server to rebuild them from the
  // survivors — the wire-served degraded read.
  std::vector<uint32_t> erased, available;
  for (uint32_t i = 0; i < m; ++i) erased.push_back(i);
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t i = m; i < k; ++i) {
    available.push_back(i);
    avail_ptrs.push_back(data[i].data());
  }
  for (uint32_t i = 0; i < m; ++i) {
    available.push_back(k + i);
    avail_ptrs.push_back(parity[i].data());
  }
  std::vector<std::vector<uint8_t>> rebuilt(erased.size(), std::vector<uint8_t>(frag_len));
  std::vector<uint8_t*> rebuilt_ptrs(erased.size());
  for (size_t i = 0; i < erased.size(); ++i) rebuilt_ptrs[i] = rebuilt[i].data();
  client.reconstruct(spec, available, avail_ptrs.data(), erased, rebuilt_ptrs.data(),
                     frag_len);
  bool rebuilt_ok = true;
  for (size_t i = 0; i < erased.size(); ++i)
    rebuilt_ok = rebuilt_ok && rebuilt[i] == data[erased[i]];
  check(rebuilt_ok, "remotely rebuilt fragments byte-identical to originals");

  bool graceful = false;
  try {
    client.ping();  // connection still usable
    xorec::net::Client bad(host, static_cast<uint16_t>(tcp_port));
    std::vector<uint8_t> junk(frag_len);
    const uint8_t* junk_ptr = junk.data();
    uint8_t* out_ptr = junk.data();
    bad.encode("bogus(3,2)", &junk_ptr, 1, &out_ptr, 0, frag_len);
  } catch (const std::exception&) {
    graceful = true;
  }
  check(graceful, "bad spec answered with a clean Error frame");

  // ---- phase 2: UDP stripes under seeded loss ------------------------------
  std::printf("phase 2: UDP stripe groups, %.0f%% injected loss, seed %llu\n",
              loss * 100.0, static_cast<unsigned long long>(seed));
  xorec::CodecService local_service;  // only for the sender's parity encodes
  const int fd = xorec::net::open_udp_socket("0.0.0.0", 0);
  xorec::net::DatagramSender sender(
      fd, xorec::net::udp_address(host, static_cast<uint16_t>(udp_port)),
      local_service.acquire(spec), xorec::net::LossPolicy{loss, seed});

  int complete = 0, degraded = 0;
  for (int s = 0; s < stripes; ++s) {
    const uint64_t group = sender.send_stripe(data_ptrs.data(), frag_len);
    const auto ack = xorec::net::recv_ack(fd, 2000);
    if (ack && ack->group == group && ack->status == xorec::net::GroupAck::kComplete) {
      ++complete;
      if (ack->strips_reconstructed > 0) ++degraded;
    }
  }
  const auto& st = sender.stats();
  std::printf("  stripes %d: delivered %d, degraded reads %d, strips dropped %zu\n",
              stripes, complete, degraded, st.packets_dropped);
  check(complete == stripes, "every group delivered despite injected loss");
  check(st.retransmissions == 0, "zero retransmissions (EC recovery only)");
  if (loss > 0.0)
    check(st.packets_dropped > 0 && degraded > 0,
          "loss actually injected and recovered by degraded reads");
  xorec::net::close_socket(fd);

  if (g_failures) {
    std::printf("net_client: %d FAILURE(S)\n", g_failures);
    return 1;
  }
  std::printf("net_client: all checks passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (xorec::examples::handle_list_codecs(argc, argv)) return 0;
  // Socket and protocol failures (refused connection, response timeout, an
  // Error frame) surface as exceptions; report them instead of aborting.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "net_client: %s\n", e.what());
    return 1;
  }
}
