// NetServer + net::Client over real loopback TCP (plus the server's shared
// UDP socket): remote encode matches local encode byte for byte, remote
// reconstruct is a wire-served degraded read, malformed and unsatisfiable
// requests come back as clean Error frames on a connection that stays
// usable, the per-pool ServiceStats net counters see the traffic, global
// backpressure parks pipelined requests without losing one, and a peer that
// resets mid-response costs only its own connection.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/service.hpp"
#include "net/client.hpp"
#include "net/datagram.hpp"
#include "net/server.hpp"

using namespace xorec;
using namespace xorec::net;

namespace {

constexpr uint32_t kK = 6, kM = 4;
constexpr size_t kFragLen = 1024;
const char* kSpec = "rs(6,4)";

std::vector<std::vector<uint8_t>> make_data() {
  std::vector<std::vector<uint8_t>> data(kK, std::vector<uint8_t>(kFragLen));
  uint64_t x = 0xBEEF;
  for (auto& frag : data)
    for (auto& b : frag) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<uint8_t>(x);
    }
  return data;
}

/// A blocking loopback TCP connection for speaking the frame protocol
/// directly (net::Client keeps one request on the wire; these pipeline).
int connect_tcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool read_exact(int fd, uint8_t* out, size_t len, int timeout_ms) {
  size_t off = 0;
  while (off < len) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    const ssize_t n = ::read(fd, out + off, len - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Server + started lifetime for one test.
struct ServerFixture {
  CodecService service;
  NetServer server;
  ServerFixture() : server(service, {}) { server.start(); }
  ~ServerFixture() { server.stop(); }
};

}  // namespace

TEST(NetServer, PortsAreBoundBeforeStart) {
  CodecService service;
  NetServer server(service, {});
  // Ephemeral ports are resolved at construction — known before serving.
  EXPECT_GT(server.tcp_port(), 0);
  EXPECT_GT(server.udp_port(), 0);
  server.start();
  server.stop();
  server.stop();  // idempotent
}

TEST(NetServer, RestartedServerStillDeliversResponses) {
  // Regression: stop() latches the completion-thread stop flag; before
  // start() learned to reset it, a restarted server's completion thread
  // exited immediately and encode responses were never delivered. Ping is
  // answered inline by the event loop, so only a codec request (whose
  // response rides the completion thread) can detect this — run it with a
  // timeout so a regressed build fails instead of hanging forever.
  CodecService service;
  NetServer server(service, {});
  server.start();
  server.stop();
  server.start();  // the restart under test

  struct EncodeState {
    std::vector<std::vector<uint8_t>> data = make_data();
    std::vector<const uint8_t*> data_ptrs;
    std::vector<std::vector<uint8_t>> out{kM, std::vector<uint8_t>(kFragLen)};
    std::vector<uint8_t*> out_ptrs;
  };
  auto st = std::make_shared<EncodeState>();
  for (uint32_t i = 0; i < kK; ++i) st->data_ptrs.push_back(st->data[i].data());
  for (uint32_t i = 0; i < kM; ++i) st->out_ptrs.push_back(st->out[i].data());

  auto done = std::make_shared<std::promise<bool>>();
  std::future<bool> fut = done->get_future();
  const uint16_t port = server.tcp_port();
  // Detached + shared state: if the encode wedges (the pre-fix behavior),
  // the thread must not dangle into destroyed stack frames while we report
  // the failure; server.stop() below closes the connection, the client
  // throws, and the thread finishes against its shared copy.
  std::thread([st, done, port] {
    try {
      Client client("127.0.0.1", port);
      client.encode(kSpec, st->data_ptrs.data(), kK, st->out_ptrs.data(), kM, kFragLen);
      done->set_value(true);
    } catch (...) {
      done->set_value(false);
    }
  }).detach();

  if (fut.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "encode against a restarted server never completed "
                     "(completion thread dead?)";
    server.stop();  // closes the connection; the client throws and the thread ends
    (void)fut.wait_for(std::chrono::seconds(10));
    return;
  }
  EXPECT_TRUE(fut.get()) << "encode against a restarted server failed";

  // The restarted server computed real parity, not garbage.
  const auto codec = make_codec(kSpec);
  std::vector<std::vector<uint8_t>> local(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> local_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) local_ptrs[i] = local[i].data();
  codec->encode(st->data_ptrs.data(), local_ptrs.data(), kFragLen);
  for (uint32_t i = 0; i < kM; ++i) EXPECT_EQ(st->out[i], local[i]) << "parity " << i;
  server.stop();
}

TEST(NetServer, PingAndRemoteEncodeMatchLocal) {
  ServerFixture fx;
  Client client("127.0.0.1", fx.server.tcp_port());
  client.ping();

  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();

  std::vector<std::vector<uint8_t>> remote(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> remote_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) remote_ptrs[i] = remote[i].data();
  client.encode(kSpec, data_ptrs.data(), kK, remote_ptrs.data(), kM, kFragLen);

  const auto codec = make_codec(kSpec);
  std::vector<std::vector<uint8_t>> local(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> local_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) local_ptrs[i] = local[i].data();
  codec->encode(data_ptrs.data(), local_ptrs.data(), kFragLen);

  for (uint32_t i = 0; i < kM; ++i) EXPECT_EQ(remote[i], local[i]) << "parity " << i;

  const NetServerStats stats = fx.server.stats();
  EXPECT_GE(stats.requests, 1u);
  EXPECT_GE(stats.responses, 2u);  // pong + encode response
  EXPECT_GT(stats.tcp_bytes_in, 0u);
  EXPECT_GT(stats.tcp_bytes_out, 0u);

  // The per-pool net counters saw exactly this pool's traffic.
  bool seen = false;
  for (const auto& pool : fx.service.stats().pools)
    if (pool.spec == kSpec) {
      seen = true;
      EXPECT_GE(pool.net_requests, 1u);
      EXPECT_GT(pool.net_bytes_in, 0u);
      EXPECT_GT(pool.net_bytes_out, 0u);
    }
  EXPECT_TRUE(seen);
}

TEST(NetServer, RemoteReconstructIsAWireServedDegradedRead) {
  ServerFixture fx;
  Client client("127.0.0.1", fx.server.tcp_port());

  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();
  const auto codec = make_codec(kSpec);
  std::vector<std::vector<uint8_t>> parity(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> parity_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) parity_ptrs[i] = parity[i].data();
  codec->encode(data_ptrs.data(), parity_ptrs.data(), kFragLen);

  // Erase data strips 0 and 3; ship everything else as survivors.
  const std::vector<uint32_t> erased{0, 3};
  std::vector<uint32_t> available;
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t i = 0; i < kK; ++i)
    if (i != 0 && i != 3) {
      available.push_back(i);
      avail_ptrs.push_back(data[i].data());
    }
  for (uint32_t i = 0; i < kM; ++i) {
    available.push_back(kK + i);
    avail_ptrs.push_back(parity[i].data());
  }

  std::vector<std::vector<uint8_t>> rebuilt(2, std::vector<uint8_t>(kFragLen, 0xEE));
  std::vector<uint8_t*> out_ptrs{rebuilt[0].data(), rebuilt[1].data()};
  client.reconstruct(kSpec, available, avail_ptrs.data(), erased, out_ptrs.data(),
                     kFragLen);
  EXPECT_EQ(rebuilt[0], data[0]);
  EXPECT_EQ(rebuilt[1], data[3]);
}

TEST(NetServer, ErrorsAreCleanAndTheConnectionSurvives) {
  ServerFixture fx;
  Client client("127.0.0.1", fx.server.tcp_port());
  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();
  std::vector<std::vector<uint8_t>> out(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> out_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) out_ptrs[i] = out[i].data();

  // Unknown spec: the server's Error frame becomes the exception text.
  EXPECT_THROW(
      client.encode("bogus(3,2)", data_ptrs.data(), kK, out_ptrs.data(), kM, kFragLen),
      std::runtime_error);

  // frag_len violating the codec's geometry: rejected, not crashed.
  EXPECT_THROW(client.encode(kSpec, data_ptrs.data(), kK, out_ptrs.data(), kM, 100),
               std::runtime_error);

  // More erasures than the code tolerates: plan_reconstruct's refusal
  // travels back as an Error frame.
  std::vector<uint32_t> available{5};
  const uint8_t* avail_ptrs[] = {data[5].data()};
  std::vector<uint32_t> erased{0, 1, 2, 3, 4};
  std::vector<std::vector<uint8_t>> rebuilt(5, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> rebuilt_ptrs(5);
  for (size_t i = 0; i < 5; ++i) rebuilt_ptrs[i] = rebuilt[i].data();
  EXPECT_THROW(client.reconstruct(kSpec, available, avail_ptrs, erased,
                                  rebuilt_ptrs.data(), kFragLen),
               std::runtime_error);

  // After three rejected requests the connection is still serving.
  client.ping();
  client.encode(kSpec, data_ptrs.data(), kK, out_ptrs.data(), kM, kFragLen);
  EXPECT_GE(fx.server.stats().errors, 3u);
}

TEST(NetServer, ManySequentialRequestsAndSecondClient) {
  ServerFixture fx;
  Client a("127.0.0.1", fx.server.tcp_port());
  Client b("127.0.0.1", fx.server.tcp_port());
  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();
  std::vector<std::vector<uint8_t>> out(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> out_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) out_ptrs[i] = out[i].data();

  for (int round = 0; round < 16; ++round) {
    Client& c = round & 1 ? b : a;
    c.encode(kSpec, data_ptrs.data(), kK, out_ptrs.data(), kM, kFragLen);
  }
  const NetServerStats stats = fx.server.stats();
  EXPECT_GE(stats.connections_accepted, 2u);
  EXPECT_GE(stats.requests, 16u);
}

TEST(NetServer, UdpGroupsAreServedOnTheSharedSocket) {
  ServerFixture fx;
  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();

  CodecService sender_service;  // sender-side parity encodes only
  const int fd = open_udp_socket("127.0.0.1", 0);
  DatagramSender sender(fd, udp_address("127.0.0.1", fx.server.udp_port()),
                        sender_service.acquire(kSpec), LossPolicy{0.15, 42});

  const int kStripes = 10;
  int complete = 0, degraded = 0;
  for (int s = 0; s < kStripes; ++s) {
    const uint64_t group = sender.send_stripe(data_ptrs.data(), kFragLen);
    const auto ack = recv_ack(fd, 2000);
    ASSERT_TRUE(ack.has_value()) << "stripe " << s;
    EXPECT_EQ(ack->group, group);
    if (ack->status == GroupAck::kComplete) {
      ++complete;
      if (ack->strips_reconstructed > 0) ++degraded;
    }
  }
  close_socket(fd);

  EXPECT_EQ(complete, kStripes);
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(sender.stats().retransmissions, 0u);
  const NetServerStats stats = fx.server.stats();
  EXPECT_EQ(stats.udp_groups, static_cast<size_t>(kStripes));
  EXPECT_EQ(stats.udp_unrecoverable, 0u);
  EXPECT_GE(stats.udp_degraded_reads, static_cast<size_t>(degraded));
}

TEST(NetServer, GlobalBackpressureParksPipelinedRequestsAndAnswersEveryOne) {
  // One single-worker shard and max_queue_depth = 1: while one request's
  // job runs, every other parsed request must park (reads paused) and be
  // retried, never dropped or answered with the wrong bytes.
  CodecService::Options sopt;
  sopt.shards = 1;
  sopt.workers_per_shard = 1;
  CodecService service(sopt);
  ServerOptions opt;
  opt.max_queue_depth = 1;
  NetServer server(service, opt);
  server.start();

  // The slowest configuration (unoptimized program, byte-wise kernel) keeps
  // each job running long enough for the other connection's request to
  // arrive behind it.
  const std::string spec = "rs(6,4)@passes=base,isa=scalar";
  constexpr size_t kConns = 2, kPerConn = 4, kFrag = 256 << 10;
  const auto codec = make_codec(spec);

  struct Request {
    std::vector<std::vector<uint8_t>> data, parity;
    std::vector<uint8_t> frame;
  };
  std::vector<std::vector<Request>> reqs(kConns, std::vector<Request>(kPerConn));
  uint64_t x = 0xBACC;
  for (size_t c = 0; c < kConns; ++c)
    for (size_t r = 0; r < kPerConn; ++r) {
      Request& q = reqs[c][r];
      q.data.assign(kK, std::vector<uint8_t>(kFrag));
      q.parity.assign(kM, std::vector<uint8_t>(kFrag));
      std::vector<const uint8_t*> d;
      std::vector<uint8_t*> p;
      for (auto& frag : q.data) {
        for (auto& b : frag) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          b = static_cast<uint8_t>(x);
        }
        d.push_back(frag.data());
      }
      for (auto& frag : q.parity) p.push_back(frag.data());
      codec->encode(d.data(), p.data(), kFrag);
      FrameHeader h;
      h.type = FrameType::EncodeRequest;
      h.request_id = r + 1;
      h.k = kK;
      h.frag_len = kFrag;
      h.present_bitmap = (uint64_t{1} << kK) - 1;
      h.payload_count = kK;
      q.frame = build_frame(h, spec, d.data());
    }

  std::atomic<size_t> correct{0};
  std::vector<std::thread> conns;
  for (size_t c = 0; c < kConns; ++c)
    conns.emplace_back([&, c] {
      const int fd = connect_tcp(server.tcp_port());
      ASSERT_GE(fd, 0);
      // Pipeline: every request goes out before any response is read.
      std::thread writer([&, fd] {
        for (const Request& q : reqs[c])
          if (!write_all(fd, q.frame)) return;
      });
      for (size_t n = 0; n < kPerConn; ++n) {
        uint8_t head[wire::kFrameHeaderSize];
        FrameHeader h;
        if (!read_exact(fd, head, sizeof(head), 10000) ||
            decode_frame_header(head, sizeof(head), h) != FrameError::Ok) {
          ADD_FAILURE() << "conn " << c << ": no valid response header " << n;
          break;
        }
        std::vector<uint8_t> body(h.body_size());
        FrameView view;
        if (!read_exact(fd, body.data(), body.size(), 10000) ||
            bind_frame_body(h, body.data(), body.size(), view) != FrameError::Ok) {
          ADD_FAILURE() << "conn " << c << ": bad response body " << n;
          break;
        }
        // No ASSERT past this point: the writer must be joined below.
        if (h.type != FrameType::Response || h.request_id < 1 || h.request_id > kPerConn ||
            view.payloads.size() != kM) {
          ADD_FAILURE() << "conn " << c << ": unexpected response " << n << ": " << view.spec;
          break;
        }
        const Request& q = reqs[c][h.request_id - 1];
        bool same = true;
        for (uint32_t i = 0; i < kM; ++i)
          same = same && std::memcmp(view.payloads[i].data(), q.parity[i].data(), kFrag) == 0;
        EXPECT_TRUE(same) << "conn " << c << " request " << h.request_id;
        if (same) ++correct;
      }
      ::shutdown(fd, SHUT_RDWR);  // unblocks the writer if reading gave up
      writer.join();
      ::close(fd);
    });
  for (auto& t : conns) t.join();

  EXPECT_EQ(correct.load(), kConns * kPerConn);
  const NetServerStats st = server.stats();
  EXPECT_EQ(st.requests, kConns * kPerConn);
  EXPECT_GT(st.backpressure_stalls, 0u);
  server.stop();
}

/// Poll `done` every 20 ms for up to 20 s.
template <typename Pred>
bool wait_for(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

TEST(NetServer, PeerResetMidResponseCostsOnlyItsConnection) {
  // A peer gone while its response is in flight must cost only its
  // connection: a send without MSG_NOSIGNAL raises SIGPIPE and kills the
  // serving process. SIGPIPE keeps its default action here on purpose.
  CodecService service;
  ServerOptions opt;
  opt.max_inflight_per_conn = 1;  // a request in flight pauses reads
  NetServer server(service, opt);
  server.start();

  // A 24 MiB encode: its 16 MiB response outgrows any socket buffer.
  const std::string spec = "rs(6,4)@isa=scalar";
  constexpr size_t kBigFrag = 4u << 20;
  std::vector<std::vector<uint8_t>> data(kK, std::vector<uint8_t>(kBigFrag, 0x5A));
  std::vector<const uint8_t*> ptrs;
  for (auto& frag : data) ptrs.push_back(frag.data());
  FrameHeader h;
  h.type = FrameType::EncodeRequest;
  h.request_id = 1;
  h.k = kK;
  h.frag_len = kBigFrag;
  h.present_bitmap = (uint64_t{1} << kK) - 1;
  h.payload_count = kK;
  const std::vector<uint8_t> frame = build_frame(h, spec, ptrs.data());
  const uint64_t response_bytes = uint64_t{kM} * kBigFrag;

  // 1. Close right after the request. With it in flight the server does not
  //    read the FIN, so it learns of the close only when its first response
  //    write draws a RST; the write after that fails with EPIPE.
  {
    const int fd = connect_tcp(server.tcp_port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_all(fd, frame));
    ::close(fd);
    ASSERT_TRUE(wait_for([&] {
      const NetServerStats st = server.stats();
      return st.responses >= 1 && st.connections_open == 0;
    })) << "server kept the closed connection";
  }

  // 2. A reader that stalls part-way through its response, then resets.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int rcvbuf = 4096;  // set before connect, so the window stays small
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(server.tcp_port());
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
    const uint64_t before = server.stats().tcp_bytes_out;
    ASSERT_TRUE(write_all(fd, frame));
    // Sent some of the response, then nothing for 10 polls in a row.
    uint64_t last = before;
    int still = 0;
    ASSERT_TRUE(wait_for([&] {
      const uint64_t out = server.stats().tcp_bytes_out;
      still = out > before && out == last ? still + 1 : 0;
      last = out;
      return still == 10;
    })) << "response never stalled";
    ASSERT_LT(last - before, response_bytes);
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)), 0);
    ::close(fd);
    ASSERT_TRUE(wait_for([&] { return server.stats().connections_open == 0; }));
  }

  // 3. The process survived both, and a new client is served.
  const auto small = make_data();
  std::vector<const uint8_t*> small_ptrs;
  for (const auto& frag : small) small_ptrs.push_back(frag.data());
  std::vector<std::vector<uint8_t>> remote(kM, std::vector<uint8_t>(kFragLen));
  std::vector<std::vector<uint8_t>> local(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> remote_ptrs, local_ptrs;
  for (uint32_t i = 0; i < kM; ++i) {
    remote_ptrs.push_back(remote[i].data());
    local_ptrs.push_back(local[i].data());
  }
  Client client("127.0.0.1", server.tcp_port());
  client.encode(kSpec, small_ptrs.data(), kK, remote_ptrs.data(), kM, kFragLen);
  make_codec(kSpec)->encode(small_ptrs.data(), local_ptrs.data(), kFragLen);
  EXPECT_EQ(remote, local);
  server.stop();
}
