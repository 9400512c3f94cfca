// NetServer: the serving front-end — a poll()-driven event loop that turns
// wire frames into CodecService work without ever blocking network I/O on
// codec execution.
//
// Threading model (two threads, one direction of flow each):
//
//   event-loop thread                completion thread
//   -----------------                -----------------
//   accept / read frames             waits on submitted futures in FIFO
//   validate + submit to service --> {future, finalize-callback}
//   write queued responses       <-- finalized response pushed to the
//   send queued UDP acks             loop's completed-queue + wake pipe
//
// The loop parses a request, points the codec DIRECTLY at the receive
// buffer (FrameView payload spans) and at the preallocated response frame
// (parity/rebuilt strips are computed in place in the bytes that will be
// written to the socket), submits through a shared ServiceHandle, and goes
// back to polling. Each connection runs a state machine
// reading-header -> reading-body -> (executing on the service) -> writing;
// because responses carry the request id, a connection may have several
// requests in flight and receive responses out of order.
//
// Flow control, two levels:
//   per-connection: at most max_inflight_per_conn submitted-but-unanswered
//     requests; beyond that the loop stops POLLIN-ing that socket (TCP
//     backpressure reaches the peer).
//   global: before submitting, the loop reads ServiceHandle::queue_depth(),
//     the pending jobs on the shard the service would route the request to
//     (the home shard when idle, else the least-loaded one). Only when even
//     that shard holds max_queue_depth jobs does the parsed request park in
//     the connection's deferred slot, with reads paused until a queue
//     drains — counted in stats().backpressure_stalls.
//
// The UDP socket shares the loop: strip packets feed a per-peer
// GroupAssembler; a completed group with losses takes the same
// plan_reconstruct degraded-read path (submitted, not inline), and the
// receipt (GroupAck) is sent when the rebuild lands. This is how cluster
// repair traffic is served over the wire: a repair client ships survivor
// strips in a ReconstructRequest (or strip packets) and gets rebuilt strips
// back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "api/service.hpp"

namespace xorec::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t tcp_port = 0;  // 0 = ephemeral (read back via tcp_port())
  uint16_t udp_port = 0;
  size_t max_inflight_per_conn = 8;
  size_t max_queue_depth = 256;  // routed shard's depth that parks new requests
  size_t max_connections = 64;
};

struct NetServerStats {
  size_t connections_accepted = 0;
  size_t connections_open = 0;
  size_t requests = 0;        // well-formed TCP requests dispatched
  size_t responses = 0;       // Response frames written (incl. Pong)
  size_t errors = 0;          // Error frames written + fatal parse closes
  size_t backpressure_stalls = 0;
  uint64_t tcp_bytes_in = 0;
  uint64_t tcp_bytes_out = 0;
  /// Scatter/gather send-path counters: responses leave as (header, body)
  /// segment pairs through one gathering sendmsg(2) per loop pass, batching
  /// across all frames queued on a connection (the counters keep their
  /// writev names). `gather_bytes_saved` counts body bytes that were handed
  /// to the socket where they were computed instead of being memcpy'd into a
  /// contiguous header+body frame first.
  size_t writev_calls = 0;
  size_t writev_segments = 0;       // iovec entries across all gathering sends
  uint64_t gather_bytes_saved = 0;  // response-body bytes never re-copied
  size_t udp_groups = 0;           // stripe groups completed
  size_t udp_degraded_reads = 0;   // groups that needed reconstruction
  size_t udp_unrecoverable = 0;
};

class NetServer {
 public:
  /// Binds both sockets immediately (so the ports are known) but serves
  /// nothing until start(). Throws std::runtime_error on bind failure.
  NetServer(CodecService& service, ServerOptions opt = {});
  ~NetServer();  // stop()s if still running

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  void start();
  /// Stops accepting, drains in-flight service jobs, joins both threads.
  void stop();

  uint16_t tcp_port() const;
  uint16_t udp_port() const;
  NetServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xorec::net
