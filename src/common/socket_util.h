#ifndef DISC_COMMON_SOCKET_UTIL_H_
#define DISC_COMMON_SOCKET_UTIL_H_

// Shared POSIX-socket plumbing for the embedded servers (the telemetry
// HTTP server, obs/http_server.h, and the binary ingest plane,
// net/ingest_server.h) plus the CRC32 the wire protocol frames carry.
//
// The serving shape both servers proved out is factored here once:
//
//   * OpenTcpListener — bind/listen with a descriptive Status and the
//     ephemeral-port readback tests rely on;
//   * SocketServer — one accept thread (poll over the listener and a
//     self-pipe wake fd, so Stop() interrupts a blocked accept instantly)
//     feeding a *bounded* queue of accepted connections drained by a
//     fixed pool of worker lanes. A full queue is shed in the accept
//     thread through the owner's `on_overload` callback (a canned 503 for
//     HTTP, a BUSY frame for the ingest plane) — bounded handling,
//     never unbounded queueing, never a silent drop;
//   * SendAllBytes / RecvFully — the partial-read/partial-write loops
//     every framed protocol needs;
//   * Crc32 — the IEEE CRC-32 the ingest frames are checked with.
//
// Concurrency: the pending-connection queue is the only shared state and
// is GUARDED_BY its mutex (machine-checked by disc_lint's lock-discipline
// rule and clang -Wthread-safety). Worker lanes own their fd exclusively
// from Pop to close. Like the servers built on it, SocketServer is
// loopback-oriented: per-connection I/O timeouts cap how long a stuck
// peer can hold a lane.
//
// Lives under src/common (a common facility, like failpoint.h) but is
// compiled into disc_obs: the implementation logs through obs/log.h and
// disc_common links disc_obs PUBLIC, so building it into disc_common
// would cycle the static-library layering.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace disc {

// IEEE CRC-32 (polynomial 0xEDB88320, the zlib/Ethernet one) over `size`
// bytes. `seed` chains incremental computation: Crc32(b, n2, Crc32(a, n1))
// equals the CRC of a||b. Deterministic across platforms, so a frame
// checksummed by any producer verifies on any consumer.
std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

// Opens a listening TCP socket on bind_address:port (port 0 = ephemeral)
// with SO_REUSEADDR. On success stores the fd into *listen_fd and the
// actually-bound port into *bound_port; on failure returns a descriptive
// Status (bad address, address in use, ...) without leaking any fd.
Status OpenTcpListener(const std::string& bind_address, std::uint16_t port,
                       int backlog, int* listen_fd, std::uint16_t* bound_port);

// Applies SO_RCVTIMEO and SO_SNDTIMEO of `seconds` to `fd`, so a stuck
// peer can never wedge a worker lane indefinitely.
void SetIoTimeouts(int fd, int seconds);

// Writes all `size` bytes with MSG_NOSIGNAL, looping over short writes
// and retrying a send a signal interrupted (EINTR). Returns false when the
// peer went away mid-send (nothing useful to do beyond reporting).
bool SendAllBytes(int fd, const void* data, std::size_t size);

// Reads exactly `size` bytes, looping over short reads and retrying a recv
// a signal interrupted (EINTR). Returns the byte
// count actually read: `size` on success, 0 on a clean EOF before any
// byte, and anything in between when the stream ended (or timed out)
// mid-read — the torn-frame case framed protocols must report.
std::size_t RecvFully(int fd, void* data, std::size_t size);

struct SocketServerOptions {
  // Short label carried on every log event this server emits
  // (`sockserv.*` with a "server" field), e.g. "telemetry" or "ingest".
  std::string name = "socket";

  std::string bind_address = "127.0.0.1";
  // 0 binds an ephemeral port; read it back via port().
  std::uint16_t port = 0;
  // Worker lanes draining accepted connections; at least 1 is enforced.
  std::size_t worker_threads = 2;
  // Accepted-but-unhandled connections beyond this are shed in the accept
  // thread via on_overload (bounded backlog instead of unbounded queueing).
  std::size_t max_queued_connections = 16;
  // Per-connection SO_RCVTIMEO/SO_SNDTIMEO, seconds.
  int io_timeout_s = 5;
  int listen_backlog = 16;

  // Optional DISC_FAILPOINT site evaluated in the accept thread right
  // after accept(); an injected throw costs that one connection (closed,
  // logged), never the accept thread.
  const char* accept_failpoint = nullptr;

  // Handles one accepted connection on a worker lane. The server closes
  // the fd after the call; a throwing handler costs one connection, never
  // the lane (the exception is caught and logged). Required.
  std::function<void(int fd)> handler;

  // Runs in the accept thread when the queue is full, before the server
  // closes the fd — send the protocol's canned shed-load response here
  // (503 for HTTP, BUSY for the ingest plane). Optional.
  std::function<void(int fd)> on_overload;
};

// The accept-thread + bounded-worker-lane server core shared by the
// telemetry HTTP server and the ingest plane. Lifecycle: Start() binds
// (port 0 = ephemeral, see port()), Stop() wakes the accept poll through
// the self-pipe, joins every thread, and closes queued connections; the
// destructor calls Stop().
class SocketServer {
 public:
  explicit SocketServer(SocketServerOptions options);
  ~SocketServer();  // Stops if running.

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds, listens, and spawns the accept + worker threads. Fails with a
  // descriptive Status without leaking any fd or thread.
  Status Start();

  // Graceful shutdown: stops accepting, joins every thread, closes queued
  // connections. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // The bound port (the ephemeral one when options.port == 0); 0 when not
  // running.
  std::uint16_t port() const {
    return running_.load(std::memory_order_acquire) ? bound_port_ : 0;
  }

 private:
  void AcceptLoop();
  void WorkerLoop();

  SocketServerOptions options_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t bound_port_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_ GUARDED_BY(queue_mutex_);
};

}  // namespace disc

#endif  // DISC_COMMON_SOCKET_UTIL_H_
