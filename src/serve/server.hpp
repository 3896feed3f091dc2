// The resident sweep daemon (ROADMAP item 3): a long-lived service that
// accepts newline-delimited JSON run/sweep requests over TCP or a unix
// socket, executes them through the ordinary run_batch registry path
// against the ONE process-wide GraphCache and ThreadPool, and streams each
// row back the moment it completes (ExecutionPlan::on_row +
// row_to_json, so streamed rows are byte-identical to an offline sweep).
//
// Load behavior borrows the shape of Pod's client-serving layer and
// Balloon's admission control (PAPERS.md): per-row results go out as they
// finalize instead of at batch end, and overload sheds — a request beyond
// `max_in_flight` executing + `queue_limit` waiting is answered with a
// `rejected` status immediately rather than queued unboundedly.
//
// Fault isolation rides on the sweep machinery's row-scoped statuses: a
// malformed request, an unknown pair, a family that fails to build, or a
// client that disconnects mid-stream poisons only its own response.
// Socket writes are SIGPIPE-safe (MSG_NOSIGNAL), request lines are
// size-capped, and graceful shutdown drains in-flight requests to their
// final row while answering queued-but-unstarted ones with a `shutdown`
// status.
#pragma once

#include <memory>
#include <string>

#include "serve/protocol.hpp"

namespace padlock::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;           // TCP listen port; 0 = ephemeral (read port())
  std::string unix_path;  // non-empty: listen on this unix socket instead
  /// Admission control: at most `max_in_flight` requests executing (one
  /// executor thread each) plus `queue_limit` admitted-but-waiting; the
  /// next request is answered `rejected`.
  int max_in_flight = 2;
  int queue_limit = 8;
  /// Connections beyond this are answered `rejected` and closed.
  int max_connections = 64;
  /// A request line longer than this is answered `oversized` and the
  /// connection closed (framing can no longer be trusted).
  std::size_t max_request_bytes = std::size_t{1} << 20;
  /// Schema ceilings applied by parse_request.
  RequestLimits limits;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // implies stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the listener + executor threads. Throws
  /// std::runtime_error on socket failures (port in use, bad unix path).
  void start();

  /// Graceful shutdown: stop accepting, answer queued requests with
  /// `shutdown`, drain in-flight requests to their final row, join every
  /// thread, close every socket, and remove the unix socket file this
  /// server bound. Idempotent.
  void stop();

  /// Resolved TCP listen port (after start(); 0 for unix-socket servers).
  [[nodiscard]] int port() const;

  /// Snapshot of the daemon counters.
  [[nodiscard]] ServeStats stats() const;

  /// True once a client shutdown op was received (or stop() ran).
  [[nodiscard]] bool shutdown_requested() const;

  /// Blocks up to `ms` milliseconds for a shutdown request; returns
  /// shutdown_requested(). The serve CLI's main loop polls this so signal
  /// handlers only need to set a flag.
  bool wait_for_shutdown(int ms);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace padlock::serve
