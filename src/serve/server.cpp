#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "local/message_engine_stats.hpp"
#include "support/check.hpp"

namespace padlock::serve {

namespace {

// One accepted connection. The session thread owns reads and the fd's
// lifetime; response lines are written under `write_mu` by whichever
// thread finishes a row (pool workers via the on_row hook, the executor,
// or the session thread itself), so interleaved lines stay whole. All
// sends are MSG_NOSIGNAL: a client that disconnects mid-stream turns the
// write into an EPIPE error and a `dead` mark, never a SIGPIPE kill.
struct Session {
  explicit Session(int fd) : fd(fd) {}

  int fd = -1;
  std::mutex fd_mu;     // guards shutdown-vs-close of the fd
  std::mutex write_mu;  // serializes response lines
  std::atomic<bool> dead{false};      // client gone; writes are no-ops
  std::atomic<bool> finished{false};  // session thread exited

  // Full-line write; returns false (and goes dead) on any socket error.
  bool write_line(const std::string& line) {
    if (dead.load(std::memory_order_relaxed)) return false;
    std::lock_guard<std::mutex> lock(write_mu);
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        dead.store(true, std::memory_order_relaxed);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Unblocks a recv() from another thread (stop()); safe against the
  // session thread closing concurrently.
  void shutdown_fd() {
    std::lock_guard<std::mutex> lock(fd_mu);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

  // Called exactly once, by the session thread at loop exit.
  void close_fd() {
    std::lock_guard<std::mutex> lock(fd_mu);
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

// One admitted run/sweep request: executed by an executor thread, or
// abandoned with a `shutdown` answer by stop(). `done` unblocks the
// session thread either way (a session processes one request at a time;
// concurrency comes from concurrent connections).
struct Work {
  std::shared_ptr<Session> session;
  Request req;
  std::promise<void> done;
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions o) : opt(std::move(o)) {}

  ServerOptions opt;
  int listen_fd = -1;
  int resolved_port = 0;
  bool bound_unix_path = false;  // stop() removes the socket file it made
  bool started = false;
  bool stopped = false;

  std::thread listener;
  std::vector<std::thread> executors;

  // Admission state: one mutex for the queue and the outstanding gauge.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::unique_ptr<Work>> queue;
  int outstanding = 0;  // admitted (queued + executing), not yet answered
  bool draining = false;

  std::mutex sess_mu;
  std::vector<std::pair<std::thread, std::shared_ptr<Session>>> sessions;
  std::atomic<int> active_sessions{0};

  std::atomic<std::uint64_t> s_connections{0};
  std::atomic<std::uint64_t> s_requests{0};
  std::atomic<std::uint64_t> s_accepted{0};
  std::atomic<std::uint64_t> s_rejected{0};
  std::atomic<std::uint64_t> s_bad{0};
  std::atomic<std::uint64_t> s_oversized{0};
  std::atomic<std::uint64_t> s_completed{0};
  std::atomic<std::uint64_t> s_rows{0};

  std::mutex shutdown_mu;
  std::condition_variable shutdown_cv;
  bool shutdown_flag = false;

  void request_shutdown() {
    {
      std::lock_guard<std::mutex> lock(shutdown_mu);
      shutdown_flag = true;
    }
    shutdown_cv.notify_all();
  }

  ServeStats snapshot() {
    ServeStats s;
    s.connections = s_connections.load();
    s.requests = s_requests.load();
    s.accepted = s_accepted.load();
    s.rejected = s_rejected.load();
    s.bad_requests = s_bad.load();
    s.oversized = s_oversized.load();
    s.completed = s_completed.load();
    s.rows_streamed = s_rows.load();
    {
      std::lock_guard<std::mutex> lock(mu);
      s.outstanding = static_cast<std::uint64_t>(outstanding);
    }
    // Engine gauge: the process-wide run count the executor accumulates
    // into (relaxed read — stats is a monitoring surface, not a
    // synchronization point).
    s.engine_runs =
        engine_gauge_totals().engine_runs.load(std::memory_order_relaxed);
    return s;
  }

  void bind_and_listen() {
    if (!opt.unix_path.empty()) {
      listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (listen_fd < 0) throw_errno("serve: socket(AF_UNIX)");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (opt.unix_path.size() >= sizeof addr.sun_path) {
        throw std::runtime_error("serve: unix socket path too long: " +
                                 opt.unix_path);
      }
      std::strncpy(addr.sun_path, opt.unix_path.c_str(),
                   sizeof addr.sun_path - 1);
      ::unlink(opt.unix_path.c_str());  // stale socket file from a previous run
      if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof addr) != 0) {
        throw_errno("serve: bind(" + opt.unix_path + ")");
      }
      bound_unix_path = true;
    } else {
      listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (listen_fd < 0) throw_errno("serve: socket(AF_INET)");
      const int one = 1;
      ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
      if (::inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr) != 1) {
        throw std::runtime_error("serve: invalid host address: " + opt.host);
      }
      if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof addr) != 0) {
        throw_errno("serve: bind(" + opt.host + ":" +
                    std::to_string(opt.port) + ")");
      }
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                        &len) == 0) {
        resolved_port = static_cast<int>(ntohs(bound.sin_port));
      }
    }
    if (::listen(listen_fd, 64) != 0) throw_errno("serve: listen");
  }

  void reap_finished_sessions() {
    std::lock_guard<std::mutex> lock(sess_mu);
    for (std::size_t i = 0; i < sessions.size();) {
      if (sessions[i].second->finished.load()) {
        sessions[i].first.join();
        sessions[i] = std::move(sessions.back());
        sessions.pop_back();
      } else {
        ++i;
      }
    }
  }

  void listen_loop() {
    for (;;) {
      sockaddr_storage peer{};
      socklen_t len = sizeof peer;
      const int fd =
          ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener socket shut down by stop()
      }
      reap_finished_sessions();
      s_connections.fetch_add(1);
      if (active_sessions.load() >= opt.max_connections) {
        const std::string line = error_line(
            "", "rejected",
            "connection limit (" + std::to_string(opt.max_connections) +
                ") reached");
        (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      // A run answer is several sends (accepted, rows, done); with Nagle
      // on, each later line waits for the client's delayed ACK of the
      // previous one, about 40 ms on Linux. Unix sockets have no Nagle.
      // A failed setsockopt only costs latency, so the session goes on.
      if (opt.unix_path.empty()) {
        const int one = 1;
        (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      auto session = std::make_shared<Session>(fd);
      active_sessions.fetch_add(1);
      std::lock_guard<std::mutex> lock(sess_mu);
      sessions.emplace_back(
          std::thread([this, session] { session_loop(session); }), session);
    }
  }

  // Handles one complete request line; returns false to close the
  // connection (only the oversized case — bad requests are answered and
  // the stream, still newline-synchronized, stays open).
  bool handle_line(const std::shared_ptr<Session>& session,
                   const std::string& line) {
    Request req;
    try {
      req = parse_request(line, opt.limits);
    } catch (const BadRequest& e) {
      s_bad.fetch_add(1);
      session->write_line(error_line("", "bad_request", e.what()));
      return true;
    }

    switch (req.op) {
      case Op::kPing:
        session->write_line(pong_line(req));
        return true;
      case Op::kStats:
        session->write_line(stats_line(req, snapshot()));
        return true;
      case Op::kShutdown: {
        // Stop admitting, ack, and let the owner (cmd_serve / a test)
        // observe shutdown_requested() and run the stop() drain.
        {
          std::lock_guard<std::mutex> lock(mu);
          draining = true;
        }
        cv.notify_all();
        session->write_line(shutdown_line(req));
        request_shutdown();
        return true;
      }
      case Op::kRun:
      case Op::kSweep:
        break;
    }

    s_requests.fetch_add(1);
    std::future<void> done;
    const char* refusal = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (draining) {
        refusal = "shutdown";
      } else if (outstanding >= opt.max_in_flight + opt.queue_limit) {
        refusal = "rejected";
      } else {
        ++outstanding;
        auto work = std::make_unique<Work>();
        work->session = session;
        work->req = std::move(req);
        done = work->done.get_future();
        queue.push_back(std::move(work));
      }
    }
    if (refusal != nullptr) {
      if (std::string_view(refusal) == "rejected") {
        s_rejected.fetch_add(1);
        session->write_line(error_line(
            req.id, "rejected",
            "admission control: " + std::to_string(opt.max_in_flight) +
                " in flight + " + std::to_string(opt.queue_limit) +
                " queued are busy"));
      } else {
        session->write_line(
            error_line(req.id, "shutdown", "daemon is shutting down"));
      }
      return true;
    }
    s_accepted.fetch_add(1);
    cv.notify_one();
    // One request at a time per connection: wait until it is answered
    // before reading the next line (pipelined bytes just sit in the
    // socket buffer meanwhile).
    done.wait();
    return true;
  }

  void session_loop(const std::shared_ptr<Session>& session) {
    std::string buf;
    char chunk[4096];
    bool keep = true;
    while (keep) {
      std::size_t nl;
      while (keep && (nl = buf.find('\n')) != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (line.size() > opt.max_request_bytes) {
          s_oversized.fetch_add(1);
          session->write_line(oversized_error());
          keep = false;
          break;
        }
        keep = handle_line(session, line);
      }
      if (!keep) break;
      if (buf.size() > opt.max_request_bytes) {
        // A line this long can never become admissible; answering and
        // resynchronizing is pointless, so the connection closes.
        s_oversized.fetch_add(1);
        session->write_line(oversized_error());
        break;
      }
      const ssize_t n = ::recv(session->fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // client closed (or stop() shut the fd down)
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    session->close_fd();
    session->finished.store(true);
    active_sessions.fetch_sub(1);
  }

  std::string oversized_error() const {
    return error_line("", "oversized",
                      "request line exceeds " +
                          std::to_string(opt.max_request_bytes) + " bytes");
  }

  void executor_loop() {
    for (;;) {
      std::unique_ptr<Work> work;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return draining || !queue.empty(); });
        if (queue.empty()) {
          if (draining) return;
          continue;
        }
        work = std::move(queue.front());
        queue.pop_front();
      }
      execute(*work);
      {
        std::lock_guard<std::mutex> lock(mu);
        --outstanding;
      }
      s_completed.fetch_add(1);
      work->done.set_value();
      cv.notify_all();  // an admission slot freed; drain-waiters recheck
    }
  }

  void execute(Work& work) {
    Session& session = *work.session;
    const std::string id = work.req.id;
    session.write_line(accepted_line(work.req));
    ExecutionPlan plan = std::move(work.req.plan);
    // Stream every finished row immediately; a dead client just mutes the
    // stream while the computation finishes (no cancellation mid-batch —
    // rows are cheap relative to connection churn, and the GraphCache
    // keeps the work warm for the next request).
    plan.on_row = [&](std::size_t index, const SweepRow& row) {
      if (session.write_line(row_line(id, index, row))) {
        s_rows.fetch_add(1);
      }
    };
    try {
      const SweepOutcome outcome = run_batch(plan);
      session.write_line(done_line(id, outcome));
    } catch (...) {
      // run_batch only throws on malformed plans, which parse_request
      // already refuses — this is a genuine daemon-side bug surface, so
      // say so instead of crashing the service.
      std::string what;
      try {
        what = describe_current_exception();
      } catch (...) {
      }
      session.write_line(error_line(id, "internal", what));
    }
  }

  void stop() {
    if (!started || stopped) {
      request_shutdown();
      return;
    }
    stopped = true;
    request_shutdown();
    {
      std::lock_guard<std::mutex> lock(mu);
      draining = true;
    }
    cv.notify_all();

    // Unblock accept() and retire the listener before touching sessions,
    // so no new connection can race the teardown.
    ::shutdown(listen_fd, SHUT_RDWR);
    if (listener.joinable()) listener.join();

    // Answer queued-but-unstarted requests with a shutdown status; the
    // executors keep running whatever is already in flight to its final
    // row (the drain the protocol promises).
    std::deque<std::unique_ptr<Work>> abandoned;
    {
      std::lock_guard<std::mutex> lock(mu);
      abandoned.swap(queue);
      outstanding -= static_cast<int>(abandoned.size());
    }
    for (const std::unique_ptr<Work>& work : abandoned) {
      work->session->write_line(error_line(
          work->req.id, "shutdown", "daemon stopped before this request ran"));
      work->done.set_value();
    }
    cv.notify_all();
    for (std::thread& t : executors) {
      if (t.joinable()) t.join();
    }

    // Sessions: unblock reads, then join. Their request futures are all
    // fulfilled by now (executed or abandoned), so every session thread
    // is back in (or about to enter) recv().
    {
      std::lock_guard<std::mutex> lock(sess_mu);
      for (auto& [thread, session] : sessions) session->shutdown_fd();
    }
    for (;;) {
      std::pair<std::thread, std::shared_ptr<Session>> entry;
      {
        std::lock_guard<std::mutex> lock(sess_mu);
        if (sessions.empty()) break;
        entry = std::move(sessions.back());
        sessions.pop_back();
      }
      entry.first.join();
    }
    ::close(listen_fd);
    listen_fd = -1;
    if (bound_unix_path) ::unlink(opt.unix_path.c_str());
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  PADLOCK_REQUIRE(!impl_->started);
  impl_->bind_and_listen();
  impl_->started = true;
  impl_->executors.reserve(
      static_cast<std::size_t>(impl_->opt.max_in_flight));
  for (int i = 0; i < impl_->opt.max_in_flight; ++i) {
    impl_->executors.emplace_back([this] { impl_->executor_loop(); });
  }
  impl_->listener = std::thread([this] { impl_->listen_loop(); });
}

void Server::stop() { impl_->stop(); }

int Server::port() const { return impl_->resolved_port; }

ServeStats Server::stats() const { return impl_->snapshot(); }

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
  return impl_->shutdown_flag;
}

bool Server::wait_for_shutdown(int ms) {
  std::unique_lock<std::mutex> lock(impl_->shutdown_mu);
  impl_->shutdown_cv.wait_for(lock, std::chrono::milliseconds(ms),
                              [this] { return impl_->shutdown_flag; });
  return impl_->shutdown_flag;
}

}  // namespace padlock::serve
