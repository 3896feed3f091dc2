// serve-tcp: an in-process serve::Server on an ephemeral 127.0.0.1 port
// (max_in_flight 2, queue_limit 8, pool threads = nproc) driven closed loop
// by one blocking client connection per thread: each sends its next request
// only after the terminal line of the previous one. The request mix is a
// fixed set of twelve kinds in a seed-chosen order: runs at n = 4096 over
// several pairs and families, a small sweep, a ping, three malformed or
// schema-violating requests and an unknown pair. Every connection walks the
// whole cycle, from its own offset and with its own request seed (workload
// seed + connection index), so the rows served cover several instances.
//
// Every streamed row is compared with the same request run offline through
// run_batch; a refusal counts as a success only where it is the expected
// answer.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/graph_cache.hpp"
#include "core/runner.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace padlock;
using serve::JsonValue;

// Set-up takes a fraction of a second, so it repeats often enough for a
// steady median.
constexpr int kSetupReps = 5;

struct Kind {
  const char* name;
  const char* line;    // $ID and $SEED are substituted per request
  const char* expect;  // done | done_failed | bad_request | pong
};

constexpr Kind kMix[] = {
    {"run:mis/luby",
     R"({"op": "run", "id": "$ID", "problem": "mis", "algo": "luby", )"
     R"("nodes": 4096, "seed": $SEED})",
     "done"},
    {"run:weak-coloring/pointer-parity",
     R"({"op": "run", "id": "$ID", "problem": "weak-coloring", )"
     R"("algo": "pointer-parity", "family": "regular", "nodes": 4096, )"
     R"("seed": $SEED})",
     "done"},
    {"run:3-coloring/cole-vishkin",
     R"({"op": "run", "id": "$ID", "problem": "3-coloring", )"
     R"("algo": "cole-vishkin", "family": "cycle", "nodes": 4096, )"
     R"("seed": $SEED})",
     "done"},
    {"sweep:mis+matching",
     R"({"op": "sweep", "id": "$ID", "pairs": ["mis/luby", )"
     R"("matching/propose-accept"], "sizes": [64, 128], "seed": $SEED})",
     "done"},
    {"run:sinkless-orientation/propose-repair",
     R"({"op": "run", "id": "$ID", "problem": "sinkless-orientation", )"
     R"("algo": "propose-repair", "family": "high-girth", "nodes": 4096, )"
     R"("seed": $SEED})",
     "done"},
    {"ping", R"({"op": "ping", "id": "$ID"})", "pong"},
    {"malformed", R"({"op": "run", "id": "$ID", "nodes": )", "bad_request"},
    {"schema",
     R"({"op": "run", "id": "$ID", "problem": "mis", "algo": "luby", )"
     R"("nodes": "16k"})",
     "bad_request"},
    {"unknown-key",
     R"({"op": "run", "id": "$ID", "problem": "mis", "algo": "luby", )"
     R"("bogus": 1})",
     "bad_request"},
    {"unknown-pair",
     R"({"op": "run", "id": "$ID", "problem": "no-such-problem", )"
     R"("algo": "none", "seed": $SEED})",
     "done_failed"},
    {"run:matching/propose-accept",
     R"({"op": "run", "id": "$ID", "problem": "matching", )"
     R"("algo": "propose-accept", "nodes": 4096, "repeat": 2, )"
     R"("seed": $SEED})",
     "done"},
    {"run:coloring/linial",
     R"({"op": "run", "id": "$ID", "problem": "coloring", "algo": "linial", )"
     R"("family": "torus", "nodes": 4096, "seed": $SEED})",
     "done"},
};
constexpr std::size_t kKinds = std::size(kMix);

std::string request_line(const Kind& kind, const std::string& id,
                         std::uint64_t seed) {
  std::string line = kind.line;
  const auto substitute = [&](const std::string& key,
                              const std::string& value) {
    const std::size_t at = line.find(key);
    if (at != std::string::npos) line.replace(at, key.size(), value);
  };
  substitute("$ID", id);
  substitute("$SEED", std::to_string(seed));
  return line + "\n";
}

bool computes(const Kind& kind) {
  return std::string_view(kind.expect).starts_with("done");
}

// The fields of a row that must match between the stream and offline.
struct RefRow {
  std::string problem, algo, family, status;
  long long nodes = 0, edges = 0, rounds = 0;
};

RefRow ref_row(const SweepRow& row) {
  return {row.problem,
          row.algo,
          row.graph.family,
          std::string(row_status_name(row.status)),
          static_cast<long long>(row.nodes),
          static_cast<long long>(row.edges),
          row.rounds};
}

std::optional<RefRow> streamed_row(const JsonValue& row) {
  const auto str = [&](const char* key) -> std::optional<std::string> {
    const JsonValue* v = row.find(key);
    if (v == nullptr || !v->is(JsonValue::Kind::kString)) return std::nullopt;
    return v->string;
  };
  const auto num = [&](const char* key) -> std::optional<long long> {
    const JsonValue* v = row.find(key);
    if (v == nullptr || !v->is(JsonValue::Kind::kInt)) return std::nullopt;
    return v->integer;
  };
  const auto problem = str("problem"), algo = str("algo"),
             family = str("family"), status = str("status");
  const auto nodes = num("nodes"), edges = num("edges"), rounds = num("rounds");
  if (!problem || !algo || !family || !status || !nodes || !edges ||
      !rounds) {
    return std::nullopt;
  }
  return RefRow{*problem, *algo, *family, *status, *nodes, *edges, *rounds};
}

bool same_row(const RefRow& a, const RefRow& b) {
  return a.problem == b.problem && a.algo == b.algo && a.family == b.family &&
         a.status == b.status && a.nodes == b.nodes && a.edges == b.edges &&
         a.rounds == b.rounds;
}

// Plain blocking line client: one JSON object per '\n' each way.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      close();
    }
  }
  ~Connection() { close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::optional<std::string> read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// Client-observed instants of one request; 0 = not seen.
struct Timeline {
  std::int64_t send = 0, accepted = 0, first_row = 0, last_row = 0, end = 0;
};

class ServeTcp {
 public:
  explicit ServeTcp(const Config& cfg) : cfg_(cfg) {
    // The seed fixes the order in which the twelve kinds cycle.
    std::mt19937_64 rng(cfg.seed);
    for (std::size_t i = 0; i < kKinds; ++i) order_.push_back(i);
    for (std::size_t i = kKinds - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng() % (i + 1)]);
    }
  }

  Raw run() {
    setup();
    references();
    if (cfg_.trace) {
      raw_.phases.push_back(run_phase(false, cfg_.seconds / 2));
      raw_.phases.push_back(run_phase(true, cfg_.seconds / 2));
      raw_.spans = tracer_.take();
      measure_offline_layers();
    } else {
      raw_.phases.push_back(run_phase(false, cfg_.seconds));
    }
    drain();
    return std::move(raw_);
  }

 private:
  [[nodiscard]] std::uint64_t client_seed(int c) const {
    return cfg_.seed + static_cast<std::uint64_t>(c);
  }

  // Registry bootstrap, Server::start() and the resident graphs of every
  // connection's requests, several times; the last daemon serves the
  // measured traffic.
  void setup() {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (server_) server_->stop();
      server_.reset();
      GraphCache::instance().clear();
      const std::int64_t t0 = now_ns();
      (void)AlgorithmRegistry::instance();
      serve::ServerOptions options;
      options.port = 0;
      options.max_in_flight = 2;
      options.queue_limit = 8;
      server_ = std::make_unique<serve::Server>(options);
      server_->start();
      const std::int64_t t_started = now_ns();
      const std::uint64_t setup_span = cfg_.trace ? tracer_.next_id() : 0;
      for (int c = 0; c < cfg_.threads; ++c) {
        for (const Kind& kind : kMix) {
          if (!computes(kind)) continue;
          const serve::Request req = serve::parse_request(
              request_line(kind, "setup", client_seed(c)),
              serve::RequestLimits{});
          for (const GraphSpec& s : req.plan.graphs) {
            const std::int64_t b0 = now_ns();
            bool hit = false;
            (void)GraphCache::instance().get_or_build(s.family, s.nodes,
                                                      s.degree, s.seed, &hit);
            if (cfg_.trace && !hit) {
              tracer_.add({tracer_.next_id(), setup_span, setup_span,
                           "graph.build", b0, now_ns()});
            }
          }
        }
      }
      const std::int64_t t1 = now_ns();
      raw_.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      if (cfg_.trace) {
        tracer_.add({setup_span, 0, setup_span, "setup", t0, t1});
        tracer_.add({tracer_.next_id(), setup_span, setup_span,
                     "server.start", t0, t_started});
      }
    }
    port_ = server_->port();
  }

  // Runs each computing kind of each connection offline through run_batch:
  // the reference rows the stream must reproduce, and the offline wall of
  // the request (median over repetitions and connections).
  void references() {
    ref_rows_.assign(static_cast<std::size_t>(cfg_.threads),
                     std::vector<std::vector<RefRow>>(kKinds));
    std::string outputs;
    for (std::size_t k = 0; k < kKinds; ++k) {
      if (!computes(kMix[k])) continue;
      std::vector<double> walls;
      for (int c = 0; c < cfg_.threads; ++c) {
        const serve::Request req =
            serve::parse_request(request_line(kMix[k], "ref", client_seed(c)),
                                 serve::RequestLimits{});
        for (int rep = 0; rep < 3; ++rep) {
          const SweepOutcome outcome = run_batch(req.plan);
          walls.push_back(static_cast<double>(outcome.wall_ns) / 1e6);
          if (rep != 0) continue;
          for (const SweepRow& row : outcome.rows) {
            ref_rows_[static_cast<std::size_t>(c)][k].push_back(ref_row(row));
            raw_.local_rounds += row.rounds;
            outputs += row.problem + '/' + row.algo + '@' +
                       row.graph.family + ':' + std::to_string(row.nodes) +
                       ':' + std::string(row_status_name(row.status)) + ':' +
                       std::to_string(row.rounds) + ';';
          }
          const bool failed = !outcome.all_ok();
          if (failed != (std::string_view(kMix[k].expect) == "done_failed")) {
            raw_.errors.push_back(std::string(kMix[k].name) +
                                  ": offline outcome differs from the "
                                  "expected answer");
          }
        }
      }
      std::sort(walls.begin(), walls.end());
      raw_.offline_ms.emplace_back(kMix[k].name, walls[walls.size() / 2]);
    }
    raw_.outputs_digest = fnv1a(outputs);
  }

  Phase run_phase(bool traced, double seconds) {
    Phase phase;
    phase.traced = traced;
    const GraphCacheStats cache0 = GraphCache::instance().stats();
    const std::int64_t start = now_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::vector<OpRecord>> per_client(
        static_cast<std::size_t>(cfg_.threads));
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < cfg_.threads; ++c) {
        clients.emplace_back([&, c] {
          client_loop(c, deadline, traced,
                      per_client[static_cast<std::size_t>(c)]);
        });
      }
    }
    phase.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    for (auto& ops : per_client) {
      phase.ops.insert(phase.ops.end(), ops.begin(), ops.end());
    }
    if (!traced) {
      const GraphCacheStats cache1 = GraphCache::instance().stats();
      const auto hits = static_cast<double>(cache1.hits - cache0.hits);
      const auto misses = static_cast<double>(cache1.misses - cache0.misses);
      raw_.layers.emplace_back("graph_cache.hit_ratio",
                               hits + misses == 0 ? 0.0
                                                  : hits / (hits + misses));
    }
    return phase;
  }

  void client_loop(int c, std::int64_t deadline, bool traced,
                   std::vector<OpRecord>& ops) {
    auto conn = std::make_unique<Connection>(port_);
    const std::size_t offset = static_cast<std::size_t>(c) * kKinds /
                               static_cast<std::size_t>(cfg_.threads);
    for (std::size_t k = 0; now_ns() < deadline; ++k) {
      const std::size_t kind = order_[(offset + k) % kKinds];
      const std::string id = "c" + std::to_string(c) + "-" + std::to_string(k);
      Timeline tl;
      ops.push_back(exchange(*conn, c, kind, id, tl));
      if (traced) add_spans(ops.back(), tl);
      if (ops.back().answer == "disconnect") {
        conn = std::make_unique<Connection>(port_);
      }
    }
  }

  OpRecord exchange(Connection& conn, int c, std::size_t k,
                    const std::string& id, Timeline& tl) {
    const Kind& kind = kMix[k];
    OpRecord op{.kind = kind.name, .ok = true, .expect = kind.expect};
    const std::vector<RefRow>& ref = ref_rows_[static_cast<std::size_t>(c)][k];
    const std::string line = request_line(kind, id, client_seed(c));
    std::vector<bool> seen(ref.size(), false);
    tl.send = now_ns();
    if (!conn.connected() || !conn.send_line(line)) {
      op.answer = "disconnect";
    }
    while (op.answer.empty()) {
      const std::optional<std::string> reply = conn.read_line();
      if (!reply) {
        op.answer = "disconnect";
        break;
      }
      JsonValue v;
      try {
        v = serve::parse_json(*reply);
      } catch (const serve::JsonError&) {
        op.answer = "unparsable";
        break;
      }
      const JsonValue* type = v.find("type");
      const JsonValue* echoed = v.find("id");
      const std::string t =
          type != nullptr && type->is(JsonValue::Kind::kString) ? type->string
                                                               : "";
      if (t == "accepted") {
        tl.accepted = now_ns();
      } else if (t == "row") {
        tl.last_row = now_ns();
        if (tl.first_row == 0) tl.first_row = tl.last_row;
        const JsonValue* index = v.find("index");
        const JsonValue* row = v.find("row");
        std::optional<RefRow> got;
        if (row != nullptr) got = streamed_row(*row);
        const bool index_ok = index != nullptr &&
                              index->is(JsonValue::Kind::kInt) &&
                              index->integer >= 0 &&
                              static_cast<std::size_t>(index->integer) <
                                  ref.size() &&
                              !seen[static_cast<std::size_t>(index->integer)];
        if (!got || !index_ok ||
            !same_row(*got, ref[static_cast<std::size_t>(index->integer)])) {
          op.ok = false;
          continue;
        }
        seen[static_cast<std::size_t>(index->integer)] = true;
        op.rounds += got->rounds;
        if (got->status == "ok") {
          op.edges += static_cast<std::uint64_t>(got->edges);
        }
      } else if (t == "done") {
        const JsonValue* status = v.find("status");
        op.answer = status != nullptr && status->is(JsonValue::Kind::kString) &&
                            status->string == "ok"
                        ? "done"
                        : "done_failed";
      } else if (t == "error") {
        const JsonValue* status = v.find("status");
        op.answer = status != nullptr && status->is(JsonValue::Kind::kString)
                        ? status->string
                        : "error";
      } else if (t == "pong") {
        op.answer = "pong";
      } else {
        op.answer = "unexpected:" + t;
      }
      // Bad requests are refused before their id is read; every other
      // line must echo the request's id.
      if (op.answer != "bad_request" &&
          (echoed == nullptr || !echoed->is(JsonValue::Kind::kString) ||
           echoed->string != id)) {
        op.ok = false;
      }
    }
    tl.end = now_ns();
    op.ms = ms_between(tl.send, tl.end);
    if (std::count(seen.begin(), seen.end(), true) !=
        static_cast<std::ptrdiff_t>(ref.size())) {
      op.ok = false;
    }
    return op;
  }

  // Client-side spans of one request, from its response lines.
  void add_spans(const OpRecord& op, const Timeline& tl) {
    const std::uint64_t id = tracer_.next_id();
    tracer_.add({id, 0, id, "op:" + op.kind, tl.send, tl.end});
    const auto child = [&](const char* name, std::int64_t t0, std::int64_t t1) {
      tracer_.add({tracer_.next_id(), id, id, name, t0, t1});
    };
    if (tl.accepted == 0) {
      child(op.answer == "pong" ? "pong" : "refuse", tl.send, tl.end);
      return;
    }
    child("accept", tl.send, tl.accepted);
    if (tl.first_row == 0) {
      child("tail", tl.accepted, tl.end);
      return;
    }
    child("first_row", tl.accepted, tl.first_row);
    child("rows", tl.first_row, tl.last_row);
    child("tail", tl.last_row, tl.end);
  }

  // Layer costs measured outside the daemon: request parsing over the mix
  // and rendering each request's reference rows.
  void measure_offline_layers() {
    constexpr int kReps = 200;
    std::vector<std::string> lines;
    for (const Kind& kind : kMix) {
      lines.push_back(request_line(kind, "p", cfg_.seed));
    }
    const std::int64_t p0 = now_ns();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const std::string& line : lines) {
        try {
          (void)serve::parse_request(line, serve::RequestLimits{});
        } catch (const serve::BadRequest&) {
        }
      }
    }
    raw_.layers.emplace_back("serve.parse_us",
                             static_cast<double>(now_ns() - p0) / 1e3 /
                                 (kReps * static_cast<double>(kKinds)));

    double render_ms = 0;
    int computing = 0;
    for (std::size_t k = 0; k < kKinds; ++k) {
      if (!computes(kMix[k])) continue;
      ++computing;
      const serve::Request req = serve::parse_request(
          request_line(kMix[k], "r", cfg_.seed), serve::RequestLimits{});
      const SweepOutcome outcome = run_batch(req.plan);
      const std::int64_t r0 = now_ns();
      for (int rep = 0; rep < kReps; ++rep) {
        for (const SweepRow& row : outcome.rows) (void)row_to_json(row);
      }
      render_ms += ms_between(r0, now_ns()) / kReps;
    }
    raw_.layers.emplace_back("runner.render_ms", render_ms / computing);
  }

  // Graceful drain at the end: Server::stop() must leave nothing
  // outstanding and the port closed.
  void drain() {
    server_->stop();
    const serve::ServeStats stats = server_->stats();
    raw_.layers.emplace_back("serve.rejected",
                             static_cast<double>(stats.rejected));
    const Connection probe(port_);
    raw_.drained = stats.outstanding == 0 &&
                   stats.completed == stats.accepted && !probe.connected();
    if (!raw_.drained) {
      raw_.errors.push_back("daemon did not drain cleanly");
    }
  }

  const Config& cfg_;
  std::vector<std::size_t> order_;
  std::unique_ptr<serve::Server> server_;
  int port_ = 0;
  std::vector<std::vector<std::vector<RefRow>>> ref_rows_;  // [client][kind]
  Raw raw_;
  Tracer tracer_;
};

}  // namespace

Raw run_serve_tcp(const Config& cfg) { return ServeTcp(cfg).run(); }

}  // namespace perfbench
