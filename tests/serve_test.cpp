// The resident sweep daemon (src/serve/): wire-schema strictness, framing
// round-trips over real sockets, per-request fault isolation, streamed-row
// bit-identity against offline run_batch, admission control, and the
// graceful-shutdown drain.
//
// Wall-clock fields (wall_ns_min / wall_ns_median / edges_per_sec) are the
// only nondeterministic bytes of a row rendering, so — exactly like the
// sweep JSON golden (tests/sweep_json_test.cpp) — comparisons normalize
// them to 0 and require everything else to match byte for byte.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace padlock::serve {
namespace {

// ---- JSON parser strictness ------------------------------------------------

TEST(ServeJson, ParsesNestedValues) {
  const JsonValue v = parse_json(
      R"({"op": "sweep", "sizes": [64, 128], "check": true, "x": null})");
  ASSERT_TRUE(v.is(JsonValue::Kind::kObject));
  EXPECT_EQ(v.find("op")->string, "sweep");
  ASSERT_EQ(v.find("sizes")->items.size(), 2u);
  EXPECT_EQ(v.find("sizes")->items[1].integer, 128);
  EXPECT_TRUE(v.find("check")->boolean);
  EXPECT_TRUE(v.find("x")->is(JsonValue::Kind::kNull));
}

TEST(ServeJson, RefusesMalformedInput) {
  EXPECT_THROW(parse_json("{\"a\": }"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": 1"), JsonError);
  EXPECT_THROW(parse_json("[1, 2,]"), JsonError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonError);
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("tru"), JsonError);
}

TEST(ServeJson, RefusesTrailingBytes) {
  EXPECT_THROW(parse_json("{} {}"), JsonError);
  EXPECT_THROW(parse_json("123abc"), JsonError);
}

TEST(ServeJson, RefusesDuplicateKeys) {
  EXPECT_THROW(parse_json(R"({"a": 1, "a": 2})"), JsonError);
}

TEST(ServeJson, RefusesDeepNesting) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += '[';
  for (int i = 0; i < 64; ++i) deep += ']';
  EXPECT_THROW(parse_json(deep), JsonError);
}

TEST(ServeJson, IntegerOverflowIsAnError) {
  EXPECT_THROW(parse_json("99999999999999999999"), JsonError);
  EXPECT_EQ(parse_json("9223372036854775807").integer,
            9223372036854775807LL);
}

TEST(ServeJson, RefusesSurrogateEscapes) {
  EXPECT_THROW(parse_json("\"\\ud83d\\ude00\""), JsonError);
  EXPECT_EQ(parse_json("\"\\u00e9\"").string, "\xC3\xA9");
}

// ---- request schema strictness ---------------------------------------------

RequestLimits test_limits() { return RequestLimits{}; }

TEST(ServeProtocol, ParsesRunRequest) {
  const Request req = parse_request(
      R"({"op": "run", "id": "r1", "problem": "mis", "algo": "luby",)"
      R"( "nodes": 512, "seed": 3, "repeat": 2})",
      test_limits());
  EXPECT_EQ(req.op, Op::kRun);
  EXPECT_EQ(req.id, "r1");
  ASSERT_EQ(req.plan.pairs.size(), 1u);
  EXPECT_EQ(req.plan.pairs[0].first, "mis");
  ASSERT_EQ(req.plan.graphs.size(), 1u);
  EXPECT_EQ(req.plan.graphs[0].nodes, 512u);
  EXPECT_EQ(req.plan.graphs[0].seed, 3u);
  EXPECT_EQ(req.plan.repeat, 2);
  EXPECT_EQ(req.plan.threads, 0);  // the daemon contract: never resize
}

TEST(ServeProtocol, KnobOrderDoesNotMatter) {
  // "seed" before "sizes" must still apply to every menu entry.
  const Request req = parse_request(
      R"({"op": "sweep", "seed": 9, "sizes": [64, 128], "degree": 4})",
      test_limits());
  ASSERT_EQ(req.plan.graphs.size(), 2u);
  for (const GraphSpec& g : req.plan.graphs) {
    EXPECT_EQ(g.seed, 9u);
    EXPECT_EQ(g.degree, 4);
  }
}

TEST(ServeProtocol, RefusesSchemaViolations) {
  const RequestLimits limits = test_limits();
  // The strtol-era "16k" bug, refused at the type layer.
  EXPECT_THROW(parse_request(R"({"op": "run", "problem": "mis",)"
                             R"( "algo": "luby", "nodes": "16k"})",
                             limits),
               BadRequest);
  EXPECT_THROW(parse_request(R"({"op": "run", "problem": "mis"})", limits),
               BadRequest);  // missing algo
  EXPECT_THROW(parse_request(R"({"op": "run", "problem": "mis",)"
                             R"( "algo": "luby", "bogus": 1})",
                             limits),
               BadRequest);  // unknown key
  EXPECT_THROW(parse_request(R"({"op": "nope"})", limits), BadRequest);
  EXPECT_THROW(parse_request("not json at all", limits), BadRequest);
  EXPECT_THROW(parse_request(R"({"op": "run", "problem": "mis",)"
                             R"( "algo": "luby", "nodes": 0})",
                             limits),
               BadRequest);  // out of range, not clamped
  EXPECT_THROW(parse_request(R"({"op": "sweep", "pairs": ["mis-luby"]})",
                             limits),
               BadRequest);  // pair spec must be problem/algo
  // The retired executor knobs are unknown keys like any other.
  EXPECT_THROW(parse_request(R"({"op": "sweep", "engine": "v3"})", limits),
               BadRequest);
  EXPECT_THROW(parse_request(R"({"op": "run", "problem": "mis",)"
                             R"( "algo": "luby", "substrate": "pinned"})",
                             limits),
               BadRequest);
  EXPECT_THROW(parse_request(R"({"op": "sweep", "shards": 4})", limits),
               BadRequest);
  EXPECT_THROW(parse_request(R"({"op": "run", "problem": "mis",)"
                             R"( "algo": "luby", "shards": 1})",
                             limits),
               BadRequest);
  // So is the removed graph-cache bypass: every menu goes through the cache.
  EXPECT_THROW(parse_request(R"({"op": "sweep", "cache": false})", limits),
               BadRequest);
  EXPECT_THROW(parse_request(R"({"op": "run", "problem": "mis",)"
                             R"( "algo": "luby", "cache": true})",
                             limits),
               BadRequest);
  EXPECT_THROW(parse_request(R"({"op": "ping", "nodes": 1})", limits),
               BadRequest);  // ping takes only op/id
}

TEST(ServeProtocol, EnforcesLimits) {
  RequestLimits limits = test_limits();
  limits.max_menu_graphs = 4;
  EXPECT_THROW(parse_request(R"({"op": "sweep", "families": ["regular",)"
                             R"( "cycle", "tree"], "sizes": [8, 16]})",
                             limits),
               BadRequest);  // 3 x 2 menu > 4
  limits.max_id_bytes = 4;
  EXPECT_THROW(parse_request(R"({"op": "ping", "id": "toolong"})", limits),
               BadRequest);
}

// ---- socket-level tests ----------------------------------------------------

// Minimal blocking line client against a live Server.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~TestClient() { close(); }

  [[nodiscard]] bool connected() const { return connected_; }

  bool send_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // One line without its '\n'; nullopt on EOF.
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
  bool connected_ = false;
  std::string buf_;
};

bool has_type(const std::string& line, const std::string& type) {
  return line.find("\"type\": \"" + type + "\"") != std::string::npos;
}

// The wall-clock fields are the only nondeterministic bytes of a row; zero
// them the way the sweep golden's normalize_walls does.
std::string normalize_walls(std::string s) {
  static const std::regex kWall(
      "(\"(?:wall_ns_min|wall_ns_median|edges_per_sec)\": )\\d+");
  return std::regex_replace(s, kWall, "$010");
}

// Extracts the row object from a {"type": "row", ..., "row": {...}} line.
std::string row_payload(const std::string& line) {
  const std::size_t start = line.find("\"row\": ") + 7;  // the row object
  return line.substr(start, line.size() - start - 1);    // strip final '}'
}

ServerOptions base_options() {
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  return opts;
}

// A request that keeps one executor busy long enough for admission /
// shutdown races to be deterministic (~hundreds of ms).
std::string slow_request(const std::string& id) {
  return "{\"op\": \"run\", \"id\": \"" + id +
         "\", \"problem\": \"mis\", \"algo\": \"luby\", "
         "\"nodes\": 16384, \"repeat\": 30}\n";
}

TEST(ServeServer, PingAndStatsRoundTrip) {
  Server server(base_options());
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.send_line("{\"op\": \"ping\", \"id\": \"p\"}\n"));
  const auto pong = client.read_line();
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(has_type(*pong, "pong")) << *pong;
  EXPECT_NE(pong->find("\"id\": \"p\""), std::string::npos);

  ASSERT_TRUE(client.send_line("{\"op\": \"stats\"}\n"));
  const auto stats = client.read_line();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(has_type(*stats, "stats")) << *stats;
  EXPECT_NE(stats->find("\"connections\": 1"), std::string::npos) << *stats;
  // The engine gauge rides every stats line (a process-wide total; its
  // value depends on what ran before, the key is the contract).
  EXPECT_NE(stats->find("\"engine_runs\""), std::string::npos) << *stats;
  server.stop();
}

// Over the wire the retired "shards" key gets the same bad_request line as
// any unknown key and admits no work; the same sweep without it runs, its
// done line carries no shard field, and the engine-run gauge ticks.
TEST(ServeServer, ShardsKeyIsRefusedAndPlainSweepRuns) {
  Server server(base_options());
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string sweep =
      R"({"op": "sweep", "id": "p", "pairs": ["mis/luby"],)"
      R"( "families": ["regular"], "sizes": [512], "seed": 5)";
  ASSERT_TRUE(client.send_line(sweep + R"(, "shards": 4})" "\n"));
  const auto refused = client.read_line();
  ASSERT_TRUE(refused.has_value());
  EXPECT_TRUE(has_type(*refused, "error")) << *refused;
  EXPECT_NE(refused->find("\"status\": \"bad_request\""), std::string::npos)
      << *refused;
  EXPECT_NE(refused->find("unknown key"), std::string::npos) << *refused;

  ASSERT_TRUE(client.send_line(sweep + "}\n"));
  std::string done;
  for (;;) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "daemon hung up mid-stream";
    if (has_type(*line, "done")) {
      done = *line;
      break;
    }
  }
  EXPECT_NE(done.find("\"status\": \"ok\""), std::string::npos) << done;
  EXPECT_EQ(done.find("shards"), std::string::npos) << done;

  ASSERT_TRUE(client.send_line("{\"op\": \"stats\"}\n"));
  const auto stats = client.read_line();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->find("\"engine_runs\": 0}"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"bad_requests\": 1"), std::string::npos) << *stats;
  server.stop();
}

// The tentpole bit-identity contract: a row streamed by the daemon must
// render byte-identically to the same row of an offline run_batch (up to
// the normalized wall-clock fields).
TEST(ServeServer, StreamedRowsMatchOfflineRunBatch) {
  Server server(base_options());
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string request =
      R"({"op": "sweep", "id": "s", "pairs": ["mis/luby",)"
      R"( "3-coloring/cole-vishkin"], "families": ["regular", "cycle"],)"
      R"( "sizes": [64, 256], "seed": 5})"
      "\n";
  ASSERT_TRUE(client.send_line(request));

  std::map<std::size_t, std::string> streamed;
  for (;;) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "daemon hung up mid-stream";
    if (has_type(*line, "accepted")) continue;
    if (has_type(*line, "row")) {
      const std::size_t at = line->find("\"index\": ");
      ASSERT_NE(at, std::string::npos);
      const std::size_t index = static_cast<std::size_t>(
          std::stoull(line->substr(at + 9)));
      streamed[index] = row_payload(*line);
      continue;
    }
    EXPECT_TRUE(has_type(*line, "done")) << *line;
    break;
  }
  server.stop();

  // The identical plan offline (the defaults parse_request applies).
  ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}, {"3-coloring", "cole-vishkin"}};
  for (const char* family : {"regular", "cycle"}) {
    for (const std::size_t n : {std::size_t{64}, std::size_t{256}}) {
      plan.graphs.push_back({family, n, 3, 5});
    }
  }
  plan.options.seed = 5;
  const SweepOutcome offline = run_batch(plan);

  ASSERT_EQ(streamed.size(), offline.rows.size());
  for (std::size_t i = 0; i < offline.rows.size(); ++i) {
    ASSERT_TRUE(streamed.count(i)) << "row " << i << " was never streamed";
    EXPECT_EQ(normalize_walls(streamed[i]),
              normalize_walls(row_to_json(offline.rows[i])))
        << "row " << i;
  }
}

// Poison traffic is answered and isolated: malformed JSON keeps the
// connection usable, an unknown pair poisons only its own row, and a
// concurrent healthy connection still gets bit-exact results.
TEST(ServeServer, FaultIsolationAcrossConnections) {
  Server server(base_options());
  server.start();

  TestClient poison(server.port());
  TestClient healthy(server.port());
  ASSERT_TRUE(poison.connected());
  ASSERT_TRUE(healthy.connected());

  // Healthy run in flight while the other connection misbehaves.
  ASSERT_TRUE(healthy.send_line(
      R"({"op": "run", "id": "h", "problem": "mis", "algo": "luby",)"
      R"( "nodes": 256})"
      "\n"));

  ASSERT_TRUE(poison.send_line("{\"op\": \"run\", \"nodes\": \n"));
  auto answer = poison.read_line();
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(has_type(*answer, "error")) << *answer;
  EXPECT_NE(answer->find("\"status\": \"bad_request\""), std::string::npos);

  // Same connection, next line: still fully usable.
  ASSERT_TRUE(poison.send_line(
      R"({"op": "run", "id": "u", "problem": "no-such", "algo": "none"})"
      "\n"));
  bool saw_error_row = false;
  for (;;) {
    answer = poison.read_line();
    ASSERT_TRUE(answer.has_value());
    if (has_type(*answer, "accepted")) continue;
    if (has_type(*answer, "row")) {
      EXPECT_NE(answer->find("\"status\": \"error\""), std::string::npos);
      saw_error_row = true;
      continue;
    }
    EXPECT_TRUE(has_type(*answer, "done")) << *answer;
    EXPECT_NE(answer->find("\"status\": \"failed\""), std::string::npos);
    break;
  }
  EXPECT_TRUE(saw_error_row);

  // The healthy request was untouched by any of it.
  std::string healthy_row;
  for (;;) {
    const auto line = healthy.read_line();
    ASSERT_TRUE(line.has_value());
    if (has_type(*line, "accepted")) continue;
    if (has_type(*line, "row")) {
      healthy_row = row_payload(*line);
      continue;
    }
    EXPECT_TRUE(has_type(*line, "done")) << *line;
    EXPECT_NE(line->find("\"status\": \"ok\""), std::string::npos) << *line;
    break;
  }
  server.stop();

  ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}};
  plan.graphs.push_back({"regular", 256, 3, 1});
  const SweepOutcome offline = run_batch(plan);
  ASSERT_EQ(offline.rows.size(), 1u);
  EXPECT_EQ(normalize_walls(healthy_row),
            normalize_walls(row_to_json(offline.rows[0])));
}

TEST(ServeServer, OversizedRequestAnsweredAndConnectionClosed) {
  ServerOptions opts = base_options();
  opts.max_request_bytes = 256;
  Server server(opts);
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  std::string big = "{\"op\": \"run\", \"id\": \"";
  big.append(500, 'x');
  big += "\"}\n";
  ASSERT_TRUE(client.send_line(big));
  const auto answer = client.read_line();
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(has_type(*answer, "error")) << *answer;
  EXPECT_NE(answer->find("\"status\": \"oversized\""), std::string::npos);
  // Framing can no longer be trusted, so the daemon hangs up.
  EXPECT_FALSE(client.read_line().has_value());
  EXPECT_EQ(server.stats().oversized, 1u);
  server.stop();
}

TEST(ServeServer, AdmissionControlRejectsWhenFull) {
  ServerOptions opts = base_options();
  opts.max_in_flight = 1;
  opts.queue_limit = 0;
  Server server(opts);
  server.start();

  TestClient busy(server.port());
  ASSERT_TRUE(busy.connected());
  ASSERT_TRUE(busy.send_line(slow_request("slow")));
  // The accepted line is written at execution start, so after reading it
  // the single in-flight slot is definitely held.
  const auto accepted = busy.read_line();
  ASSERT_TRUE(accepted.has_value());
  EXPECT_TRUE(has_type(*accepted, "accepted")) << *accepted;

  TestClient refused(server.port());
  ASSERT_TRUE(refused.connected());
  ASSERT_TRUE(refused.send_line(
      R"({"op": "run", "id": "r", "problem": "mis", "algo": "luby"})"
      "\n"));
  const auto rejection = refused.read_line();
  ASSERT_TRUE(rejection.has_value());
  EXPECT_TRUE(has_type(*rejection, "error")) << *rejection;
  EXPECT_NE(rejection->find("\"status\": \"rejected\""), std::string::npos);
  EXPECT_EQ(server.stats().rejected, 1u);

  // The busy request still completes normally.
  for (;;) {
    const auto line = busy.read_line();
    ASSERT_TRUE(line.has_value());
    if (has_type(*line, "done")) {
      EXPECT_NE(line->find("\"status\": \"ok\""), std::string::npos);
      break;
    }
  }
  server.stop();
}

// Graceful shutdown: the in-flight request drains to its final row and
// done line; the queued-but-unstarted one is answered with `shutdown`.
TEST(ServeServer, GracefulShutdownDrainsInFlightWork) {
  ServerOptions opts = base_options();
  opts.max_in_flight = 1;
  opts.queue_limit = 8;
  Server server(opts);
  server.start();

  TestClient in_flight(server.port());
  ASSERT_TRUE(in_flight.connected());
  ASSERT_TRUE(in_flight.send_line(slow_request("drain")));
  const auto accepted = in_flight.read_line();
  ASSERT_TRUE(accepted.has_value());
  EXPECT_TRUE(has_type(*accepted, "accepted")) << *accepted;

  TestClient queued(server.port());
  ASSERT_TRUE(queued.connected());
  ASSERT_TRUE(queued.send_line(
      R"({"op": "run", "id": "q", "problem": "mis", "algo": "luby"})"
      "\n"));
  // Wait until the second request is admitted (outstanding gauge = 2) so
  // stop() deterministically finds it queued behind the busy executor.
  for (int i = 0; i < 200 && server.stats().outstanding < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.stats().outstanding, 2u);

  server.stop();

  // The in-flight request drained: row + done, status ok.
  bool saw_row = false, saw_done = false;
  for (;;) {
    const auto line = in_flight.read_line();
    if (!line) break;
    if (has_type(*line, "row")) saw_row = true;
    if (has_type(*line, "done")) {
      EXPECT_NE(line->find("\"status\": \"ok\""), std::string::npos);
      saw_done = true;
    }
  }
  EXPECT_TRUE(saw_row);
  EXPECT_TRUE(saw_done);

  // The queued one was answered, not dropped.
  for (;;) {
    const auto line = queued.read_line();
    ASSERT_TRUE(line.has_value()) << "queued request was never answered";
    if (has_type(*line, "error")) {
      EXPECT_NE(line->find("\"status\": \"shutdown\""), std::string::npos)
          << *line;
      break;
    }
  }
}

TEST(ServeServer, ShutdownOpStopsAdmissionAndWakesOwner) {
  Server server(base_options());
  server.start();
  EXPECT_FALSE(server.shutdown_requested());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line("{\"op\": \"shutdown\"}\n"));
  const auto ack = client.read_line();
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(has_type(*ack, "shutdown")) << *ack;
  EXPECT_TRUE(server.wait_for_shutdown(2000));

  // New work after the shutdown op is refused with a shutdown status.
  ASSERT_TRUE(client.send_line(
      R"({"op": "run", "id": "late", "problem": "mis", "algo": "luby"})"
      "\n"));
  const auto refusal = client.read_line();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_TRUE(has_type(*refusal, "error")) << *refusal;
  EXPECT_NE(refusal->find("\"status\": \"shutdown\""), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace padlock::serve
