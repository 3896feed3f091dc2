// Wire protocol of the resident sweep daemon (`padlock_cli serve`,
// docs/API.md "Serve"): newline-delimited JSON requests in, newline-
// delimited JSON response lines out.
//
// Request hygiene is strict by design — the daemon is the first surface
// where untrusted bytes reach the runner, so every violation is refused
// *before* any work is admitted: unknown top-level keys, wrong value types
// (an integer field given "16k" or 4.5), out-of-range sizes, malformed
// pair specs, and oversized id tags are all BadRequest, never a silent
// default or truncation. Semantic errors the registry scopes per row
// (unknown problem/algo names, a family that fails to build) are NOT
// request errors: they stream back as ordinary poisoned rows, exactly as
// an offline sweep reports them.
//
// Requests (one JSON object per line):
//   {"op": "ping"}                     liveness probe
//   {"op": "stats"}                    daemon counters
//   {"op": "run",   "problem": P, "algo": A, ...knobs}    one-pair sweep
//   {"op": "sweep", "pairs": ["p/a",...], "families": [...],
//                   "sizes": [...], ...knobs}             full plan
//   {"op": "shutdown"}                 graceful drain + exit
// Shared knobs (all optional): "id" (string echoed on every response line),
// "degree", "seed", "repeat", "ids" (id-strategy name), "check" (bool).
// Any other key is refused as unknown; every menu resolves through the
// process-wide GraphCache.
//
// Responses (one JSON object per line, every line echoing the request id):
//   {"type": "accepted", ...}          the request started executing
//   {"type": "row", "index": I, "row": {...}}   one finished sweep row,
//       the row object byte-identical to the offline to_json rendering
//   {"type": "done", "status": "ok"|"failed", ...}   terminal success line
//   {"type": "error", "status": S, "message": M}     terminal refusal
//       (S: bad_request | rejected | oversized | shutdown | internal)
//   {"type": "pong"} / {"type": "stats", ...}        ping/stats answers
//   {"type": "shutdown", "status": "ok"}             shutdown op ack
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/runner.hpp"

namespace padlock::serve {

/// Wire protocol version, echoed by pong lines.
constexpr int kProtocolVersion = 1;

enum class Op { kPing, kStats, kRun, kSweep, kShutdown };

[[nodiscard]] std::string_view op_name(Op op);

/// One parsed, validated request. For kRun/kSweep, `plan` is ready for
/// run_batch (the daemon only adds its streaming hook); `plan.threads`
/// stays 0 by contract — the daemon shares one process-wide pool across
/// requests and never lets a request resize it.
struct Request {
  Op op = Op::kPing;
  std::string id;      // optional client correlation tag, echoed verbatim
  ExecutionPlan plan;  // kRun / kSweep only
};

/// Schema ceilings enforced by parse_request (strict request hygiene:
/// refusing up front is what keeps one greedy request from pinning the
/// daemon's memory before admission control even sees it).
struct RequestLimits {
  std::size_t max_nodes = std::size_t{1} << 22;
  int max_repeat = 1000;
  std::size_t max_menu_graphs = 1024;  // families × sizes of one request
  std::size_t max_pairs = 256;
  std::size_t max_id_bytes = 64;
};

/// Thrown by parse_request; the message is safe to echo to the client.
class BadRequest : public std::runtime_error {
 public:
  explicit BadRequest(const std::string& what) : std::runtime_error(what) {}
};

/// Parses and validates one request line against `limits`. Throws
/// BadRequest on any violation (including malformed JSON).
[[nodiscard]] Request parse_request(std::string_view line,
                                    const RequestLimits& limits);

/// Daemon counters surfaced by the stats op and the shutdown banner.
struct ServeStats {
  std::uint64_t connections = 0;     // accepted connections, lifetime
  std::uint64_t requests = 0;        // parsed run/sweep requests
  std::uint64_t accepted = 0;        // admitted into the queue
  std::uint64_t rejected = 0;        // refused by admission control
  std::uint64_t bad_requests = 0;    // schema/framing violations answered
  std::uint64_t oversized = 0;       // request lines over the byte limit
  std::uint64_t completed = 0;       // run/sweep requests fully answered
  std::uint64_t rows_streamed = 0;   // row lines written
  std::uint64_t outstanding = 0;     // admitted, not yet completed (gauge)
  // Round-engine gauge, a snapshot of the process-wide EngineGaugeTotals
  // (local/message_engine_stats.hpp) at stats time.
  std::uint64_t engine_runs = 0;      // engine executions, lifetime
};

// ---- response lines (each returned with its trailing '\n') ----------------

[[nodiscard]] std::string pong_line(const Request& req);
[[nodiscard]] std::string stats_line(const Request& req,
                                     const ServeStats& stats);
[[nodiscard]] std::string accepted_line(const Request& req);
[[nodiscard]] std::string row_line(const std::string& id, std::size_t index,
                                   const SweepRow& row);
[[nodiscard]] std::string done_line(const std::string& id,
                                    const SweepOutcome& outcome);
[[nodiscard]] std::string shutdown_line(const Request& req);
[[nodiscard]] std::string error_line(const std::string& id,
                                     std::string_view status,
                                     std::string_view message);

}  // namespace padlock::serve
