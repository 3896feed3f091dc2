#include "serve/protocol.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "serve/json.hpp"

namespace padlock::serve {

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kPing:
      return "ping";
    case Op::kStats:
      return "stats";
    case Op::kRun:
      return "run";
    case Op::kSweep:
      return "sweep";
    case Op::kShutdown:
      return "shutdown";
  }
  return "?";
}

namespace {

// ---- typed field extraction (every mismatch is a BadRequest) ---------------

[[noreturn]] void refuse(const std::string& what) { throw BadRequest(what); }

long long require_int(const JsonValue& v, const std::string& key,
                      long long lo, long long hi) {
  if (!v.is(JsonValue::Kind::kInt)) {
    refuse("\"" + key + "\" expects an integer, got " +
           std::string(json_kind_name(v.kind)) +
           (v.is(JsonValue::Kind::kString) ? " '" + v.string + "'" : ""));
  }
  if (v.integer < lo || v.integer > hi) {
    refuse("\"" + key + "\" must be in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got " + std::to_string(v.integer));
  }
  return v.integer;
}

const std::string& require_string(const JsonValue& v, const std::string& key) {
  if (!v.is(JsonValue::Kind::kString)) {
    refuse("\"" + key + "\" expects a string, got " +
           std::string(json_kind_name(v.kind)));
  }
  return v.string;
}

bool require_bool(const JsonValue& v, const std::string& key) {
  if (!v.is(JsonValue::Kind::kBool)) {
    refuse("\"" + key + "\" expects a boolean, got " +
           std::string(json_kind_name(v.kind)));
  }
  return v.boolean;
}

bool key_in(const std::string& key, const char* const* first,
            const char* const* last) {
  return std::any_of(first, last, [&](const char* k) { return key == k; });
}

// The knobs kRun and kSweep share; returns true iff `key` was consumed.
bool apply_common_knob(const std::string& key, const JsonValue& v,
                       ExecutionPlan& plan, const RequestLimits& limits) {
  if (key == "degree") {
    const long long degree = require_int(v, key, 0, 1 << 20);
    for (GraphSpec& g : plan.graphs) g.degree = static_cast<int>(degree);
    return true;
  }
  if (key == "seed") {
    const long long seed =
        require_int(v, key, 0, std::numeric_limits<long long>::max());
    plan.options.seed = static_cast<std::uint64_t>(seed);
    for (GraphSpec& g : plan.graphs) g.seed = static_cast<std::uint64_t>(seed);
    return true;
  }
  if (key == "repeat") {
    plan.repeat = static_cast<int>(require_int(v, key, 1, limits.max_repeat));
    return true;
  }
  if (key == "ids") {
    try {
      plan.options.ids = id_strategy_from_name(require_string(v, key));
    } catch (const std::exception& e) {
      refuse(e.what());
    }
    return true;
  }
  if (key == "check") {
    plan.options.check = require_bool(v, key);
    return true;
  }
  return false;
}

// Knob passes run in two phases: the menu-shaping keys (families/sizes/
// nodes/...) first, then the common knobs, so "degree"/"seed" apply to
// every menu entry regardless of key order in the request.
void parse_run(const JsonValue& root, Request& req,
               const RequestLimits& limits) {
  static constexpr const char* kKeys[] = {
      "op",     "id",   "problem", "algo", "family", "nodes",
      "degree", "seed", "repeat",  "ids",  "check"};
  std::string problem, algo;
  GraphSpec spec;
  for (const auto& [key, value] : root.members) {
    if (!key_in(key, std::begin(kKeys), std::end(kKeys))) {
      refuse("unknown key \"" + key + "\" for op \"run\"");
    }
    if (key == "problem") problem = require_string(value, key);
    if (key == "algo") algo = require_string(value, key);
    if (key == "family") spec.family = require_string(value, key);
    if (key == "nodes") {
      spec.nodes = static_cast<std::size_t>(require_int(
          value, key, 1, static_cast<long long>(limits.max_nodes)));
    }
  }
  if (problem.empty()) refuse("op \"run\" requires \"problem\"");
  if (algo.empty()) refuse("op \"run\" requires \"algo\"");
  req.plan.pairs.emplace_back(problem, algo);
  req.plan.graphs.push_back(spec);
  for (const auto& [key, value] : root.members) {
    apply_common_knob(key, value, req.plan, limits);
  }
}

void parse_sweep(const JsonValue& root, Request& req,
                 const RequestLimits& limits) {
  static constexpr const char* kKeys[] = {
      "op",     "id",  "pairs", "families", "sizes", "degree", "seed",
      "repeat", "ids", "check"};
  std::vector<std::string> families{"regular"};
  std::vector<std::size_t> sizes{256};
  for (const auto& [key, value] : root.members) {
    if (!key_in(key, std::begin(kKeys), std::end(kKeys))) {
      refuse("unknown key \"" + key + "\" for op \"sweep\"");
    }
    if (key == "pairs") {
      if (!value.is(JsonValue::Kind::kArray)) {
        refuse("\"pairs\" expects an array of \"problem/algo\" strings");
      }
      if (value.items.size() > limits.max_pairs) {
        refuse("\"pairs\" exceeds the limit of " +
               std::to_string(limits.max_pairs) + " entries");
      }
      for (const JsonValue& item : value.items) {
        const std::string& pair = require_string(item, "pairs[]");
        const std::size_t slash = pair.find('/');
        if (slash == std::string::npos || slash == 0 ||
            slash + 1 == pair.size()) {
          refuse("\"pairs\" entries must look like \"problem/algo\", got '" +
                 pair + "'");
        }
        req.plan.pairs.emplace_back(pair.substr(0, slash),
                                    pair.substr(slash + 1));
      }
    }
    if (key == "families") {
      if (!value.is(JsonValue::Kind::kArray) || value.items.empty()) {
        refuse("\"families\" expects a non-empty array of family names");
      }
      families.clear();
      for (const JsonValue& item : value.items) {
        families.push_back(require_string(item, "families[]"));
      }
    }
    if (key == "sizes") {
      if (!value.is(JsonValue::Kind::kArray) || value.items.empty()) {
        refuse("\"sizes\" expects a non-empty array of node counts");
      }
      sizes.clear();
      for (const JsonValue& item : value.items) {
        sizes.push_back(static_cast<std::size_t>(require_int(
            item, "sizes[]", 1, static_cast<long long>(limits.max_nodes))));
      }
    }
  }
  if (families.size() * sizes.size() > limits.max_menu_graphs) {
    refuse("menu of " + std::to_string(families.size() * sizes.size()) +
           " graphs exceeds the limit of " +
           std::to_string(limits.max_menu_graphs));
  }
  for (const std::string& family : families) {
    for (const std::size_t n : sizes) {
      req.plan.graphs.push_back({family, n, 3, 1});
    }
  }
  for (const auto& [key, value] : root.members) {
    apply_common_knob(key, value, req.plan, limits);
  }
}

}  // namespace

Request parse_request(std::string_view line, const RequestLimits& limits) {
  JsonValue root;
  try {
    root = parse_json(line);
  } catch (const JsonError& e) {
    refuse(std::string("malformed JSON: ") + e.what());
  }
  if (!root.is(JsonValue::Kind::kObject)) {
    refuse("request must be a JSON object, got " +
           std::string(json_kind_name(root.kind)));
  }

  Request req;
  const JsonValue* op = root.find("op");
  if (op == nullptr) refuse("request requires \"op\"");
  const std::string& name = require_string(*op, "op");
  if (name == "ping") {
    req.op = Op::kPing;
  } else if (name == "stats") {
    req.op = Op::kStats;
  } else if (name == "run") {
    req.op = Op::kRun;
  } else if (name == "sweep") {
    req.op = Op::kSweep;
  } else if (name == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    refuse("unknown op '" + name +
           "'; expected ping|stats|run|sweep|shutdown");
  }

  if (const JsonValue* id = root.find("id")) {
    req.id = require_string(*id, "id");
    if (req.id.size() > limits.max_id_bytes) {
      refuse("\"id\" exceeds the limit of " +
             std::to_string(limits.max_id_bytes) + " bytes");
    }
  }

  switch (req.op) {
    case Op::kRun:
      parse_run(root, req, limits);
      break;
    case Op::kSweep:
      parse_sweep(root, req, limits);
      break;
    case Op::kPing:
    case Op::kStats:
    case Op::kShutdown:
      for (const auto& [key, value] : root.members) {
        (void)value;
        if (key != "op" && key != "id") {
          refuse("unknown key \"" + key + "\" for op \"" + name + "\"");
        }
      }
      break;
  }
  return req;
}

namespace {

// Every response line opens with the type and, when the request carried a
// correlation tag, the echoed id — so interleaved traffic on one daemon
// stays attributable.
std::string open_line(std::string_view type, const std::string& id) {
  std::string out = "{\"type\": ";
  out += json_quote(type);
  if (!id.empty()) {
    out += ", \"id\": ";
    out += json_quote(id);
  }
  return out;
}

}  // namespace

std::string pong_line(const Request& req) {
  return open_line("pong", req.id) +
         ", \"protocol\": " + std::to_string(kProtocolVersion) + "}\n";
}

std::string stats_line(const Request& req, const ServeStats& stats) {
  std::ostringstream out;
  out << open_line("stats", req.id)
      << ", \"connections\": " << stats.connections
      << ", \"requests\": " << stats.requests
      << ", \"accepted\": " << stats.accepted
      << ", \"rejected\": " << stats.rejected
      << ", \"bad_requests\": " << stats.bad_requests
      << ", \"oversized\": " << stats.oversized
      << ", \"completed\": " << stats.completed
      << ", \"rows_streamed\": " << stats.rows_streamed
      << ", \"outstanding\": " << stats.outstanding
      << ", \"engine_runs\": " << stats.engine_runs << "}\n";
  return out.str();
}

std::string accepted_line(const Request& req) {
  return open_line("accepted", req.id) + ", \"op\": " +
         std::string(json_quote(op_name(req.op))) + "}\n";
}

std::string row_line(const std::string& id, std::size_t index,
                     const SweepRow& row) {
  return open_line("row", id) + ", \"index\": " + std::to_string(index) +
         ", \"row\": " + row_to_json(row) + "}\n";
}

std::string done_line(const std::string& id, const SweepOutcome& outcome) {
  std::size_t failed = 0;
  for (const SweepRow& row : outcome.rows) {
    if (row.failed()) ++failed;
  }
  std::ostringstream out;
  out << open_line("done", id) << ", \"status\": "
      << (outcome.all_ok() ? "\"ok\"" : "\"failed\"")
      << ", \"rows\": " << outcome.rows.size() << ", \"failed\": " << failed
      << ", \"threads\": " << outcome.threads
      << ", \"wall_ns\": " << outcome.wall_ns << "}\n";
  return out.str();
}

std::string shutdown_line(const Request& req) {
  return open_line("shutdown", req.id) + ", \"status\": \"ok\"}\n";
}

std::string error_line(const std::string& id, std::string_view status,
                       std::string_view message) {
  return open_line("error", id) + ", \"status\": " +
         std::string(json_quote(status)) + ", \"message\": " +
         std::string(json_quote(message)) + "}\n";
}

}  // namespace padlock::serve
