#include "io/serialize.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace padlock::io {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("padlock::io: " + what);
}

std::string next_line(std::istream& is) {
  std::string line;
  while (std::getline(is, line)) {
    // Tolerate CRLF input and stray trailing blanks: getline keeps the
    // '\r' of a Windows line ending, which would otherwise poison every
    // header and keyword comparison downstream.
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
      line.pop_back();
    }
    if (!line.empty()) return line;
  }
  fail("unexpected end of input");
}

void expect_header(std::istream& is, const std::string& header) {
  const std::string line = next_line(is);
  if (line != header) fail("expected '" + header + "', got '" + line + "'");
}

// ---- fast tokenizing ------------------------------------------------------
// The readers used to build an istringstream per line and extract tokens
// through operator>>; this cursor does the same grammar (whitespace-
// separated tokens, trailing garbage ignored) with std::from_chars — the
// io/padded-roundtrip hot path spends its time here.

struct Cursor {
  const char* p;
  const char* end;

  // Borrows `line` — the string must outlive the cursor (bind it to a
  // named local, never to a temporary).
  explicit Cursor(const std::string& line)
      : p(line.data()), end(line.data() + line.size()) {}

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
  }

  /// Consumes `kw` iff it is the next whole token.
  bool keyword(std::string_view kw) {
    skip_ws();
    if (static_cast<std::size_t>(end - p) < kw.size()) return false;
    if (std::string_view(p, kw.size()) != kw) return false;
    const char* after = p + kw.size();
    if (after < end && *after != ' ' && *after != '\t') return false;
    p = after;
    return true;
  }

  /// Consumes the next token as a number into `out`.
  template <typename T>
  bool num(T& out) {
    skip_ws();
    const auto [ptr, ec] = std::from_chars(p, end, out);
    if (ec != std::errc()) return false;
    if (ptr < end && *ptr != ' ' && *ptr != '\t') return false;
    p = ptr;
    return true;
  }
};

// ---- fast writing ---------------------------------------------------------
// The writers build one pre-reserved string per top-level object and flush
// it with a single ostream write instead of pushing every token through
// stream formatting.

void append_num(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_num(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_num(std::string& out, std::uint32_t v) {
  append_num(out, static_cast<std::uint64_t>(v));
}

void append_num(std::string& out, int v) {
  append_num(out, static_cast<std::int64_t>(v));
}

void append_graph(std::string& out, const Graph& g) {
  out.reserve(out.size() + 64 + 26 * g.num_edges());
  out += "padlock-graph v1\nnodes ";
  append_num(out, g.num_nodes());
  out += "\nedges ";
  append_num(out, g.num_edges());
  out += '\n';
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    out += "e ";
    append_num(out, u);
    out += ' ';
    append_num(out, v);
    out += '\n';
  }
}

void append_labeling(std::string& out, const NeLabeling& l) {
  out.reserve(out.size() + 64 + 16 * l.node.size() + 40 * l.edge.size());
  out += "padlock-labeling v1\nnodes ";
  append_num(out, l.node.size());
  out += " edges ";
  append_num(out, l.edge.size());
  out += '\n';
  for (NodeId v = 0; v < l.node.size(); ++v) {
    if (l.node[v] == kEmptyLabel) continue;
    out += "n ";
    append_num(out, v);
    out += ' ';
    append_num(out, l.node[v]);
    out += '\n';
  }
  for (EdgeId e = 0; e < l.edge.size(); ++e) {
    if (l.edge[e] != kEmptyLabel) {
      out += "e ";
      append_num(out, e);
      out += ' ';
      append_num(out, l.edge[e]);
      out += '\n';
    }
    for (int s = 0; s < 2; ++s) {
      const Label h = l.half[HalfEdge{e, s}];
      if (h == kEmptyLabel) continue;
      out += "h ";
      append_num(out, e);
      out += ' ';
      append_num(out, s);
      out += ' ';
      append_num(out, h);
      out += '\n';
    }
  }
  out += "end\n";
}

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  std::string out;
  append_graph(out, g);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

Graph read_graph(std::istream& is) {
  expect_header(is, "padlock-graph v1");
  std::size_t n = 0, m = 0;
  {
    const std::string line = next_line(is);
    Cursor c(line);
    if (!c.keyword("nodes") || !c.num(n)) fail("bad nodes line");
    if (n > kMaxGraphNodes)
      fail("node count " + std::to_string(n) + " above the cap of " +
           std::to_string(kMaxGraphNodes));
  }
  {
    const std::string line = next_line(is);
    Cursor c(line);
    if (!c.keyword("edges") || !c.num(m)) fail("bad edges line");
  }
  // No reservation from either header count: edges grow as their lines
  // actually arrive.
  GraphBuilder b;
  b.add_nodes(n);
  for (std::size_t i = 0; i < m; ++i) {
    const std::string line = next_line(is);
    Cursor c(line);
    NodeId u = 0, v = 0;
    if (!c.keyword("e") || !c.num(u) || !c.num(v)) fail("bad edge line");
    if (u >= n || v >= n) fail("edge endpoint out of range");
    b.add_edge(u, v);
  }
  return std::move(b).build();
}

void write_labeling(std::ostream& os, const NeLabeling& l) {
  std::string out;
  append_labeling(out, l);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

NeLabeling read_labeling(std::istream& is, const Graph& g) {
  expect_header(is, "padlock-labeling v1");
  {
    const std::string line = next_line(is);
    Cursor c(line);
    std::size_t n = 0, m = 0;
    if (!c.keyword("nodes") || !c.num(n) || !c.keyword("edges") ||
        !c.num(m)) {
      fail("bad labeling size line");
    }
    if (n != g.num_nodes() || m != g.num_edges()) {
      fail("labeling shape does not match graph");
    }
  }
  NeLabeling l(g);
  for (;;) {
    const std::string line = next_line(is);
    if (line == "end") break;
    Cursor c(line);
    if (c.keyword("n")) {
      NodeId v = 0;
      Label x = 0;
      if (!c.num(v) || !c.num(x) || v >= g.num_nodes())
        fail("bad node label line");
      l.node[v] = x;
    } else if (c.keyword("e")) {
      EdgeId e = 0;
      Label x = 0;
      if (!c.num(e) || !c.num(x) || e >= g.num_edges())
        fail("bad edge label line");
      l.edge[e] = x;
    } else if (c.keyword("h")) {
      EdgeId e = 0;
      int s = 0;
      Label x = 0;
      if (!c.num(e) || !c.num(s) || !c.num(x) || e >= g.num_edges() ||
          (s != 0 && s != 1)) {
        fail("bad half label line");
      }
      l.half[HalfEdge{e, s}] = x;
    } else {
      fail("unknown labeling line '" + line + "'");
    }
  }
  return l;
}

void write_padded_instance(std::ostream& os, const PaddedInstance& inst) {
  const Graph& g = inst.graph;
  std::string out;
  out.reserve(96 + 26 * g.num_edges() + 40 * g.num_nodes());
  out += "padlock-padded v1\n";
  append_graph(out, g);
  out += "delta ";
  append_num(out, inst.gadget.delta);
  out += '\n';
  if (inst.family == GadgetFamilyKind::kPath) out += "family path\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool dflt = inst.gadget.index[v] == 0 && inst.gadget.port[v] == 0 &&
                      !inst.gadget.center[v] && inst.gadget.vcolor[v] == 0;
    if (dflt) continue;
    out += "gnode ";
    append_num(out, v);
    out += ' ';
    append_num(out, inst.gadget.index[v]);
    out += ' ';
    append_num(out, inst.gadget.port[v]);
    out += ' ';
    append_num(out, inst.gadget.center[v] ? 1 : 0);
    out += ' ';
    append_num(out, inst.gadget.vcolor[v]);
    out += '\n';
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (int s = 0; s < 2; ++s) {
      const int h = inst.gadget.half[HalfEdge{e, s}];
      if (h == kHalfNone) continue;
      out += "ghalf ";
      append_num(out, e);
      out += ' ';
      append_num(out, s);
      out += ' ';
      append_num(out, h);
      out += '\n';
    }
    if (inst.port_edge[e]) {
      out += "pedge ";
      append_num(out, e);
      out += '\n';
    }
  }
  append_labeling(out, inst.pi_input);
  out += "end\n";
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

PaddedInstance read_padded_instance(std::istream& is) {
  expect_header(is, "padlock-padded v1");
  PaddedInstance inst;
  inst.graph = read_graph(is);
  const Graph& g = inst.graph;
  inst.gadget = GadgetLabels(g);
  inst.port_edge = EdgeMap<bool>(g, false);

  for (;;) {
    const std::string line = next_line(is);
    Cursor c(line);
    if (c.keyword("delta")) {
      if (!c.num(inst.gadget.delta)) fail("bad delta line");
    } else if (c.keyword("family")) {
      if (c.keyword("path")) {
        inst.family = GadgetFamilyKind::kPath;
      } else if (c.keyword("tree")) {
        inst.family = GadgetFamilyKind::kTree;
      } else {
        fail("unknown gadget family in '" + line + "'");
      }
    } else if (c.keyword("gnode")) {
      NodeId v = 0;
      int index = 0, port = 0, center = 0, vcolor = 0;
      if (!c.num(v) || !c.num(index) || !c.num(port) || !c.num(center) ||
          !c.num(vcolor) || v >= g.num_nodes()) {
        fail("bad gnode line");
      }
      inst.gadget.index[v] = index;
      inst.gadget.port[v] = port;
      inst.gadget.center[v] = center != 0;
      inst.gadget.vcolor[v] = vcolor;
    } else if (c.keyword("ghalf")) {
      EdgeId e = 0;
      int s = 0, h = 0;
      if (!c.num(e) || !c.num(s) || !c.num(h) || e >= g.num_edges() ||
          (s != 0 && s != 1)) {
        fail("bad ghalf line");
      }
      inst.gadget.half[HalfEdge{e, s}] = h;
    } else if (c.keyword("pedge")) {
      EdgeId e = 0;
      if (!c.num(e) || e >= g.num_edges()) fail("bad pedge line");
      inst.port_edge[e] = true;
    } else if (line == "padlock-labeling v1") {
      // Rewind is not possible on a generic istream; parse inline instead.
      // The labeling block header was consumed, so replicate the reader.
      std::ostringstream buf;
      buf << "padlock-labeling v1\n";
      for (;;) {
        const std::string inner = next_line(is);
        buf << inner << "\n";
        if (inner == "end") break;
      }
      std::istringstream rebuilt(buf.str());
      inst.pi_input = read_labeling(rebuilt, g);
    } else if (c.keyword("end")) {
      return inst;
    } else {
      fail("unknown padded line '" + line + "'");
    }
  }
}

}  // namespace padlock::io
