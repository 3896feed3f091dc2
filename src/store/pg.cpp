#include "store/pg.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <type_traits>

#include "store/codec.hpp"
#include "store/edgelist.hpp"
#include "store/mapped_file.hpp"
#include "support/check.hpp"

namespace padlock::store {

namespace {

// The CSR section is the Graph's slabs memcpy'd verbatim, so the element
// types must have a fixed standard layout the zero-copy loader can
// reinterpret mapped bytes as. (std::pair is not *trivially copyable* in
// libstdc++ — its assignment operators are user-provided — but it is
// standard-layout with no padding at these member types, which is the
// property byte serialization actually needs.)
static_assert(sizeof(HalfEdge) == 8 && std::is_trivially_copyable_v<HalfEdge>);
static_assert(sizeof(std::pair<NodeId, NodeId>) == 8 &&
              std::is_standard_layout_v<std::pair<NodeId, NodeId>>);
static_assert(sizeof(std::pair<int, int>) == 8 &&
              std::is_standard_layout_v<std::pair<int, int>>);
static_assert(sizeof(std::size_t) == 8,
              "the .pg CSR section stores first_port as u64");

inline constexpr std::uint32_t kEndianMarker = 0x01020304;

struct PgHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint64_t nodes;
  std::uint64_t edges;
  std::uint32_t max_degree;
  std::uint32_t reserved;
  std::uint64_t checksum;
  std::uint64_t edges_offset;
  std::uint64_t edges_size;
  std::uint64_t csr_offset;
  std::uint64_t csr_size;
};
static_assert(sizeof(PgHeader) == 80 &&
              std::is_trivially_copyable_v<PgHeader>);

#define PG_CHECK(cond, msg) \
  ((cond) ? (void)0 : ::padlock::contract_failure("store", msg, __FILE__, __LINE__))

std::uint64_t align8(std::uint64_t x) { return (x + 7) & ~std::uint64_t{7}; }

std::uint64_t csr_section_size(std::uint64_t n, std::uint64_t m) {
  return 8 * (n + 1)   // first_port
         + 8 * 2 * m   // ports
         + 8 * m       // endpoints
         + 8 * m;      // side_port
}

// Encodes the edge list as interleaved zigzag deltas (codec.hpp).
std::vector<std::uint8_t> encode_edges(const Graph& g) {
  std::vector<std::uint8_t> out;
  out.reserve(3 * g.num_edges() + 16);
  std::int64_t prev_u = 0, prev_v = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    put_varint(out, zigzag(static_cast<std::int64_t>(u) - prev_u));
    put_varint(out, zigzag(static_cast<std::int64_t>(v) - prev_v));
    prev_u = static_cast<std::int64_t>(u);
    prev_v = static_cast<std::int64_t>(v);
  }
  return out;
}

// Validated header + mapping of a .pg file; the common prologue of every
// reader below.
struct OpenPg {
  std::shared_ptr<const MappedFile> file;
  PgHeader header;
};

OpenPg open_pg(const std::string& path) {
  OpenPg pg;
  pg.file = MappedFile::open(path);
  PG_CHECK(pg.file->size() >= sizeof(PgHeader),
           "truncated .pg file (shorter than the 80-byte header)");
  std::memcpy(&pg.header, pg.file->data(), sizeof(PgHeader));
  const PgHeader& h = pg.header;
  PG_CHECK(std::memcmp(h.magic, kPgMagic, sizeof(kPgMagic)) == 0,
           "bad magic: not a .pg graph store file");
  PG_CHECK(h.version == kPgVersion,
           "version skew: this build reads .pg version 1 only");
  PG_CHECK(h.endian == kEndianMarker,
           "endianness mismatch: .pg written on a byte-swapped machine");
  PG_CHECK(h.reserved == 0, "corrupt header: nonzero reserved field");
  // Bound the counts and the EDGES size before any size arithmetic below
  // can wrap: node ids are NodeId, edge ids EdgeId, and a port index must
  // fit in 32 bits.
  PG_CHECK(h.nodes <= std::numeric_limits<NodeId>::max(),
           "corrupt header: node count beyond the NodeId range");
  PG_CHECK(h.edges <= std::numeric_limits<std::uint32_t>::max() / 2,
           "corrupt header: 2 * edges beyond the 32-bit port range");
  PG_CHECK(h.edges_size <= pg.file->size() - sizeof(PgHeader),
           "corrupt header: EDGES section larger than the file");
  PG_CHECK(h.edges_offset == sizeof(PgHeader),
           "corrupt header: EDGES section must follow the header");
  PG_CHECK(h.csr_offset == align8(h.edges_offset + h.edges_size),
           "corrupt header: CSR section offset disagrees with EDGES size");
  PG_CHECK(h.csr_size == csr_section_size(h.nodes, h.edges),
           "corrupt header: CSR section size disagrees with nodes/edges");
  PG_CHECK(h.csr_offset + h.csr_size == pg.file->size(),
           "truncated or oversized .pg file (CSR section does not end at "
           "the file end)");
  PG_CHECK(h.max_degree <= 2 * h.edges || h.edges == 0,
           "corrupt header: max degree exceeds twice the edge count");
  return pg;
}

void verify_payload_checksum(const OpenPg& pg) {
  const std::uint64_t actual =
      fnv1a_words(pg.file->data() + sizeof(PgHeader),
                  pg.file->size() - sizeof(PgHeader));
  PG_CHECK(actual == pg.header.checksum,
           "payload checksum mismatch: .pg file corrupt or regenerated "
           "mid-read");
}

}  // namespace

void write_pg(const std::string& path, const Graph& g) {
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t m = g.num_edges();
  const std::vector<std::uint8_t> edges_blob = encode_edges(g);

  PgHeader h{};
  std::memcpy(h.magic, kPgMagic, sizeof(kPgMagic));
  h.version = kPgVersion;
  h.endian = kEndianMarker;
  h.nodes = n;
  h.edges = m;
  h.max_degree = static_cast<std::uint32_t>(g.max_degree());
  h.edges_offset = sizeof(PgHeader);
  h.edges_size = edges_blob.size();
  h.csr_offset = align8(h.edges_offset + h.edges_size);
  h.csr_size = csr_section_size(n, m);

  // Assemble the payload (EDGES + alignment padding + CSR slabs) so the
  // checksum can cover every byte after the header.
  std::vector<std::uint8_t> payload;
  payload.reserve(static_cast<std::size_t>(h.csr_offset + h.csr_size -
                                           sizeof(PgHeader)));
  payload.insert(payload.end(), edges_blob.begin(), edges_blob.end());
  payload.resize(static_cast<std::size_t>(h.csr_offset - sizeof(PgHeader)),
                 0);
  auto append = [&payload](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    payload.insert(payload.end(), p, p + bytes);
  };
  // Rebuild the slabs from the public API: write_pg must work for *any*
  // graph (synthetic or loaded), so it re-derives the CSR arrays rather
  // than befriending Graph internals.
  {
    std::vector<std::size_t> first_port(n + 1, 0);
    std::vector<HalfEdge> ports;
    ports.reserve(2 * static_cast<std::size_t>(m));
    for (NodeId v = 0; v < n; ++v) {
      first_port[v] = ports.size();
      for (const HalfEdge h2 : g.incident(v)) ports.push_back(h2);
    }
    first_port[n] = ports.size();
    std::vector<std::pair<NodeId, NodeId>> endpoints;
    endpoints.reserve(m);
    std::vector<std::pair<int, int>> side_port;
    side_port.reserve(m);
    for (EdgeId e = 0; e < m; ++e) {
      endpoints.push_back(g.endpoints(e));
      side_port.emplace_back(g.port_of(HalfEdge{e, 0}),
                             g.port_of(HalfEdge{e, 1}));
    }
    append(first_port.data(), 8 * first_port.size());
    append(ports.data(), 8 * ports.size());
    append(endpoints.data(), 8 * endpoints.size());
    append(side_port.data(), 8 * side_port.size());
  }
  h.checksum = fnv1a_words(payload.data(), payload.size());

  // Write a sibling temporary, then rename it over `path` in one step. A
  // Graph loaded from the old file keeps its mapping of the old inode;
  // truncating the file in place would make its next read fault (SIGBUS).
  static std::atomic<std::uint64_t> temp_counter{0};
  const std::string temp = path + ".tmp" + std::to_string(::getpid()) + "." +
                           std::to_string(temp_counter.fetch_add(1));
  std::error_code ignored;
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      const std::string msg = "cannot write .pg file '" + path + "'";
      contract_failure("store", msg.c_str(), __FILE__, __LINE__);
    }
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.close();
    if (out.fail()) std::filesystem::remove(temp, ignored);
    PG_CHECK(!out.fail(), "short write while emitting the .pg payload");
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::filesystem::remove(temp, ignored);
    const std::string msg =
        "cannot replace .pg file '" + path + "': " + ec.message();
    contract_failure("store", msg.c_str(), __FILE__, __LINE__);
  }
}

bool sniff_pg(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kPgMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kPgMagic, sizeof(kPgMagic)) == 0;
}

PgInfo read_pg_info(const std::string& path) {
  const OpenPg pg = open_pg(path);
  PgInfo info;
  info.version = pg.header.version;
  info.nodes = pg.header.nodes;
  info.edges = pg.header.edges;
  info.max_degree = pg.header.max_degree;
  info.checksum = pg.header.checksum;
  info.file_bytes = pg.file->size();
  info.edges_bytes = pg.header.edges_size;
  info.csr_bytes = pg.header.csr_size;
  return info;
}

Graph load_pg(const std::string& path) {
  const OpenPg pg = open_pg(path);
  verify_payload_checksum(pg);
  const PgHeader& h = pg.header;
  const std::uint8_t* base = pg.file->data() + h.csr_offset;

  const auto* first_port = reinterpret_cast<const std::size_t*>(base);
  const auto* ports =
      reinterpret_cast<const HalfEdge*>(base + 8 * (h.nodes + 1));
  const auto* endpoints = reinterpret_cast<const std::pair<NodeId, NodeId>*>(
      base + 8 * (h.nodes + 1) + 8 * 2 * h.edges);
  const auto* side_port = reinterpret_cast<const std::pair<int, int>*>(
      base + 8 * (h.nodes + 1) + 8 * 2 * h.edges + 8 * h.edges);

  // Structural validation of the offsets slab: monotone, anchored at 0,
  // ending at 2m, and consistent with the header's max degree. O(n)
  // sequential reads over the mapping — the checksum already vouches for
  // byte integrity; this guards against a well-checksummed file written
  // with inconsistent structure.
  PG_CHECK(first_port[0] == 0, "corrupt CSR: first_port[0] != 0");
  std::uint64_t max_deg = 0;
  for (std::uint64_t v = 0; v < h.nodes; ++v) {
    PG_CHECK(first_port[v] <= first_port[v + 1],
             "corrupt CSR: first_port not monotone");
    max_deg = std::max(max_deg, first_port[v + 1] - first_port[v]);
  }
  PG_CHECK(first_port[h.nodes] == 2 * h.edges,
           "corrupt CSR: first_port does not end at 2*edges");
  PG_CHECK(max_deg == h.max_degree,
           "corrupt CSR: header max degree disagrees with first_port");

  // The other three slabs, one O(m) pass: Graph::adopt indexes first_port
  // by endpoint and ports by side port, so every endpoint must be a node,
  // every side port a port of its endpoint, and that port must hold the
  // half-edge back. Distinct half-edges then own distinct port slots, so
  // the 2m half-edges fill the 2m slots and every port entry is valid too.
  for (std::uint64_t e = 0; e < h.edges; ++e) {
    const NodeId ends[2] = {endpoints[e].first, endpoints[e].second};
    const int sides[2] = {side_port[e].first, side_port[e].second};
    for (int side = 0; side < 2; ++side) {
      const NodeId u = ends[side];
      PG_CHECK(u < h.nodes, "corrupt CSR: edge endpoint out of node range");
      PG_CHECK(sides[side] >= 0 &&
                   static_cast<std::uint64_t>(sides[side]) <
                       first_port[u + 1] - first_port[u],
               "corrupt CSR: side port beyond its endpoint's degree");
      const HalfEdge back =
          ports[first_port[u] + static_cast<std::uint64_t>(sides[side])];
      PG_CHECK(back.edge == e && back.side == side,
               "corrupt CSR: port slab disagrees with endpoints/side ports");
    }
  }

  std::shared_ptr<const void> keep = pg.file;
  return Graph::adopt(
      Slab<std::size_t>(first_port, h.nodes + 1, keep),
      Slab<HalfEdge>(ports, 2 * h.edges, keep),
      Slab<std::pair<NodeId, NodeId>>(endpoints, h.edges, keep),
      Slab<std::pair<int, int>>(side_port, h.edges, keep),
      static_cast<int>(h.max_degree));
}

std::vector<std::pair<NodeId, NodeId>> decode_pg_edges(
    const std::string& path) {
  const OpenPg pg = open_pg(path);
  verify_payload_checksum(pg);
  const PgHeader& h = pg.header;
  VarintCursor cur(pg.file->data() + h.edges_offset,
                   static_cast<std::size_t>(h.edges_size));
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(h.edges));
  std::int64_t u = 0, v = 0;
  for (std::uint64_t e = 0; e < h.edges; ++e) {
    u += cur.take_signed();
    v += cur.take_signed();
    PG_CHECK(u >= 0 && static_cast<std::uint64_t>(u) < h.nodes,
             "corrupt EDGES section: endpoint out of node range");
    PG_CHECK(v >= 0 && static_cast<std::uint64_t>(v) < h.nodes,
             "corrupt EDGES section: endpoint out of node range");
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  PG_CHECK(cur.exhausted(),
           "corrupt EDGES section: trailing bytes after the last edge");
  return edges;
}

Graph load_graph_file(const std::string& path) {
  if (sniff_pg(path)) return load_pg(path);
  return to_graph(read_edgelist_file(path));
}

std::uint64_t file_fingerprint(const std::string& path) {
  if (sniff_pg(path)) return read_pg_info(path).checksum;
  const auto file = MappedFile::open(path);
  return fnv1a(file->data(), file->size());
}

}  // namespace padlock::store
