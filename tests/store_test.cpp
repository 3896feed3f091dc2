// The ingestion subsystem (src/store): edge-list parsing + normalization,
// `.pg` round-trips, malformed-input fault isolation, zero-copy lifetime,
// and the file-family cache-key semantics.
//
// The load contract under test: text load ≡ (.pg convert → mmap load),
// bit for bit — same nodes, same edge order, same port numbering, same DOT
// rendering — and every malformed input throws ContractViolation instead of
// crashing or silently truncating, so a bad file poisons exactly its sweep
// row.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/graph_cache.hpp"
#include "core/runner.hpp"
#include "graph/builders.hpp"
#include "graph/metrics.hpp"
#include "io/dot.hpp"
#include "store/codec.hpp"
#include "store/edgelist.hpp"
#include "store/pg.hpp"
#include "support/check.hpp"

namespace padlock {
namespace {

#ifndef PADLOCK_TEST_DATA_DIR
#error "PADLOCK_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

std::string sample_txt() {
  return std::string(PADLOCK_TEST_DATA_DIR) + "/p2p-sample.txt";
}

// One scratch directory per test process; files get unique names per test.
const std::string& temp_dir() {
  static const std::string dir = [] {
    auto base = std::filesystem::temp_directory_path() / "padlock_store_XXXXXX";
    std::string tmpl = base.string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << tmpl;
      tmpl = std::filesystem::temp_directory_path().string();
    }
    return tmpl;
  }();
  return dir;
}

std::string temp_path(const std::string& name) {
  return temp_dir() + "/" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << bytes;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Structural equality down to port numbering — the bit-identity the store
// promises. DOT strings are compared too so io/ parity is pinned in the
// same breath.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.endpoints(e), b.endpoints(e)) << "edge " << e;
    for (int side = 0; side < 2; ++side)
      EXPECT_EQ(a.port_of({e, side}), b.port_of({e, side}))
          << "edge " << e << " side " << side;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "node " << v;
    const PortRange pa = a.incident(v);
    const PortRange pb = b.incident(v);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t p = 0; p < pa.size(); ++p)
      EXPECT_EQ(pa[p], pb[p]) << "node " << v << " port " << p;
  }
  EXPECT_EQ(io::dot_string(a), io::dot_string(b));
}

// ---- codec -----------------------------------------------------------------

TEST(Codec, VarintRoundTripBoundaries) {
  std::vector<std::uint8_t> buf;
  const std::uint64_t values[] = {0,    1,    127,  128,   255,  16384,
                                  1u << 20, (1ull << 35) + 7, ~0ull};
  for (std::uint64_t v : values) store::put_varint(buf, v);
  store::VarintCursor cur(buf.data(), buf.size());
  for (std::uint64_t v : values) EXPECT_EQ(cur.take(), v);
  EXPECT_TRUE(cur.exhausted());
}

TEST(Codec, ZigzagIsAnInvolutionOnDeltas) {
  for (std::int64_t d : {0ll, 1ll, -1ll, 63ll, -64ll, 1ll << 40, -(1ll << 40)})
    EXPECT_EQ(store::unzigzag(store::zigzag(d)), d);
}

TEST(Codec, TruncatedVarintThrows) {
  std::vector<std::uint8_t> buf;
  store::put_varint(buf, 1u << 20);  // multi-byte encoding
  store::VarintCursor cur(buf.data(), buf.size() - 1);
  EXPECT_THROW((void)cur.take(), ContractViolation);
}

// ---- edge-list reader ------------------------------------------------------

TEST(EdgeList, NormalizesMessyInput) {
  // Comments ('#' and '%', indented too), blank lines, CRLF, tabs, both
  // directions of the same undirected edge, a repeated line, a self-loop,
  // and non-contiguous ids.
  std::istringstream in(
      "# SNAP-style header\r\n"
      "  % KONECT-style comment\n"
      "\n"
      "1000\t1014\r\n"
      "1014 1000\n"     // reverse direction: same undirected edge
      "1000 1014\n"     // repeated line
      "1014\t1042\n"
      "1042 1042\n"     // self-loop
      "7 1000\n");
  const store::EdgeList el = store::read_edgelist(in);

  EXPECT_EQ(el.stats.lines, 9u);
  EXPECT_EQ(el.stats.comment_lines, 2u);
  EXPECT_EQ(el.stats.edge_lines, 6u);
  EXPECT_EQ(el.stats.duplicates_dropped, 2u);
  EXPECT_EQ(el.stats.self_loops_dropped, 1u);

  // Dense remap is order-preserving over the sorted distinct ids.
  ASSERT_EQ(el.num_nodes, 4u);
  EXPECT_EQ(el.original_id,
            (std::vector<std::uint64_t>{7, 1000, 1014, 1042}));

  // Canonical order: endpoints min<=max, sorted lexicographically.
  ASSERT_EQ(el.edges.size(), 3u);
  EXPECT_EQ(el.edges[0], (std::pair<NodeId, NodeId>{0, 1}));  // 7 -- 1000
  EXPECT_EQ(el.edges[1], (std::pair<NodeId, NodeId>{1, 2}));  // 1000 -- 1014
  EXPECT_EQ(el.edges[2], (std::pair<NodeId, NodeId>{2, 3}));  // 1014 -- 1042

  const Graph g = store::to_graph(el);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(EdgeList, KeepOptionsPreserveTheRawMultigraph) {
  std::istringstream in(
      "5 9\n"
      "9 5\n"
      "5 5\n");
  store::EdgeListOptions opts;
  opts.keep_duplicates = true;
  opts.keep_self_loops = true;
  const store::EdgeList el = store::read_edgelist(in, opts);
  EXPECT_EQ(el.stats.duplicates_dropped, 0u);
  EXPECT_EQ(el.stats.self_loops_dropped, 0u);
  ASSERT_EQ(el.edges.size(), 3u);

  const Graph g = store::to_graph(el);
  EXPECT_EQ(g.num_edges(), 3u);
  // The self-loop contributes 2 to its node's degree (port convention).
  EXPECT_EQ(g.degree(0), 4);  // node 5: two parallels + one self-loop
}

TEST(EdgeList, MalformedRecordsThrowWithLineAttribution) {
  const char* bad_inputs[] = {
      "1 2\n3\n",          // one token
      "1 2\nfoo bar\n",    // non-numeric
      "1 2\n3 4 junk\n",   // trailing junk
      "1 -2\n",            // negative id
  };
  for (const char* text : bad_inputs) {
    std::istringstream in(text);
    EXPECT_THROW((void)store::read_edgelist(in), ContractViolation) << text;
  }
  // The thrown message names the offending line number.
  std::istringstream in("1 2\n3\n");
  try {
    (void)store::read_edgelist(in);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW((void)store::read_edgelist_file(temp_path("absent.txt")),
               ContractViolation);
}

// ---- .pg round-trip --------------------------------------------------------

TEST(PgStore, TextAndPgLoadsAreBitIdentical) {
  const Graph from_text = store::load_graph_file(sample_txt());
  const std::string pg = temp_path("roundtrip.pg");
  store::write_pg(pg, from_text);
  const Graph from_pg = store::load_pg(pg);
  expect_identical(from_text, from_pg);

  // The compressed EDGES section decodes to exactly the CSR's edge list.
  const auto edges = store::decode_pg_edges(pg);
  ASSERT_EQ(edges.size(), from_text.num_edges());
  for (EdgeId e = 0; e < from_text.num_edges(); ++e)
    EXPECT_EQ(edges[e], from_text.endpoints(e));

  // Sniff-based dispatch picks the right loader for both formats.
  EXPECT_TRUE(store::sniff_pg(pg));
  EXPECT_FALSE(store::sniff_pg(sample_txt()));
  expect_identical(store::load_graph_file(pg), from_text);
}

TEST(PgStore, MetricsAgreeAcrossLoadPaths) {
  const Graph from_text = store::load_graph_file(sample_txt());
  const std::string pg = temp_path("metrics.pg");
  store::write_pg(pg, from_text);
  const Graph mapped = store::load_pg(pg);

  const Components ct = connected_components(from_text);
  const Components cm = connected_components(mapped);
  EXPECT_EQ(ct.count, cm.count);
  EXPECT_EQ(girth(from_text), girth(mapped));
  const NodeMap<int> dt = bfs_distances(from_text, 0);
  const NodeMap<int> dm = bfs_distances(mapped, 0);
  for (NodeId v = 0; v < from_text.num_nodes(); ++v)
    EXPECT_EQ(dt[v], dm[v]) << "node " << v;
}

TEST(PgStore, EmptyAndTinyGraphsSurvive) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    GraphBuilder b;
    b.add_nodes(n);
    if (n == 2) b.add_edge(0, 1);
    const Graph g = std::move(b).build();
    const std::string pg = temp_path("tiny" + std::to_string(n) + ".pg");
    store::write_pg(pg, g);
    expect_identical(g, store::load_pg(pg));
  }
}

TEST(PgStore, SelfLoopsAndParallelsRoundTrip) {
  // The multigraph corners the normalized reader never produces still
  // round-trip: write_pg accepts any Graph.
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // parallel
  b.add_edge(2, 2);  // self-loop
  const Graph g = std::move(b).build();
  const std::string pg = temp_path("multi.pg");
  store::write_pg(pg, g);
  const Graph back = store::load_pg(pg);
  expect_identical(g, back);
  EXPECT_TRUE(back.is_self_loop(2));
  EXPECT_EQ(back.degree(2), 2);
}

TEST(PgStore, InfoReportsTheHeader) {
  const Graph g = store::load_graph_file(sample_txt());
  const std::string pg = temp_path("info.pg");
  store::write_pg(pg, g);
  const store::PgInfo info = store::read_pg_info(pg);
  EXPECT_EQ(info.version, store::kPgVersion);
  EXPECT_EQ(info.nodes, g.num_nodes());
  EXPECT_EQ(info.edges, g.num_edges());
  EXPECT_EQ(info.max_degree, static_cast<std::uint32_t>(g.max_degree()));
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(pg));
  EXPECT_GT(info.edges_bytes, 0u);
  EXPECT_GT(info.csr_bytes, 0u);
  EXPECT_NE(info.checksum, 0u);
}

// ---- malformed .pg files ---------------------------------------------------

class PgCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const Graph g = store::load_graph_file(sample_txt());
    path_ = temp_path("corrupt.pg");
    store::write_pg(path_, g);
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), 80u);
  }

  // Writes a mutated copy and expects every loader entry point to reject it.
  void expect_rejected(const std::string& bytes, const std::string& label) {
    const std::string p = temp_path("corrupt_case.pg");
    write_file(p, bytes);
    EXPECT_THROW((void)store::load_pg(p), ContractViolation) << label;
    EXPECT_THROW((void)store::read_pg_info(p), ContractViolation) << label;
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(PgCorruption, TruncatedHeader) {
  expect_rejected(bytes_.substr(0, 40), "truncated header");
}

TEST_F(PgCorruption, TruncatedPayload) {
  expect_rejected(bytes_.substr(0, bytes_.size() - 17), "truncated payload");
}

TEST_F(PgCorruption, BadMagic) {
  std::string b = bytes_;
  b[0] = 'X';
  expect_rejected(b, "bad magic");
}

TEST_F(PgCorruption, VersionSkew) {
  std::string b = bytes_;
  b[8] = static_cast<char>(store::kPgVersion + 1);
  expect_rejected(b, "version skew");
}

TEST_F(PgCorruption, EndiannessMismatch) {
  std::string b = bytes_;
  std::swap(b[12], b[15]);  // byte-swapped marker = foreign byte order
  expect_rejected(b, "endianness marker");
}

TEST_F(PgCorruption, PayloadBitFlipFailsTheChecksum) {
  std::string b = bytes_;
  b[b.size() / 2] ^= 0x40;  // flip one payload bit
  const std::string p = temp_path("bitflip.pg");
  write_file(p, b);
  EXPECT_THROW((void)store::load_pg(p), ContractViolation);
}

TEST_F(PgCorruption, CorruptEdgeVarintsAreRejectedByDecode) {
  // Overwrite the EDGES section with 0xFF continuation bytes: both the
  // zero-copy loader and the explicit EDGES decoder must reject the file
  // (the checksum catches the corruption before any varint is trusted).
  std::string b = bytes_;
  for (std::size_t i = 80; i < std::min<std::size_t>(b.size(), 120); ++i)
    b[i] = static_cast<char>(0xFF);
  const std::string p = temp_path("varints.pg");
  write_file(p, b);
  EXPECT_THROW((void)store::load_pg(p), ContractViolation);
  EXPECT_THROW((void)store::decode_pg_edges(p), ContractViolation);
}

TEST_F(PgCorruption, NotAPgFileAtAll) {
  EXPECT_FALSE(store::sniff_pg(temp_path("absent.pg")));
  const std::string p = temp_path("short.pg");
  write_file(p, "hi");
  EXPECT_FALSE(store::sniff_pg(p));
  EXPECT_THROW((void)store::load_pg(p), ContractViolation);
}

// ---- well-checksummed files with inconsistent slabs ------------------------
// Crafted stores whose payload checksum is recomputed after the patch, so
// only the structural validation in open_pg / load_pg can refuse them.

std::uint64_t get_u64(const std::string& b, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

void put_u64(std::string& b, std::size_t at, std::uint64_t v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}

void put_u32(std::string& b, std::size_t at, std::uint32_t v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}

// Header offsets and the CSR layout of pg.hpp.
constexpr std::size_t kNodesAt = 16, kChecksumAt = 40, kEdgesSizeAt = 56,
                      kCsrOffsetAt = 64, kCsrSizeAt = 72;

// cycle(16) written to `name`, patched, and re-checksummed.
std::string crafted_cycle_pg(const std::string& name,
                             const std::function<void(std::string&)>& patch) {
  const std::string p = temp_path(name);
  store::write_pg(p, build::cycle(16));
  std::string b = read_file(p);
  patch(b);
  put_u64(b, kChecksumAt,
          store::fnv1a_words(b.data() + 80, b.size() - 80));
  write_file(p, b);
  return p;
}

// Byte offset of endpoints[e] (a u32 pair) in a cycle(16) store.
std::size_t endpoint_at(const std::string& b, std::size_t e) {
  const std::size_t n = 16, m = 16;
  return get_u64(b, kCsrOffsetAt) + 8 * (n + 1) + 8 * 2 * m + 8 * e;
}

// A crafted file poisons exactly its own row of a sweep.
void expect_poisons_only_its_row(const std::string& pg) {
  ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}};
  plan.graphs = {{"file:" + pg, 0, 0, 0}, {"cycle", 24, 3, 7}};
  plan.options.seed = 11;
  plan.threads = 1;
  const SweepOutcome outcome = run_batch(plan);
  ASSERT_EQ(outcome.rows.size(), 2u);
  EXPECT_EQ(outcome.rows[0].status, RowStatus::kError);
  EXPECT_NE(outcome.rows[0].error.find("ContractViolation"),
            std::string::npos)
      << outcome.rows[0].error;
  EXPECT_TRUE(outcome.rows[1].ok()) << outcome.rows[1].error;
}

TEST_F(PgCorruption, EndpointBeyondNodeRange) {
  // Graph::adopt would index first_port with this endpoint, out of bounds.
  const std::string p = crafted_cycle_pg("far_endpoint.pg", [](std::string& b) {
    put_u32(b, endpoint_at(b, 0), 0x7fffffffu);
  });
  EXPECT_THROW((void)store::load_pg(p), ContractViolation);
  expect_poisons_only_its_row(p);
}

TEST_F(PgCorruption, EndpointDisagreesWithThePortSlab) {
  // In range, but node 3 has no port holding edge 0: the slabs contradict
  // each other, which no header or offset check can see.
  const std::string p = crafted_cycle_pg("wrong_endpoint.pg", [](std::string& b) {
    put_u32(b, endpoint_at(b, 0) + 4, 3);
  });
  EXPECT_THROW((void)store::load_pg(p), ContractViolation);
  expect_poisons_only_its_row(p);
}

TEST_F(PgCorruption, NodeCountThatWrapsTheCsrSize) {
  // 8 * (n + 1) wraps mod 2^64 back to the true CSR size, so only a range
  // check on the count itself refuses this header.
  const std::string p = crafted_cycle_pg("wrapped_nodes.pg", [](std::string& b) {
    put_u64(b, kNodesAt, get_u64(b, kNodesAt) + (std::uint64_t{1} << 61));
  });
  EXPECT_THROW((void)store::read_pg_info(p), ContractViolation);
  EXPECT_THROW((void)store::load_pg(p), ContractViolation);
  expect_poisons_only_its_row(p);
}

TEST_F(PgCorruption, EdgesSizeThatWrapsTheCsrOffset) {
  // 80 + edges_size lands just below 2^64, so align8 wraps the CSR offset
  // to 0; a node count chosen to make the CSR span the whole file would
  // then pass every offset check with the slabs aliasing the header.
  const std::string p = crafted_cycle_pg("wrapped_edges.pg", [](std::string& b) {
    const std::uint64_t m = 16;
    put_u64(b, kEdgesSizeAt, ~std::uint64_t{0} - 80 - 6);
    put_u64(b, kCsrOffsetAt, 0);
    put_u64(b, kNodesAt, (b.size() - 8 * 4 * m) / 8 - 1);
    put_u64(b, kCsrSizeAt, b.size());
  });
  EXPECT_THROW((void)store::read_pg_info(p), ContractViolation);
  EXPECT_THROW((void)store::load_pg(p), ContractViolation);
  expect_poisons_only_its_row(p);
}

// ---- zero-copy lifetime ----------------------------------------------------

TEST(PgStore, MappedGraphCopiesKeepTheMappingAlive) {
  const std::string pg = temp_path("lifetime.pg");
  {
    const Graph g = store::load_graph_file(sample_txt());
    store::write_pg(pg, g);
  }
  Graph copy;
  std::size_t n = 0, m = 0;
  {
    const Graph mapped = store::load_pg(pg);
    n = mapped.num_nodes();
    m = mapped.num_edges();
    copy = mapped;  // copy of a view graph shares the keep-alive
  }
  // The original is gone; the copy's slabs must still pin the mapping.
  ASSERT_EQ(copy.num_nodes(), n);
  ASSERT_EQ(copy.num_edges(), m);
  std::uint64_t degree_sum = 0;
  for (NodeId v = 0; v < copy.num_nodes(); ++v)
    for (HalfEdge h : copy.incident(v)) degree_sum += h.edge + 1u;
  EXPECT_GT(degree_sum, 0u);

  Graph moved = std::move(copy);
  EXPECT_EQ(moved.num_edges(), m);
}

// Rewriting the path of a loaded graph must not pull its mapping out from
// under it: write_pg replaces the file in one rename instead of truncating
// it, so the loaded graph keeps reading the old file's pages.
TEST(PgStore, RewritingTheLoadedPathKeepsTheLoadedGraphReadable) {
  const std::string dir = temp_path("rewrite");
  std::filesystem::create_directory(dir);
  const std::string pg = dir + "/graph.pg";
  const std::size_t big = std::size_t{1} << 16;
  store::write_pg(pg, build::cycle(big));
  const Graph loaded = store::load_pg(pg);
  ASSERT_EQ(loaded.num_nodes(), big);

  store::write_pg(pg, build::cycle(64));
  std::uint64_t degree_sum = 0;
  for (NodeId v = 0; v < loaded.num_nodes(); ++v)
    degree_sum += loaded.degree(v);
  EXPECT_EQ(degree_sum, 2 * big);

  EXPECT_EQ(store::load_pg(pg).num_nodes(), 64u);
  // The temporary file was renamed away, not left beside the target.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "graph.pg");
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

// ---- family dispatch + cache keys ------------------------------------------

TEST(FileFamily, DispatchesThroughBuildFamily) {
  EXPECT_TRUE(build::is_file_family("file:anything"));
  EXPECT_FALSE(build::is_file_family("cycle"));
  EXPECT_FALSE(build::is_file_family("profile:x"));

  // n/degree/seed are ignored: the file is the instance.
  const Graph g = build::family("file:" + sample_txt(), 4, 2, 99);
  const Graph direct = store::load_graph_file(sample_txt());
  expect_identical(g, direct);

  // file: is not in the synthetic menu listing.
  for (const std::string& name : build::family_names())
    EXPECT_FALSE(build::is_file_family(name));
}

TEST(FileFamily, CanonicalKeyCarriesTheContentFingerprint) {
  const std::string a = temp_path("key_a.txt");
  const std::string b = temp_path("key_b.txt");
  write_file(a, "1 2\n2 3\n");
  write_file(b, "1 2\n2 4\n");

  const build::FamilyKey ka = build::canonical_key("file:" + a, 64, 3, 7);
  // Ignored parameters are zeroed; the seed field carries the fingerprint.
  EXPECT_EQ(ka.nodes, 0u);
  EXPECT_EQ(ka.degree, 0);
  EXPECT_EQ(ka.seed, store::file_fingerprint(a));
  EXPECT_NE(ka.seed, 0u);

  // Different content -> different key, even with identical parameters.
  const build::FamilyKey kb = build::canonical_key("file:" + b, 64, 3, 7);
  EXPECT_NE(ka.seed, kb.seed);

  // Same path regenerated with different content -> different key.
  write_file(a, "1 2\n2 5\n");
  const build::FamilyKey ka2 = build::canonical_key("file:" + a, 64, 3, 7);
  EXPECT_NE(ka.seed, ka2.seed);

  // A missing file fingerprints to 0 without throwing (the key must never
  // throw; the build fails later, attributed to its row).
  const build::FamilyKey missing =
      build::canonical_key("file:" + temp_path("gone.txt"), 64, 3, 7);
  EXPECT_EQ(missing.seed, 0u);
}

TEST(FileFamily, PgFingerprintIsTheHeaderChecksum) {
  const Graph g = store::load_graph_file(sample_txt());
  const std::string pg = temp_path("fingerprint.pg");
  store::write_pg(pg, g);
  EXPECT_EQ(store::file_fingerprint(pg), store::read_pg_info(pg).checksum);
}

TEST(FileFamily, RegeneratedFileNeverAliasesTheCachedGraph) {
  GraphCache cache;  // private instance; leaves the process cache alone
  const std::string path = temp_path("cached.txt");
  write_file(path, "1 2\n2 3\n3 4\n");
  const std::string family = "file:" + path;

  bool hit = true;
  const auto g1 = cache.get_or_build(family, 0, 0, 0, &hit);
  ASSERT_NE(g1, nullptr);
  EXPECT_FALSE(hit);
  EXPECT_EQ(g1->num_nodes(), 4u);

  // Same content: a hit, the same shared instance.
  const auto g2 = cache.get_or_build(family, 0, 0, 0, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(g1.get(), g2.get());

  // Rewrite the file: the fingerprint changes, so the stale entry cannot
  // be served — the new content is built fresh.
  write_file(path, "1 2\n2 3\n3 4\n4 5\n");
  const auto g3 = cache.get_or_build(family, 0, 0, 0, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(g3->num_nodes(), 5u);
}

// ---- sweep fault isolation -------------------------------------------------

TEST(FileFamily, BadFilePoisonsOnlyItsRows) {
  ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}};
  plan.graphs = {{"file:" + temp_path("nonexistent.txt"), 0, 0, 0},
                 {"cycle", 24, 3, 7}};
  plan.options.seed = 11;
  plan.threads = 1;
  const SweepOutcome outcome = run_batch(plan);
  ASSERT_EQ(outcome.rows.size(), 2u);

  EXPECT_EQ(outcome.rows[0].status, RowStatus::kError);
  EXPECT_NE(outcome.rows[0].error.find("ContractViolation"),
            std::string::npos)
      << outcome.rows[0].error;
  EXPECT_TRUE(outcome.rows[1].ok()) << outcome.rows[1].error;
}

TEST(FileFamily, CorruptPgPoisonsOnlyItsRows) {
  // A .pg whose payload was bit-flipped after conversion: checksum rejects
  // it at menu-resolution time, row-scoped.
  const Graph g = store::load_graph_file(sample_txt());
  const std::string pg = temp_path("poison.pg");
  store::write_pg(pg, g);
  std::string b = read_file(pg);
  b[b.size() - 5] ^= 0x10;
  write_file(pg, b);

  ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}};
  plan.graphs = {{"file:" + pg, 0, 0, 0}, {"cycle", 24, 3, 7}};
  plan.options.seed = 11;
  plan.threads = 1;
  const SweepOutcome outcome = run_batch(plan);
  ASSERT_EQ(outcome.rows.size(), 2u);
  EXPECT_EQ(outcome.rows[0].status, RowStatus::kError);
  EXPECT_TRUE(outcome.rows[1].ok()) << outcome.rows[1].error;
}

}  // namespace
}  // namespace padlock
