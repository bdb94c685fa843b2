// Pins the bytes of every generated dataset the repository names.
//
// Each entry digests a graph's CSR offsets, targets and weights (FNV-1a,
// det_hash.hpp) and each vertex-cut entry its edge owners, masters and
// replica lists. Goldens, harness results and perfbench references all
// depend on these bytes: a change to a generator, the builder or a cut must
// reproduce them, or re-pin them on purpose. Specs: the `rmat:<scale>` and
// `datagen:<n>` tool datasets, the parameters of the tests, the bench
// harnesses and the examples, and undirected R-MAT.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/det_hash.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace g10::graph {
namespace {

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

template <typename T>
std::uint64_t digest(const std::vector<T>& values) {
  return fnv1a64(kFnvOffsetBasis, values.data(), values.size() * sizeof(T));
}

std::vector<double> all_weights(const Graph& g) {
  std::vector<double> weights;
  if (!g.weighted()) return weights;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto w = g.out_weights(v);
    weights.insert(weights.end(), w.begin(), w.end());
  }
  return weights;
}

struct GraphPin {
  const char* name;
  std::function<Graph()> make;
  EdgeIndex edges;
  std::uint64_t offsets;
  std::uint64_t targets;
  std::uint64_t weights;  ///< digest of no bytes when unweighted
};

void expect_pins(const std::vector<GraphPin>& pins) {
  for (const GraphPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const Graph g = pin.make();
    EXPECT_EQ(g.edge_count(), pin.edges);
    EXPECT_EQ(hex(digest(g.out_offsets())), hex(pin.offsets));
    EXPECT_EQ(hex(digest(g.out_targets())), hex(pin.targets));
    EXPECT_EQ(hex(digest(all_weights(g))), hex(pin.weights));
  }
}

Graph dataset(const char* spec) {
  return generate_dataset(parse_dataset(spec));
}

/// rmat:16 is pinned as a graph and cut; generate it once.
const Graph& rmat16() {
  static const Graph g = dataset("rmat:16");
  return g;
}

Graph rmat(int scale, double edge_factor, std::uint64_t seed,
           bool undirected = false) {
  RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  params.seed = seed;
  params.undirected = undirected;
  return generate_rmat(params);
}

Graph datagen(VertexId vertices, double mean_degree, std::uint64_t seed) {
  DatagenParams params;
  params.vertices = vertices;
  params.mean_degree = mean_degree;
  params.seed = seed;
  return generate_datagen_like(params);
}

Graph weighted(Graph g, double lo, double hi, std::uint64_t seed) {
  assign_random_weights(g, lo, hi, seed);
  return g;
}

constexpr std::uint64_t kNoWeights = kFnvOffsetBasis;

TEST(GraphDigestTest, ToolRmatDatasets) {
  expect_pins({
      {"rmat:5",
       [] { return dataset("rmat:5"); },
       198, 0x34fcd17746774acdull, 0xfbb63ee5f63bf4e7ull,
       kNoWeights},
      {"rmat:8",
       [] { return dataset("rmat:8"); },
       2578, 0x6966436c44e2368full, 0xd97f710204470f3full,
       kNoWeights},
      {"rmat:9",
       [] { return dataset("rmat:9"); },
       5671, 0x82c70e4db19a1fcdull, 0x3fa5a58e8f4f3033ull,
       kNoWeights},
      {"rmat:10",
       [] { return dataset("rmat:10"); },
       12071, 0xb3c200d216c76c63ull, 0x2cfbfcb41f1669a2ull,
       kNoWeights},
      {"rmat:11",
       [] { return dataset("rmat:11"); },
       25530, 0x63f0ec4265d741bcull, 0x5d5646643f4e6396ull,
       kNoWeights},
      {"rmat:12",
       [] { return dataset("rmat:12"); },
       53539, 0xdc48592cef59600dull, 0xd70935b7695f8852ull,
       kNoWeights},
      {"rmat:13",
       [] { return dataset("rmat:13"); },
       110963, 0x7a86e861728ecbddull, 0xcc63fbe3bb295de7ull,
       kNoWeights},
      {"rmat:14",
       [] { return dataset("rmat:14"); },
       228762, 0xce27c0dd3e19d5bfull, 0x88da4809500d96e0ull,
       kNoWeights},
      {"rmat:15",
       [] { return dataset("rmat:15"); },
       468191, 0x559dd6867f903c52ull, 0x7740df3c5a7974efull,
       kNoWeights},
      {"rmat:16",
       [] { return rmat16(); },
       955326, 0x1af4dc5f78e89a37ull, 0xcf219b89b5a88a6eull,
       kNoWeights},
  });
}

TEST(GraphDigestTest, ParameterizedRmat) {
  expect_pins({
      // Tests: generators, partition, engines.
      {"rmat s8 ef8 seed5",
       [] { return rmat(8, 8, 5); },
       1525, 0x9716b88eb8d1e597ull, 0x8f4f9c6383401c14ull,
       kNoWeights},
      {"rmat s8 ef16 seed6",
       [] { return rmat(8, 16, 6); },
       2561, 0xdc991214e810836dull, 0xe3734880bd1625f5ull,
       kNoWeights},
      {"rmat s9 ef8 seed17",
       [] { return rmat(9, 8, 17); },
       3200, 0xd621904071e0932dull, 0xd52eec2e7964b7c8ull,
       kNoWeights},
      {"rmat s10 ef8 seed3",
       [] { return rmat(10, 8, 3); },
       6643, 0x4fd9f796673fa451ull, 0x8be4ac9da5aae45bull,
       kNoWeights},
      // Micro benchmarks.
      {"rmat s12 ef16 seed4",
       [] { return rmat(12, 16, 4); },
       53451, 0xac74f20b6db87411ull, 0x497e1562b08903e5ull,
       kNoWeights},
      {"rmat s14 ef8 seed5",
       [] { return rmat(14, 8, 5); },
       119909, 0x4311f432b9d12a33ull, 0xb7185d91cc0c787aull,
       kNoWeights},
      // Paper harnesses (make_rmat_dataset's seed).
      {"rmat s15 ef16 seed900",
       [] { return rmat(15, 16, 900); },
       467756, 0xdcd8408884bb82ccull, 0x0c09427f89233295ull,
       kNoWeights},
      {"rmat s16 ef16 seed900",
       [] { return rmat(16, 16, 900); },
       955552, 0x53c6cd5ce3d2d89aull, 0xd52611bbd50bced2ull,
       kNoWeights},
      {"rmat s17 ef16 seed900",
       [] { return rmat(17, 16, 900); },
       1942384, 0xa53baf237848ff6full, 0xb2c69df02ef9d12cull,
       kNoWeights},
      // Undirected R-MAT: symmetrized in the builder.
      {"rmat s6 ef4 seed2 undirected",
       [] { return rmat(6, 4, 2, true); },
       328, 0xad7d24af12d21128ull, 0xecc6601af233181cull,
       kNoWeights},
      {"rmat s12 ef16 seed1 undirected",
       [] { return rmat(12, 16, 1, true); },
       97184, 0x4f52a66821977d28ull, 0xcc36dee67e80b275ull,
       kNoWeights},
  });
}

TEST(GraphDigestTest, DatagenDatasets) {
  expect_pins({
      {"datagen:512",
       [] { return dataset("datagen:512"); },
       8064, 0x86539cd135de293cull, 0x313adf4bd2880395ull,
       kNoWeights},
      {"datagen:4096",
       [] { return dataset("datagen:4096"); },
       72428, 0x58135f2cbe4925ffull, 0x7125ff0e1487182eull,
       kNoWeights},
      {"datagen n256 d6 seed7",
       [] { return datagen(256, 6, 7); },
       1304, 0x265b9d899712ea1aull, 0xf2bfd7f325280907ull,
       kNoWeights},
      {"datagen n512 d8 seed11",
       [] { return datagen(512, 8, 11); },
       3488, 0x2fb8f8e0e040c162ull, 0xfa93835406bdadefull,
       kNoWeights},
      {"datagen n512 d8 seed21",
       [] { return datagen(512, 8, 21); },
       3428, 0xfe158ec6ddb9a882ull, 0x2b5b9fdd77a68b18ull,
       kNoWeights},
      {"datagen n1024 d10 seed5",
       [] { return datagen(1024, 10, 5); },
       8894, 0xb2b7a0e3abef4271ull, 0xcf6f67920a5c686bull,
       kNoWeights},
      {"datagen n1024 d10 seed33",
       [] { return datagen(1024, 10, 33); },
       8958, 0xf2ea49415d270c5bull, 0x4729745e353975fdull,
       kNoWeights},
      {"datagen n2048 d8 seed9",
       [] { return datagen(2048, 8, 9); },
       14716, 0x240b64098eb15647ull, 0x1188052111e101c5ull,
       kNoWeights},
      {"datagen n4096 d10 seed33",
       [] { return datagen(4096, 10, 33); },
       37724, 0x1b35579727500be6ull, 0x936a0d3fc54e7a91ull,
       kNoWeights},
      {"datagen n65536 d16 seed1",
       [] { return datagen(65536, 16, 1); },
       1031012, 0x6e373a4d278879aaull, 0x5139650a6507b305ull,
       kNoWeights},
      {"datagen n65536 d16 seed901",
       [] { return datagen(65536, 16, 901); },
       1031460, 0x24729bdf1923af48ull, 0x72187dd9dc30f7c1ull,
       kNoWeights},
      {"datagen n131072 d16 seed901",
       [] { return datagen(131072, 16, 901); },
       2078552, 0xbdff6f62a4454a39ull, 0xa876f2d0418dca8bull,
       kNoWeights},
  });
}

TEST(GraphDigestTest, RandomWeights) {
  expect_pins({
      {"rmat:8 w1-10 seed2020",
       [] { return weighted(dataset("rmat:8"), 1.0, 10.0, 2020); },
       2578, 0x6966436c44e2368full, 0xd97f710204470f3full,
       0x251984144f6eb304ull},
      {"rmat s9 ef8 seed17 w1-10 seed99",
       [] { return weighted(rmat(9, 8, 17), 1.0, 10.0, 99); },
       3200, 0xd621904071e0932dull, 0xd52eec2e7964b7c8ull,
       0x42e574cfc6cb9714ull},
      {"rmat s12 ef16 seed4 w1-10 seed7",
       [] { return weighted(rmat(12, 16, 4), 1.0, 10.0, 7); },
       53451, 0xac74f20b6db87411ull, 0x497e1562b08903e5ull,
       0x613681b53fcb6e46ull},
      {"rmat s8 ef16 seed1 w0-1 seed2",
       [] { return weighted(rmat(8, 16, 1), 0.0, 1.0, 2); },
       2578, 0x6966436c44e2368full, 0xd97f710204470f3full,
       0xca0cac2e7ab7db29ull},
      {"datagen n1024 d20 seed1 w1-10 seed42",
       [] { return weighted(datagen(1024, 20, 1), 1.0, 10.0, 42); },
       16744, 0xd0158917adafae78ull, 0x2e584dab3eb8f0f4ull,
       0x3905ad8728345901ull},
  });
}

struct CutPin {
  const char* strategy;
  PartitionId parts;
  std::uint64_t edge_owner;
  std::uint64_t master;
  std::uint64_t replicas;
};

VertexCutPartition cut(const Graph& g, const std::string& strategy,
                       PartitionId parts) {
  if (strategy == "greedy") return partition_vertex_cut_greedy(g, parts);
  if (strategy == "random") return partition_vertex_cut_random(g, parts, 7);
  if (strategy == "range") return partition_vertex_cut_range_source(g, parts);
  return partition_vertex_cut_hash_source(g, parts);
}

std::uint64_t replicas_digest(const VertexCutPartition& cut) {
  std::uint64_t h = kFnvOffsetBasis;
  for (VertexId v = 0; v < cut.master.size(); ++v) {
    const auto r = cut.replicas(v);
    const std::uint64_t size = r.size();
    h = fnv1a64(h, &size, sizeof(size));
    h = fnv1a64(h, r.data(), r.size() * sizeof(PartitionId));
  }
  return h;
}

void expect_cut_pins(const Graph& g, const std::vector<CutPin>& pins) {
  for (const CutPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.strategy) + " x" +
                 std::to_string(pin.parts));
    const VertexCutPartition c = cut(g, pin.strategy, pin.parts);
    EXPECT_EQ(hex(digest(c.edge_owner)), hex(pin.edge_owner));
    EXPECT_EQ(hex(digest(c.master)), hex(pin.master));
    EXPECT_EQ(hex(replicas_digest(c)), hex(pin.replicas));
  }
}

TEST(GraphDigestTest, VertexCutsOfRmat12) {
  expect_cut_pins(dataset("rmat:12"), {
      {"hash", 8, 0xdce3624c2cfdafd1ull, 0x9d61118a0a5dd442ull,
       0x03df354f6f7cc16bull},
      {"hash", 64, 0xa88e8c3590ac09b9ull, 0x9fd1e4d9454a16b6ull,
       0xed6f561d1ba4d3c9ull},
      {"range", 8, 0x7b4407a0ae178f95ull, 0xebcc00915282bac5ull,
       0x717590a5d74b81d0ull},
      {"range", 64, 0xf6e736c4db203fd6ull, 0x6a06000bdb77d677ull,
       0x54f47c4c69787b99ull},
      {"greedy", 8, 0x13a39f1f54362637ull, 0xf2511f26c0f5eb64ull,
       0xb040507b4ce05044ull},
      {"greedy", 64, 0x0a6f18f2ce0d38ffull, 0x8a1f999a7b4eda88ull,
       0x4bfb488e331a57deull},
      {"random", 8, 0xecea1f197ffa1cf7ull, 0xba231509166f36a7ull,
       0x995c19931169e589ull},
      {"random", 64, 0x41d3bbf704d4bf86ull, 0xfa7e6467a3080293ull,
       0x2f7c100371900f8cull},
  });
}

TEST(GraphDigestTest, VertexCutsOfDatagen) {
  // Undirected, with isolated vertices: they get no replicas.
  expect_cut_pins(datagen(512, 8, 21), {
      {"hash", 8, 0x6ce01c196f546e13ull, 0xe38c34501ebe8156ull,
       0x67e30700e1c5289aull},
      {"hash", 64, 0x41de300a56cb77c3ull, 0x845b441c0e5a6dd1ull,
       0xbf5967a226905de4ull},
      {"range", 8, 0xbe9b449dad2d7306ull, 0xbd392ea38992db51ull,
       0x68f16d343f483c2full},
      {"range", 64, 0x05bcba04c320d03bull, 0x6c65ed98f69eeb34ull,
       0x015cef1ce2520b5cull},
      {"greedy", 8, 0xecc777ae587feb27ull, 0xc2f877dcb6c51ba6ull,
       0xc3a2cd0ab5b222b3ull},
      {"greedy", 64, 0x2e273ed53f02d0d3ull, 0xe7bed7ec595f91f2ull,
       0x123ddb19bd2171f9ull},
      {"random", 8, 0xaf7e9f432ceac371ull, 0x7a86319204981942ull,
       0xbdf336d3067395bdull},
      {"random", 64, 0xe13f12a47af6d2a6ull, 0x5fe38f0e3bdf6ac3ull,
       0xceb9e2d149154cd0ull},
  });
}

TEST(GraphDigestTest, VertexCutOfRmat16) {
  // The GAS engine's default cut at the 64-worker scale.
  expect_cut_pins(rmat16(), {
      {"hash", 64, 0xd455fb5dbc7c1d55ull, 0x61ceb19f26e785dbull,
       0x2b20fbd578bde72dull},
      {"range", 8, 0xc6735f6dd82dc894ull, 0x8fda40fa46bacee0ull,
       0xd08eee0b5f5077faull},
  });
}

}  // namespace
}  // namespace g10::graph
