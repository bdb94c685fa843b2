#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace g10::graph {
namespace {

TEST(GraphBuilderTest, BuildsSortedCsr) {
  GraphBuilder builder(4);
  builder.add_edge(0, 2);
  builder.add_edge(0, 1);
  builder.add_edge(3, 0);
  const Graph g = builder.build({});
  EXPECT_EQ(g.vertex_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  const auto n0 = g.out_neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_EQ(g.out_degree(3), 1u);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  const Graph g = builder.build({});
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphBuilderTest, KeepsParallelEdgesWhenAsked) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  GraphBuilder::Options options;
  options.deduplicate = false;
  const Graph g = builder.build(options);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphBuilderTest, RemovesSelfLoopsByDefault) {
  GraphBuilder builder(3);
  builder.add_edge(1, 1);
  builder.add_edge(0, 1);
  const Graph g = builder.build({});
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(GraphBuilderTest, SymmetrizeAddsReverseEdges) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  GraphBuilder::Options options;
  options.symmetrize = true;
  const Graph g = builder.build(options);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_TRUE(g.undirected());
}

TEST(GraphBuilderTest, RejectsOutOfRangeEdge) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2), CheckError);
  EXPECT_THROW(builder.add_edge(5, 0), CheckError);
}

TEST(GraphTest, InNeighborsAreCorrect) {
  GraphBuilder builder(4);
  builder.add_edge(0, 2);
  builder.add_edge(1, 2);
  builder.add_edge(3, 2);
  builder.add_edge(2, 0);
  const Graph g = builder.build({});
  const auto in2 = g.in_neighbors(2);
  ASSERT_EQ(in2.size(), 3u);
  EXPECT_EQ(in2[0], 0u);
  EXPECT_EQ(in2[1], 1u);
  EXPECT_EQ(in2[2], 3u);
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 0u);
}

TEST(GraphTest, HasEdgeBinarySearch) {
  GraphBuilder builder(5);
  for (VertexId v = 1; v < 5; ++v) builder.add_edge(0, v);
  const Graph g = builder.build({});
  for (VertexId v = 1; v < 5; ++v) EXPECT_TRUE(g.has_edge(0, v));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(GraphTest, EdgeIdMatchesCsrPosition) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(1, 2);
  const Graph g = builder.build({});
  EXPECT_EQ(g.edge_id(0, 0), 0u);
  EXPECT_EQ(g.edge_id(0, 1), 1u);
  EXPECT_EQ(g.edge_id(1, 0), 2u);
}

TEST(GraphTest, EmptyGraph) {
  GraphBuilder builder(3);
  const Graph g = builder.build({});
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.out_neighbors(0).empty());
}

TEST(WeightedGraphTest, WeightsFollowEdges) {
  GraphBuilder builder(3);
  builder.add_edge(0, 2, 5.0);
  builder.add_edge(0, 1, 2.5);
  builder.add_edge(1, 2, 7.0);
  const Graph g = builder.build({});
  ASSERT_TRUE(g.weighted());
  // Sorted CSR: (0,1)=2.5, (0,2)=5.0, (1,2)=7.0.
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 2.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(1), 5.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(2), 7.0);
  const auto w0 = g.out_weights(0);
  ASSERT_EQ(w0.size(), 2u);
  EXPECT_DOUBLE_EQ(w0[0], 2.5);
}

TEST(WeightedGraphTest, UnweightedDefaultsToOne) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  const Graph g = builder.build({});
  EXPECT_FALSE(g.weighted());
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 1.0);
  EXPECT_TRUE(g.out_weights(0).empty());
}

TEST(WeightedGraphTest, SymmetrizeDuplicatesWeight) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 3.5);
  GraphBuilder::Options options;
  options.symmetrize = true;
  const Graph g = builder.build(options);
  EXPECT_DOUBLE_EQ(g.edge_weight(g.edge_id(0, 0)), 3.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(g.edge_id(1, 0)), 3.5);
}

TEST(WeightedGraphTest, DedupKeepsLightestParallelEdge) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 9.0);
  builder.add_edge(0, 1, 2.0);
  const Graph g = builder.build({});
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 2.0);
}

TEST(WeightedGraphTest, InWeightMatchesOutEdge) {
  GraphBuilder builder(3);
  builder.add_edge(0, 2, 4.0);
  builder.add_edge(1, 2, 6.0);
  const Graph g = builder.build({});
  const auto in2 = g.in_neighbors(2);
  ASSERT_EQ(in2.size(), 2u);
  EXPECT_DOUBLE_EQ(g.in_weight(2, 0), 4.0);  // from vertex 0
  EXPECT_DOUBLE_EQ(g.in_weight(2, 1), 6.0);  // from vertex 1
}

TEST(WeightedGraphTest, SetWeightsValidatesSize) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  Graph g = builder.build({});
  EXPECT_THROW(g.set_weights({1.0, 2.0}), CheckError);
  g.set_weights({2.5});
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 2.5);
}

TEST(GraphTest, CsrValidationRejectsBadOffsets) {
  EXPECT_THROW(Graph({0, 2, 1}, {0, 1}, false, "bad"), CheckError);
  EXPECT_THROW(Graph({1, 2}, {0}, false, "bad"), CheckError);
}

// Oracle for GraphBuilder::build, by comparison sort: append reverse edges,
// drop self-loops, sort by (src, dst, weight), keep the first of each
// (src, dst) run.
struct RefEdge {
  VertexId src;
  VertexId dst;
  double weight;
};

struct RefCsr {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> targets;
  std::vector<double> weights;  ///< empty when no edge was weighted
};

RefCsr reference_build(VertexId n, std::vector<RefEdge> edges, bool weighted,
                       const GraphBuilder::Options& options) {
  if (options.symmetrize) {
    const std::size_t original = edges.size();
    for (std::size_t i = 0; i < original; ++i) {
      edges.push_back(RefEdge{edges[i].dst, edges[i].src, edges[i].weight});
    }
  }
  if (options.remove_self_loops) {
    std::erase_if(edges, [](const RefEdge& e) { return e.src == e.dst; });
  }
  std::sort(edges.begin(), edges.end(),
            [](const RefEdge& a, const RefEdge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.weight < b.weight;
            });
  if (options.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const RefEdge& a, const RefEdge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }
  RefCsr csr;
  csr.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const RefEdge& e : edges) ++csr.offsets[e.src + 1];
  for (VertexId v = 0; v < n; ++v) csr.offsets[v + 1] += csr.offsets[v];
  for (const RefEdge& e : edges) {
    csr.targets.push_back(e.dst);
    if (weighted) csr.weights.push_back(e.weight);
  }
  return csr;
}

std::vector<double> weights_of(const Graph& g) {
  std::vector<double> weights;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto w = g.out_weights(v);
    weights.insert(weights.end(), w.begin(), w.end());
  }
  return weights;
}

// Random edge lists with self-loops, duplicates, parallel edges of
// different weights, mixed weighted and unweighted adds, empty rows and a
// single vertex, under every combination of the three build options.
TEST(GraphBuilderTest, MatchesComparisonSortReference) {
  Rng rng(2020);
  // Few distinct weights, so parallel edges both tie and differ.
  const double kWeights[] = {1.0, 0.5, 2.5, 7.25, 3.0};
  int cases = 0;
  for (const VertexId n : {1u, 2u, 3u, 8u, 33u, 200u}) {
    for (int trial = 0; trial < 12; ++trial) {
      // Every add unweighted, every add weighted, or a mix of both.
      const int weighting = trial % 3;
      const auto m = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(n) * 4 + 3));
      // Sources from a prefix of the ids leave the last rows empty.
      const auto sources = static_cast<VertexId>(
          1 + rng.next_below(trial % 2 == 0 ? n : (n + 1) / 2));
      std::vector<RefEdge> edges;
      std::vector<bool> weighted_add;
      for (std::size_t i = 0; i < m; ++i) {
        RefEdge e{static_cast<VertexId>(rng.next_below(sources)),
                  static_cast<VertexId>(rng.next_below(n)), 1.0};
        if (rng.next_bool(0.15)) e.dst = e.src;  // self-loop
        if (!edges.empty() && rng.next_bool(0.25)) {
          // A parallel edge of an earlier add, possibly of another weight.
          const RefEdge& earlier = edges[rng.next_below(edges.size())];
          e.src = earlier.src;
          e.dst = earlier.dst;
        }
        const bool weigh =
            weighting == 1 || (weighting == 2 && rng.next_bool(0.5));
        if (weigh) e.weight = kWeights[rng.next_below(std::size(kWeights))];
        edges.push_back(e);
        weighted_add.push_back(weigh);
      }
      const bool weighted =
          std::find(weighted_add.begin(), weighted_add.end(), true) !=
          weighted_add.end();
      for (int mask = 0; mask < 8; ++mask) {
        GraphBuilder::Options options;
        options.symmetrize = (mask & 1) != 0;
        options.remove_self_loops = (mask & 2) != 0;
        options.deduplicate = (mask & 4) != 0;
        SCOPED_TRACE("n=" + std::to_string(n) + " trial=" +
                     std::to_string(trial) + " mask=" + std::to_string(mask));
        GraphBuilder builder(n);
        for (std::size_t i = 0; i < edges.size(); ++i) {
          if (weighted_add[i]) {
            builder.add_edge(edges[i].src, edges[i].dst, edges[i].weight);
          } else {
            builder.add_edge(edges[i].src, edges[i].dst);
          }
        }
        const Graph g = builder.build(options);
        EXPECT_EQ(builder.pending_edges(), 0u);
        const RefCsr ref = reference_build(n, edges, weighted, options);
        // A graph with no edges left reports unweighted either way.
        EXPECT_EQ(g.weighted(), weighted && g.edge_count() > 0);
        EXPECT_EQ(g.out_offsets(), ref.offsets);
        EXPECT_EQ(g.out_targets(), ref.targets);
        EXPECT_EQ(weights_of(g), ref.weights);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 6 * 12 * 8);
}

}  // namespace
}  // namespace g10::graph
