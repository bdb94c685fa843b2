#include "graph/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/generators.hpp"

namespace g10::graph {
namespace {

Graph test_graph() {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  params.seed = 3;
  return generate_rmat(params);
}

/// Fraction of edges whose endpoints have different owners.
double cut_fraction(const EdgeCutPartition& p, const Graph& g) {
  EdgeIndex cut = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    for (const VertexId t : g.out_neighbors(v)) {
      if (p.owner[v] != p.owner[t]) ++cut;
    }
  }
  return static_cast<double>(cut) / static_cast<double>(g.edge_count());
}

class EdgeCutTest : public ::testing::TestWithParam<PartitionId> {};

TEST_P(EdgeCutTest, HashCoversAllVertices) {
  const Graph g = test_graph();
  const auto p = partition_by_hash(g, GetParam());
  ASSERT_EQ(p.owner.size(), g.vertex_count());
  for (const PartitionId owner : p.owner) EXPECT_LT(owner, GetParam());
}

INSTANTIATE_TEST_SUITE_P(PartCounts, EdgeCutTest,
                         ::testing::Values(2, 4, 8, 16));

TEST(EdgeCutTest, SinglePartitionHasNoCut) {
  const Graph g = test_graph();
  const auto p = partition_by_hash(g, 1);
  EXPECT_DOUBLE_EQ(cut_fraction(p, g), 0.0);
}

TEST(EdgeCutTest, HashCutFractionIsHigh) {
  const Graph g = test_graph();
  const auto p = partition_by_hash(g, 8);
  // Random-ish placement cuts about (k-1)/k of edges.
  EXPECT_GT(cut_fraction(p, g), 0.6);
  EXPECT_LE(cut_fraction(p, g), 1.0);
}

class VertexCutTest
    : public ::testing::TestWithParam<std::pair<const char*, PartitionId>> {
 protected:
  VertexCutPartition make(const Graph& g) const {
    const auto& [kind, parts] = GetParam();
    if (std::string_view(kind) == "greedy") {
      return partition_vertex_cut_greedy(g, parts);
    }
    if (std::string_view(kind) == "random") {
      return partition_vertex_cut_random(g, parts, 7);
    }
    return partition_vertex_cut_hash_source(g, parts);
  }
};

TEST_P(VertexCutTest, EveryEdgeAssignedAndReplicasConsistent) {
  const Graph g = test_graph();
  const auto cut = make(g);
  const auto parts = GetParam().second;
  ASSERT_EQ(cut.edge_owner.size(), g.edge_count());
  for (const PartitionId p : cut.edge_owner) EXPECT_LT(p, parts);

  // Each edge's endpoints must have replicas on the edge's partition, and
  // each vertex's master must be among its replicas.
  for (VertexId u = 0; u < g.vertex_count(); ++u) {
    const auto nbrs = g.out_neighbors(u);
    for (EdgeIndex i = 0; i < nbrs.size(); ++i) {
      const PartitionId p = cut.edge_owner[g.edge_id(u, i)];
      const auto ru = cut.replicas(u);
      const auto rv = cut.replicas(nbrs[i]);
      EXPECT_TRUE(std::find(ru.begin(), ru.end(), p) != ru.end());
      EXPECT_TRUE(std::find(rv.begin(), rv.end(), p) != rv.end());
    }
    if (!cut.replicas(u).empty()) {
      const auto r = cut.replicas(u);
      EXPECT_TRUE(std::find(r.begin(), r.end(), cut.master[u]) != r.end());
      EXPECT_TRUE(std::is_sorted(r.begin(), r.end()));
    }
  }
  EXPECT_GE(cut.replication_factor(), 1.0);
  EXPECT_LE(cut.replication_factor(), static_cast<double>(parts));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, VertexCutTest,
    ::testing::Values(std::make_pair("greedy", PartitionId{4}),
                      std::make_pair("greedy", PartitionId{8}),
                      std::make_pair("random", PartitionId{4}),
                      std::make_pair("hash", PartitionId{4}),
                      std::make_pair("hash", PartitionId{8})));

TEST(VertexCutComparisonTest, GreedyBalancesBetterThanHashSource) {
  const Graph g = test_graph();
  const auto greedy = partition_vertex_cut_greedy(g, 8);
  const auto hash = partition_vertex_cut_hash_source(g, 8);
  const auto imbalance = [](const std::vector<EdgeIndex>& counts) {
    const auto max = *std::max_element(counts.begin(), counts.end());
    const auto sum = std::accumulate(counts.begin(), counts.end(),
                                     EdgeIndex{0});
    return static_cast<double>(max) * counts.size() /
           static_cast<double>(sum);
  };
  EXPECT_LT(imbalance(greedy.edge_counts()), imbalance(hash.edge_counts()));
}

TEST(VertexCutComparisonTest, GreedyReplicationBelowRandom) {
  const Graph g = test_graph();
  const auto greedy = partition_vertex_cut_greedy(g, 8);
  const auto random = partition_vertex_cut_random(g, 8, 9);
  EXPECT_LT(greedy.replication_factor(), random.replication_factor());
}

}  // namespace
}  // namespace g10::graph
