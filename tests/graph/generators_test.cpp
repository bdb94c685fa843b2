#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace g10::graph {
namespace {

/// The largest out-degree over the mean out-degree.
double max_over_mean_degree(const Graph& g) {
  EdgeIndex max_out = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    max_out = std::max(max_out, g.out_degree(v));
  }
  const double mean_out = static_cast<double>(g.edge_count()) /
                          static_cast<double>(g.vertex_count());
  return static_cast<double>(max_out) / mean_out;
}

TEST(RmatTest, DeterministicForSeed) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  params.seed = 5;
  const Graph a = generate_rmat(params);
  const Graph b = generate_rmat(params);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.out_targets(), b.out_targets());
  EXPECT_EQ(a.out_offsets(), b.out_offsets());
}

TEST(RmatTest, DifferentSeedsDiffer) {
  RmatParams params;
  params.scale = 8;
  params.seed = 5;
  const Graph a = generate_rmat(params);
  params.seed = 6;
  const Graph b = generate_rmat(params);
  EXPECT_NE(a.out_targets(), b.out_targets());
}

TEST(RmatTest, HasExpectedScaleAndSkew) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 16;
  const Graph g = generate_rmat(params);
  EXPECT_EQ(g.vertex_count(), 1024u);
  // Dedup removes some edges but most should survive.
  EXPECT_GT(g.edge_count(), 1024u * 8);
  // Power-law-ish: heavily skewed out-degree distribution.
  EXPECT_GT(max_over_mean_degree(g), 8.0);
}

TEST(DatagenTest, DeterministicAndClustered) {
  DatagenParams params;
  params.vertices = 2048;
  params.mean_degree = 10;
  params.seed = 11;
  const Graph a = generate_datagen_like(params);
  const Graph b = generate_datagen_like(params);
  EXPECT_EQ(a.out_targets(), b.out_targets());
  EXPECT_EQ(a.vertex_count(), 2048u);
  EXPECT_GT(a.edge_count(), 2048u * 3);
  EXPECT_TRUE(a.undirected());
}

TEST(DatagenTest, DegreeSkewPresent) {
  DatagenParams params;
  params.vertices = 4096;
  params.mean_degree = 16;
  const Graph g = generate_datagen_like(params);
  EXPECT_GT(max_over_mean_degree(g), 5.0);
}

TEST(RandomWeightsTest, DeterministicSymmetricAndInRange) {
  DatagenParams params;
  params.vertices = 1024;
  params.mean_degree = 8;
  Graph a = generate_datagen_like(params);
  Graph b = generate_datagen_like(params);
  assign_random_weights(a, 1.0, 10.0, 42);
  assign_random_weights(b, 1.0, 10.0, 42);
  ASSERT_TRUE(a.weighted());
  for (EdgeIndex e = 0; e < a.edge_count(); ++e) {
    ASSERT_DOUBLE_EQ(a.edge_weight(e), b.edge_weight(e));
    ASSERT_GE(a.edge_weight(e), 1.0);
    ASSERT_LT(a.edge_weight(e), 10.0);
  }
  // Symmetric: weight(u->v) == weight(v->u) on the symmetrized graph.
  for (VertexId u = 0; u < a.vertex_count(); ++u) {
    const auto nbrs = a.out_neighbors(u);
    for (EdgeIndex i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      const auto back = a.out_neighbors(v);
      for (EdgeIndex j = 0; j < back.size(); ++j) {
        if (back[j] == u) {
          ASSERT_DOUBLE_EQ(a.edge_weight(a.edge_id(u, i)),
                           a.edge_weight(a.edge_id(v, j)));
        }
      }
    }
  }
}

TEST(RandomWeightsTest, DifferentSeedsDiffer) {
  RmatParams params;
  params.scale = 8;
  Graph a = generate_rmat(params);
  Graph b = generate_rmat(params);
  assign_random_weights(a, 0.0, 1.0, 1);
  assign_random_weights(b, 0.0, 1.0, 2);
  bool any_diff = false;
  for (EdgeIndex e = 0; e < a.edge_count(); ++e) {
    if (a.edge_weight(e) != b.edge_weight(e)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

class GeneratorScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorScaleTest, RmatVertexCountMatchesScale) {
  RmatParams params;
  params.scale = GetParam();
  params.edge_factor = 4;
  const Graph g = generate_rmat(params);
  EXPECT_EQ(g.vertex_count(), 1u << GetParam());
  EXPECT_GT(g.edge_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Scales, GeneratorScaleTest,
                         ::testing::Values(4, 6, 8, 10, 12));

}  // namespace
}  // namespace g10::graph
