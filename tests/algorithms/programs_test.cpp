#include "algorithms/programs.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <string_view>

#include "graph/builder.hpp"

namespace g10::algorithms {
namespace {

using graph::GraphBuilder;

TEST(ModeSmallestLabelTest, SingleValue) {
  EXPECT_DOUBLE_EQ(mode_smallest_label({3.0}), 3.0);
}

TEST(ModeSmallestLabelTest, ClearMode) {
  EXPECT_DOUBLE_EQ(mode_smallest_label({1.0, 2.0, 2.0, 3.0}), 2.0);
}

TEST(ModeSmallestLabelTest, TieGoesToSmallest) {
  EXPECT_DOUBLE_EQ(mode_smallest_label({5.0, 5.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(mode_smallest_label({3.0, 2.0, 1.0}), 1.0);
}

TEST(PageRankProgramTest, ConfiguresEngineContract) {
  const PageRank pr(10);
  EXPECT_EQ(pr.combiner(), Combiner::kSum);
  EXPECT_EQ(pr.max_supersteps(), 11);
  EXPECT_EQ(pr.max_iterations(), 10);
  EXPECT_EQ(pr.name(), "PageRank");
}

TEST(PageRankProgramTest, InitialValueIsUniform) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const auto g = b.build({});
  const PageRank pr(5);
  EXPECT_DOUBLE_EQ(pr.initial_value(0, g), 0.25);
}

TEST(PageRankProgramTest, ComputeAppliesDamping) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const auto g = b.build({});
  const PageRank pr(5, 0.85);
  double value = 0.5;
  const double messages[] = {0.4};
  PregelOutbox out;
  pr.compute(0, value, std::span<const double>(messages, 1), 1, g, out);
  EXPECT_NEAR(value, 0.15 / 2 + 0.85 * 0.4, 1e-12);
  EXPECT_TRUE(out.send_to_all_neighbors);
  EXPECT_FALSE(out.vote_to_halt);
  EXPECT_NEAR(out.message, value, 1e-12);  // out-degree 1
}

TEST(PageRankProgramTest, HaltsAfterLastIteration) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const auto g = b.build({});
  const PageRank pr(3);
  double value = 0.5;
  PregelOutbox out;
  pr.compute(0, value, {}, 3, g, out);
  EXPECT_TRUE(out.vote_to_halt);
  EXPECT_FALSE(out.send_to_all_neighbors);
}

TEST(BfsProgramTest, SourceSendsAtSuperstepZero) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto g = b.build({});
  const Bfs bfs(0);
  EXPECT_EQ(bfs.combiner(), Combiner::kMin);
  double value = bfs.initial_value(0, g);
  EXPECT_DOUBLE_EQ(value, 0.0);
  PregelOutbox out;
  bfs.compute(0, value, {}, 0, g, out);
  EXPECT_TRUE(out.send_to_all_neighbors);
  EXPECT_DOUBLE_EQ(out.message, 1.0);
  EXPECT_TRUE(out.vote_to_halt);
}

TEST(BfsProgramTest, NonSourceStaysSilentAtZero) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto g = b.build({});
  const Bfs bfs(0);
  double value = bfs.initial_value(1, g);
  PregelOutbox out;
  bfs.compute(1, value, {}, 0, g, out);
  EXPECT_FALSE(out.send_to_all_neighbors);
  EXPECT_TRUE(out.vote_to_halt);
}

TEST(BfsProgramTest, ImprovedDistancePropagates) {
  GraphBuilder b(3);
  b.add_edge(1, 2);
  const auto g = b.build({});
  const Bfs bfs(0);
  double value = bfs.initial_value(1, g);
  const double messages[] = {1.0};
  PregelOutbox out;
  bfs.compute(1, value, std::span<const double>(messages, 1), 1, g, out);
  EXPECT_DOUBLE_EQ(value, 1.0);
  EXPECT_TRUE(out.send_to_all_neighbors);
  EXPECT_DOUBLE_EQ(out.message, 2.0);
}

TEST(WccProgramTest, GasApplyTakesMin) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto g = b.build({});
  const Wcc wcc;
  const graph::VertexId nbrs[] = {0, 2};
  const double values[] = {5.0, 1.0};
  EXPECT_DOUBLE_EQ(wcc.apply(1, 3.0, nbrs, values, {}, 0, g), 1.0);
  EXPECT_TRUE(wcc.scatter_activates(1, 3.0, 1.0, 0));
  EXPECT_FALSE(wcc.scatter_activates(1, 3.0, 3.0, 0));
}

TEST(CdlpProgramTest, GasApplyTakesModeOrKeepsOwn) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto g = b.build({});
  const Cdlp cdlp(4);
  const graph::VertexId nbrs[] = {0, 2};
  const double values[] = {7.0, 7.0};
  EXPECT_DOUBLE_EQ(cdlp.apply(1, 1.0, nbrs, values, {}, 0, g), 7.0);
  EXPECT_DOUBLE_EQ(cdlp.apply(1, 1.0, {}, {}, {}, 0, g), 1.0);
  EXPECT_EQ(cdlp.combiner(), Combiner::kNone);
}

TEST(ProgramSetTest, ResolvesEveryListedNameInBothParadigms) {
  const ProgramSet programs(7);
  const std::string expected[] = {"PageRank", "BFS", "WCC", "CDLP", "SSSP"};
  ASSERT_EQ(std::size(expected), kAlgorithmNames.size());
  for (std::size_t i = 0; i < kAlgorithmNames.size(); ++i) {
    const std::string_view name = kAlgorithmNames[i];
    EXPECT_TRUE(is_algorithm_name(name));
    const auto* pregel = programs.find<PregelProgram>(name);
    const auto* gas = programs.find<GasProgram>(name);
    ASSERT_NE(pregel, nullptr) << name;
    ASSERT_NE(gas, nullptr) << name;
    EXPECT_EQ(pregel->name(), expected[i]);
    EXPECT_EQ(gas->name(), expected[i]);
  }
  EXPECT_EQ(programs.find<PregelProgram>("pagerank")->max_supersteps(), 8);
  EXPECT_EQ(programs.find<GasProgram>("cdlp")->max_iterations(), 7);
}

TEST(ProgramSetTest, UnknownNamesResolveToNothing) {
  const ProgramSet programs(3);
  for (const std::string_view name : {"", "foo", "PageRank", "pagerank "}) {
    EXPECT_FALSE(is_algorithm_name(name)) << name;
    EXPECT_EQ(programs.find<PregelProgram>(name), nullptr) << name;
    EXPECT_EQ(programs.find<GasProgram>(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace g10::algorithms
