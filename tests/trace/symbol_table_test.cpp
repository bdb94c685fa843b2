#include "trace/symbol_table.hpp"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "trace/path_index.hpp"

namespace g10::trace {
namespace {

/// PathRef -> path-table node -> PhasePath, and the parsed rendering back to
/// the same node: the phase logger's rendering path.
void expect_round_trip(PathIndex& index, const PathRef& ref) {
  const PathIndex::NodeId node = index.insert(ref);
  PhasePath rendered;
  index.phase_path(node, rendered);
  EXPECT_EQ(rendered.to_string(), ref.to_string());
  EXPECT_EQ(index.path(node), ref.to_string());
  const auto parsed = parse_phase_path(ref.to_string());
  ASSERT_TRUE(parsed.has_value()) << ref.to_string();
  EXPECT_EQ(*parsed, rendered);
  const std::size_t nodes = index.size();
  EXPECT_EQ(index.insert(*parsed), node);
  EXPECT_EQ(index.size(), nodes);
  EXPECT_EQ(index.find(ref), node);
}

TEST(SymbolTableTest, InternDeduplicates) {
  SymbolTable& table = SymbolTable::global();
  const Symbol a = table.intern("SymbolTableTestPhase");
  const Symbol b = table.intern("SymbolTableTestPhase");
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.name(a), "SymbolTableTestPhase");
}

TEST(SymbolTableTest, DistinctNamesGetDistinctSymbols) {
  SymbolTable& table = SymbolTable::global();
  const Symbol a = table.intern("SymbolTableTestA");
  const Symbol b = table.intern("SymbolTableTestB");
  EXPECT_NE(a, b);
}

TEST(PathRefTest, EmptyPath) {
  PathRef path;
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(path.depth(), 0u);
  EXPECT_EQ(path.to_string(), "");
  EXPECT_EQ(PathIndex().insert(path), PathIndex::kRoot);
}

TEST(PathRefTest, ChildAndParentMirrorPhasePath) {
  const PathRef path = PathRef{}.child("Job", 0).child("Execute", 0).child(
      "Superstep", 3);
  EXPECT_EQ(path.depth(), 3u);
  EXPECT_EQ(path.to_string(), "Job.0/Execute.0/Superstep.3");
  EXPECT_EQ(path.parent().to_string(), "Job.0/Execute.0");
  EXPECT_EQ(path.parent().parent().to_string(), "Job.0");
  EXPECT_TRUE(path.parent().parent().parent().empty());
  EXPECT_EQ(path.leaf().index, 3);
  EXPECT_EQ(SymbolTable::global().name(path.leaf().type), "Superstep");
}

TEST(PathRefTest, EqualityTracksContent) {
  const PathRef a = PathRef{}.child("Job", 0).child("Superstep", 1);
  const PathRef b = PathRef{}.child("Job", 0).child("Superstep", 1);
  const PathRef c = PathRef{}.child("Job", 0).child("Superstep", 2);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == a.parent());
}

TEST(PathRefTest, RoundTripsThroughThePathIndex) {
  const PathRef ref = PathRef{}
                          .child("Job", 0)
                          .child("Execute", 0)
                          .child("Superstep", 12)
                          .child("WorkerCompute", 2)
                          .child("ComputeThread", 5);
  PathIndex index;
  expect_round_trip(index, ref);
  // Every prefix is a node, reached from a PathRef or a PhasePath alike.
  EXPECT_EQ(index.size(), ref.depth() + 1);
  expect_round_trip(index, ref.parent());
  EXPECT_EQ(index.size(), ref.depth() + 1);
}

TEST(PathRefTest, OverflowBeyondInlineCapacity) {
  // Deeper than kInlineCapacity: entries spill to the heap vector and the
  // path must behave identically (copies, equality, rendering).
  PathRef ref;
  for (int i = 0; i < 2 * static_cast<int>(PathRef::kInlineCapacity); ++i) {
    ref = ref.child("Level", i);
  }
  EXPECT_EQ(ref.depth(), 2 * PathRef::kInlineCapacity);
  const PathRef copy = ref;  // copy after spilling
  EXPECT_EQ(copy, ref);
  PathIndex index;
  expect_round_trip(index, ref);
  // Walking parents back across the spill boundary stays consistent.
  PathRef up = ref;
  for (std::size_t d = ref.depth(); d > 0; --d) {
    EXPECT_EQ(up.depth(), d);
    expect_round_trip(index, up);
    up = up.parent();
  }
  EXPECT_TRUE(up.empty());
}

TEST(PathRefTest, PushBuildsIncrementally) {
  PathRef pushed;
  pushed.push("Job", 0);
  pushed.push("Stage", 7);
  const PathRef chained = PathRef{}.child("Job", 0).child("Stage", 7);
  EXPECT_EQ(pushed, chained);
}

// Property test: random paths over the phase vocabulary of all three
// engine models render losslessly through one path table, PathRef -> node
// -> PhasePath -> string, and the parsed string finds the same node.
TEST(PathRefTest, RandomCorpusRoundTrips) {
  const std::vector<std::string> types = {
      // Pregel
      "Job", "LoadGraph", "LoadWorker", "Execute", "Superstep",
      "WorkerPrepare", "WorkerCompute", "ComputeThread", "WorkerCommunicate",
      "WorkerBarrier", "GcPause", "Checkpoint", "CheckpointWorker",
      "Recovery", "RecoveryWorker", "StoreResults", "StoreWorker",
      // GAS
      "Iteration", "GatherStep", "WorkerGather", "GatherThread", "ApplyStep",
      "WorkerApply", "ApplyThread", "ScatterStep", "WorkerScatter",
      "ScatterThread", "ExchangeStep", "WorkerExchange",
      // Dataflow
      "Stage", "Task", "ShuffleWrite"};
  Rng rng(20260805);
  PathIndex index;
  std::unordered_set<std::string> rendered;
  for (int trial = 0; trial < 500; ++trial) {
    // Depths straddle the inline capacity; indices include values that do
    // not fit in 32 bits.
    const auto depth = static_cast<std::size_t>(
        1 + rng.next_below(2 * PathRef::kInlineCapacity));
    PathRef ref;
    for (std::size_t d = 0; d < depth; ++d) {
      const auto& type = types[rng.next_below(types.size())];
      auto index = static_cast<std::int64_t>(rng.next_below(1'000'000));
      if (rng.next_bool(0.1)) index *= 1'000'000'000LL;  // > 2^32
      ref = ref.child(type, index);
    }
    ASSERT_EQ(ref.depth(), depth);

    expect_round_trip(index, ref);
    rendered.insert(ref.to_string());
  }
  // Sanity: the corpus was actually diverse.
  EXPECT_GT(rendered.size(), 450u);
}

}  // namespace
}  // namespace g10::trace
