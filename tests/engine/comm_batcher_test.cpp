// Unit tests for Pregel's per-destination send coalescing buffers
// (DESIGN.md §13): deposit/frame-size semantics, drain order, crash clears,
// and the flush count the engine surfaces through trace::CommStats.
#include <gtest/gtest.h>

#include <vector>

#include "engine/comm_batcher.hpp"

namespace g10::engine {
namespace {

TEST(CommBatcherTest, DepositAccumulatesAndReportsCrossing) {
  CommBatcher batcher(3, 100.0);

  auto dep = batcher.deposit(0, 1, 40.0);
  EXPECT_TRUE(dep.first_pending);
  EXPECT_FALSE(dep.crossed);
  EXPECT_DOUBLE_EQ(batcher.pending(0), 40.0);

  dep = batcher.deposit(0, 1, 40.0);
  EXPECT_FALSE(dep.first_pending);
  EXPECT_FALSE(dep.crossed);

  dep = batcher.deposit(0, 1, 30.0);
  EXPECT_FALSE(dep.first_pending);
  EXPECT_TRUE(dep.crossed);  // 110 >= 100
  EXPECT_DOUBLE_EQ(batcher.pending(0), 110.0);

  EXPECT_DOUBLE_EQ(batcher.take(0, 1), 110.0);
  EXPECT_DOUBLE_EQ(batcher.pending(0), 0.0);
  EXPECT_DOUBLE_EQ(batcher.take(0, 1), 0.0);  // empty
  EXPECT_EQ(batcher.flushes(), 1);            // the empty take is not one
}

TEST(CommBatcherTest, DefaultFrameIsTheEngineFrameSize) {
  CommBatcher batcher(2);
  EXPECT_FALSE(
      batcher.deposit(0, 1, CommBatcher::kFrameBytes - 1.0).crossed);
  EXPECT_TRUE(batcher.deposit(0, 1, 1.0).crossed);
}

TEST(CommBatcherTest, ZeroByteDepositIsIgnored) {
  CommBatcher batcher(2, 100.0);
  const auto dep = batcher.deposit(0, 1, 0.0);
  EXPECT_FALSE(dep.first_pending);
  EXPECT_FALSE(dep.crossed);
  EXPECT_DOUBLE_EQ(batcher.pending(0), 0.0);
}

TEST(CommBatcherTest, FirstPendingIsPerSource) {
  CommBatcher batcher(3, 1000.0);
  EXPECT_TRUE(batcher.deposit(0, 1, 8.0).first_pending);
  EXPECT_FALSE(batcher.deposit(0, 2, 8.0).first_pending);  // src 0 not idle
  EXPECT_TRUE(batcher.deposit(1, 0, 8.0).first_pending);   // src 1 was idle
}

TEST(CommBatcherTest, TakeAllDrainsAscendingByDestination) {
  CommBatcher batcher(4, 1000.0);
  batcher.deposit(1, 3, 24.0);
  batcher.deposit(1, 0, 16.0);
  batcher.deposit(1, 2, 8.0);
  batcher.deposit(1, 2, 8.0);

  std::vector<CommBatcher::Flush> flushes;
  batcher.take_all(1, flushes);
  ASSERT_EQ(flushes.size(), 3u);
  EXPECT_EQ(flushes[0].dst, 0);
  EXPECT_DOUBLE_EQ(flushes[0].bytes, 16.0);
  EXPECT_EQ(flushes[1].dst, 2);
  EXPECT_DOUBLE_EQ(flushes[1].bytes, 16.0);
  EXPECT_EQ(flushes[2].dst, 3);
  EXPECT_DOUBLE_EQ(flushes[2].bytes, 24.0);
  EXPECT_DOUBLE_EQ(batcher.pending(1), 0.0);
  EXPECT_EQ(batcher.flushes(), 3);  // one per drained buffer

  batcher.take_all(1, flushes);
  EXPECT_TRUE(flushes.empty());  // out is cleared even when nothing drains
  EXPECT_EQ(batcher.flushes(), 3);
}

TEST(CommBatcherTest, ClearDropsBuffersWithoutCountingFlushes) {
  CommBatcher batcher(3, 1000.0);
  batcher.deposit(2, 0, 24.0);
  batcher.deposit(2, 1, 24.0);
  batcher.clear(2);
  EXPECT_DOUBLE_EQ(batcher.pending(2), 0.0);
  EXPECT_EQ(batcher.flushes(), 0);

  std::vector<CommBatcher::Flush> flushes;
  batcher.take_all(2, flushes);
  EXPECT_TRUE(flushes.empty());  // nothing survives the clear
}

}  // namespace
}  // namespace g10::engine
