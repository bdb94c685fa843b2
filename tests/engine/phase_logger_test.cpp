#include "engine/phase_logger.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace g10::engine {
namespace {

trace::PathRef path(std::string_view type, std::int64_t index) {
  return trace::PathRef{}.child(type, index);
}

TEST(PhaseLoggerTest, BalancedBeginEnd) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, -1);
  log.end(path("A", 0), 10, -1);
  const auto events = log.take_phase_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, trace::PhaseEventRecord::Kind::Begin);
  EXPECT_EQ(events[1].kind, trace::PhaseEventRecord::Kind::End);
  EXPECT_EQ(events[1].time, 10);
}

TEST(PhaseLoggerTest, RejectsDoubleBegin) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, -1);
  EXPECT_THROW(log.begin(path("A", 0), 5, -1), CheckError);
}

TEST(PhaseLoggerTest, RejectsEndWithoutBegin) {
  PhaseLogger log;
  EXPECT_THROW(log.end(path("A", 0), 5, -1), CheckError);
}

TEST(PhaseLoggerTest, RejectsEndBeforeBegin) {
  PhaseLogger log;
  log.begin(path("A", 0), 10, -1);
  EXPECT_THROW(log.end(path("A", 0), 5, -1), CheckError);
}

TEST(PhaseLoggerTest, RejectsTakeWithOpenPhases) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, -1);
  EXPECT_THROW(log.take_phase_events(), CheckError);
}

TEST(PhaseLoggerTest, BlockEventsRecorded) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, 2);
  log.block("GC", path("A", 0), 3, 7, 2);
  log.block("GC", path("A", 0), 7, 7, 2);  // zero length: dropped
  log.end(path("A", 0), 10, 2);
  const auto blocks = log.take_blocking_events();
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].resource, "GC");
  EXPECT_EQ(blocks[0].begin, 3);
  EXPECT_EQ(blocks[0].end, 7);
  EXPECT_EQ(blocks[0].machine, 2);
}

TEST(PhaseLoggerTest, SamePathCanReopenAfterEnd) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, -1);
  log.end(path("A", 0), 5, -1);
  // Re-opening the same path is rejected only while open; after end it is a
  // duplicate instance and the engines never do it — but the logger treats
  // path uniqueness per open set.
  log.begin(path("A", 1), 5, -1);
  log.end(path("A", 1), 6, -1);
  EXPECT_EQ(log.take_phase_events().size(), 4u);
}

TEST(PhaseLoggerTest, RendersAcrossStorageBlocksInEmissionOrder) {
  // Two full blocks plus a partial one of phase events, and as many
  // blocking events, so rendering crosses every block boundary.
  const std::int64_t pairs =
      static_cast<std::int64_t>(PhaseLogger::kBlockEvents) * 5 / 4 + 1;
  const auto machine = [](std::int64_t i) {
    return static_cast<trace::MachineId>(i % 7) - 1;
  };
  PhaseLogger log;
  for (std::int64_t i = 0; i < pairs; ++i) {
    const trace::PathRef p = path("Step", 0).child("Task", i);
    log.begin(p, 3 * i, machine(i));
    log.block(i % 2 == 0 ? "GC" : "Queue", p, 3 * i, 3 * i + 1, machine(i));
    log.block("Net", p, 3 * i + 1, 3 * i + 2, machine(i));
    log.end(p, 3 * i + 2, machine(i));
  }
  const auto per_kind = static_cast<std::size_t>(2 * pairs);
  ASSERT_GT(per_kind, 2 * PhaseLogger::kBlockEvents);
  ASSERT_NE(per_kind % PhaseLogger::kBlockEvents, 0u);

  const auto events = log.take_phase_events();
  ASSERT_EQ(events.size(), per_kind);
  for (std::int64_t i = 0; i < pairs; ++i) {
    const std::string expected = "Step.0/Task." + std::to_string(i);
    for (const int end : {0, 1}) {
      const auto& event = events[static_cast<std::size_t>(2 * i + end)];
      ASSERT_EQ(event.kind, end ? trace::PhaseEventRecord::Kind::End
                                : trace::PhaseEventRecord::Kind::Begin)
          << i;
      ASSERT_EQ(event.path.to_string(), expected);
      ASSERT_EQ(event.time, 3 * i + 2 * end);
      ASSERT_EQ(event.machine, machine(i));
    }
  }

  const auto blocks = log.take_blocking_events();
  ASSERT_EQ(blocks.size(), per_kind);
  for (std::int64_t i = 0; i < pairs; ++i) {
    const std::string expected = "Step.0/Task." + std::to_string(i);
    for (const int net : {0, 1}) {
      const auto& block = blocks[static_cast<std::size_t>(2 * i + net)];
      ASSERT_EQ(block.resource, net ? "Net" : (i % 2 == 0 ? "GC" : "Queue"));
      ASSERT_EQ(block.path.to_string(), expected);
      ASSERT_EQ(block.begin, 3 * i + net);
      ASSERT_EQ(block.end, 3 * i + net + 1);
      ASSERT_EQ(block.machine, machine(i));
    }
  }

  // Taking leaves the logger empty and ready for another run.
  EXPECT_TRUE(log.take_phase_events().empty());
  EXPECT_TRUE(log.take_blocking_events().empty());
  log.begin(path("A", 0), 1, 0);
  log.block("GC", path("A", 0), 1, 2, 0);
  log.end(path("A", 0), 2, 0);
  const auto again = log.take_phase_events();
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].path.to_string(), "A.0");
  EXPECT_EQ(again[1].time, 2);
  ASSERT_EQ(log.take_blocking_events().size(), 1u);
}

}  // namespace
}  // namespace g10::engine
