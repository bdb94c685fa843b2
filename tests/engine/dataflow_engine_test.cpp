#include "engine/dataflow/dataflow_engine.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/check.hpp"
#include "engine/resource_names.hpp"

namespace g10::engine {
namespace {

DataflowConfig small_config() {
  DataflowConfig cfg;
  cfg.cluster.machine_count = 3;
  cfg.cluster.machine.cores = 4;
  cfg.seed = 9;
  return cfg;
}

DataflowJobSpec three_stage_job() {
  DataflowJobSpec job;
  job.stages.push_back({/*tasks=*/24, /*work=*/1e6, /*skew=*/0.0,
                        /*shuffle=*/5e5});
  job.stages.push_back({/*tasks=*/12, /*work=*/2e6, /*skew=*/1.5,
                        /*shuffle=*/1e6});
  job.stages.push_back({/*tasks=*/6, /*work=*/1e6, /*skew=*/0.0,
                        /*shuffle=*/0.0});
  return job;
}

TEST(DataflowEngineTest, RunsAllStagesAndTasks) {
  const DataflowEngine engine(small_config());
  const auto result = engine.run(three_stage_job());
  EXPECT_GT(result.makespan, 0);
  std::map<int, int> tasks_per_stage;
  for (const auto& event : result.phase_events) {
    if (event.kind != trace::PhaseEventRecord::Kind::Begin) continue;
    if (event.path.leaf().type != "Task") continue;
    ++tasks_per_stage[static_cast<int>(event.path.elements[1].index)];
  }
  EXPECT_EQ(tasks_per_stage[0], 24);
  EXPECT_EQ(tasks_per_stage[1], 12);
  EXPECT_EQ(tasks_per_stage[2], 6);
}

TEST(DataflowEngineTest, StagesAreSequential) {
  const DataflowEngine engine(small_config());
  const auto result = engine.run(three_stage_job());
  std::map<std::string, std::pair<TimeNs, TimeNs>> spans;
  for (const auto& event : result.phase_events) {
    auto& span = spans[event.path.to_string()];
    (event.kind == trace::PhaseEventRecord::Kind::Begin ? span.first
                                                        : span.second) =
        event.time;
  }
  EXPECT_LE(spans["Job.0/Stage.0"].second, spans["Job.0/Stage.1"].first);
  EXPECT_LE(spans["Job.0/Stage.1"].second, spans["Job.0/Stage.2"].first);
}

TEST(DataflowEngineTest, DeterministicForSameSeed) {
  const DataflowEngine engine(small_config());
  const auto a = engine.run(three_stage_job());
  const auto b = engine.run(three_stage_job());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.phase_events.size(), b.phase_events.size());
}

TEST(DataflowEngineTest, CpuWithinCapacity) {
  const DataflowEngine engine(small_config());
  const auto result = engine.run(three_stage_job());
  for (const auto& gt : result.ground_truth) {
    if (gt.resource != resource_names::kCpu) continue;
    EXPECT_LE(gt.series.max_over(0, result.makespan), gt.capacity + 1e-9);
  }
}

TEST(DataflowEngineTest, SkewedStageHasStragglers) {
  auto job = three_stage_job();
  const DataflowEngine engine(small_config());
  const auto result = engine.run(job);
  // Stage 1 has skew 1.5: its longest task should far exceed its shortest.
  DurationNs min_task = 1'000'000'000;
  DurationNs max_task = 0;
  std::map<std::string, TimeNs> begins;
  for (const auto& event : result.phase_events) {
    if (event.path.leaf().type != "Task" ||
        event.path.elements[1].index != 1) {
      continue;
    }
    if (event.kind == trace::PhaseEventRecord::Kind::Begin) {
      begins[event.path.to_string()] = event.time;
    } else {
      const DurationNs d = event.time - begins[event.path.to_string()];
      min_task = std::min(min_task, d);
      max_task = std::max(max_task, d);
    }
  }
  EXPECT_GT(max_task, 2 * min_task);
}

TEST(DataflowEngineTest, EmptyJobRejected) {
  const DataflowEngine engine(small_config());
  EXPECT_THROW(engine.run(DataflowJobSpec{}), CheckError);
}

TEST(DataflowEngineTest, ZeroTaskStageCompletes) {
  DataflowJobSpec job;
  job.stages.push_back({/*tasks=*/0, 1e6, 0.0, 0.0});
  job.stages.push_back({/*tasks=*/4, 1e6, 0.0, 0.0});
  const DataflowEngine engine(small_config());
  const auto result = engine.run(job);
  EXPECT_GT(result.makespan, 0);
}

TEST(DataflowEngineTest, FewerSlotsSerializeTasks) {
  DataflowJobSpec job;
  job.stages.push_back({/*tasks=*/12, 1e6, 0.0, 0.0});
  auto wide = small_config();
  auto narrow = small_config();
  narrow.slots_per_machine = 1;
  const auto fast = DataflowEngine(wide).run(job);
  const auto slow = DataflowEngine(narrow).run(job);
  EXPECT_GT(slow.makespan, fast.makespan);
}

}  // namespace
}  // namespace g10::engine
