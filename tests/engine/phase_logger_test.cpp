#include "engine/phase_logger.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "algorithms/programs.hpp"
#include "common/check.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "graph/generators.hpp"
#include "trace/det_fold.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"

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

TEST(PhaseLoggerTest, BeginAndEndShareANode) {
  PhaseLogger log;
  const trace::PathRef p = path("Job", 0).child("Step", 3).child("Task", 1);
  log.begin(p, 0, 1);
  // The root node plus one node per path element.
  EXPECT_EQ(log.paths().size(), 4u);
  log.block("GC", p, 1, 2, 1);
  log.end(p, 5, 1);
  EXPECT_EQ(log.paths().size(), 4u);
  const auto events = log.take_phase_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].path, events[1].path);
  EXPECT_EQ(events[1].path.to_string(), "Job.0/Step.3/Task.1");
}

TEST(PhaseLoggerTest, PathBegunAgainAfterAbandonResolvesToTheSameNode) {
  // A crash restart: the truncated instance is abandoned, then the same
  // path begins again.
  PhaseLogger log;
  const trace::PathRef p = path("Job", 0).child("Load", 0);
  log.begin(p, 10, 2);
  const std::size_t nodes = log.paths().size();
  ASSERT_TRUE(log.abandon(p));
  EXPECT_FALSE(log.is_open(p));
  EXPECT_FALSE(log.abandon(p));
  log.begin(p, 20, 2);
  EXPECT_EQ(log.paths().size(), nodes);
  EXPECT_TRUE(log.is_open(p));
  EXPECT_EQ(log.open_begin(p), 20);
  log.end(p, 30, 2);
  EXPECT_FALSE(log.open_begin(p).has_value());
  const auto events = log.take_phase_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].path, events[2].path);
  EXPECT_EQ(events[1].kind, trace::PhaseEventRecord::Kind::Begin);
  EXPECT_EQ(events[2].time, 30);
}

/// More than 2.5 storage blocks of phase and of blocking events, over paths
/// of depth 2 and 3 whose steps hold 100 tasks each.
void fill(PhaseLogger& log) {
  const std::int64_t tasks =
      static_cast<std::int64_t>(PhaseLogger::kBlockEvents) * 5 / 4 + 3;
  const trace::PathRef job = path("Job", 0);
  log.begin(job, 0, -1);
  for (std::int64_t i = 0; i < tasks; ++i) {
    const trace::PathRef step = job.child("Step", i / 100);
    if (i % 100 == 0) log.begin(step, 10 * i, -1);
    const auto machine = static_cast<trace::MachineId>(i % 5);
    const trace::PathRef task = step.child(i % 3 ? "Task" : "Sync", i % 100);
    log.begin(task, 10 * i, machine);
    log.block(i % 2 ? "GC" : "Queue", task, 10 * i + 1, 10 * i + 3, machine);
    log.block("Net", task, 10 * i + 3, 10 * i + 4, machine);
    log.end(task, 10 * i + 5, machine);
    if (i % 100 == 99 || i + 1 == tasks) log.end(step, 10 * i + 6, -1);
  }
  log.end(job, 10 * tasks, -1);
}

std::vector<trace::MonitoringSampleRecord> samples() {
  std::vector<trace::MonitoringSampleRecord> out;
  for (int i = 0; i < 900; ++i) {
    out.push_back({i % 2 ? "cpu" : "network", i % 3, 1000 * (i / 6 + 1),
                   0.1 * i - 7.0 / 3.0});
  }
  return out;
}

template <typename Record>
void add_in_chunks(trace::G10tWriter& writer,
                   const std::vector<Record>& records, std::size_t chunk) {
  const std::span<const Record> all(records);
  for (std::size_t start = 0; start < all.size(); start += chunk) {
    writer.add(all.subspan(start, std::min(chunk, all.size() - start)));
  }
}

TEST(PhaseLoggerTest, StreamedWritersEqualVectorWriters) {
  const std::vector<trace::LogMeta> meta = {{"faults", "crash:w1@40%"},
                                            {"note", "streamed"}};
  trace::ParsedLog whole;
  whole.meta = meta;
  {
    PhaseLogger log;
    fill(log);
    whole.phase_events = log.take_phase_events();
    whole.blocking_events = log.take_blocking_events();
  }
  whole.samples = samples();
  ASSERT_GT(whole.phase_events.size(), PhaseLogger::kBlockEvents * 5 / 2);
  ASSERT_GT(whole.blocking_events.size(), PhaseLogger::kBlockEvents * 5 / 2);
  std::ostringstream text_reference;
  trace::write_log(text_reference, whole.phase_events, whole.blocking_events,
                   whole.samples, meta);

  for (const std::size_t block_records : {1, 7, 4096, 4097, 10000}) {
    SCOPED_TRACE(block_records);
    const trace::G10tWriteOptions options{block_records};
    std::ostringstream g10t_reference;
    trace::write_g10t(g10t_reference, whole, options);

    // The logger's block stream into both incremental writers.
    PhaseLogger log;
    fill(log);
    std::ostringstream text;
    trace::LogWriter text_writer(text, meta);
    trace::G10tWriter g10t_writer(meta, options);
    const auto both = [&](auto block) {
      text_writer.add(block);
      g10t_writer.add(block);
    };
    log.render_phase_events(both);
    log.render_blocking_events(both);
    text_writer.add(whole.samples);
    g10t_writer.add(whole.samples);
    std::ostringstream g10t;
    g10t_writer.finish(g10t);
    EXPECT_EQ(text.str(), text_reference.str());
    EXPECT_EQ(g10t.str(), g10t_reference.str());

    // Chunks that straddle blocks: the writer still cuts every block at
    // exactly block_records.
    trace::G10tWriter chunked(meta, options);
    add_in_chunks(chunked, whole.phase_events, 1000);
    add_in_chunks(chunked, whole.blocking_events, 333);
    add_in_chunks(chunked, whole.samples, 5);
    std::ostringstream chunked_bytes;
    chunked.finish(chunked_bytes);
    EXPECT_EQ(chunked_bytes.str(), g10t_reference.str());
    const trace::G10tStructureParse parsed =
        trace::parse_g10t_structure(chunked_bytes.str());
    ASSERT_TRUE(parsed.ok());
    const auto& index = parsed.structure.index;
    for (std::size_t i = 0; i + 1 < index.size(); ++i) {
      if (index[i].kind == index[i + 1].kind) {
        EXPECT_EQ(index[i].record_count, block_records) << "block " << i;
      }
    }
  }
}

TEST(PhaseLoggerTest, StreamedFoldEqualsFoldOfRenderedRun) {
  graph::RmatParams params;
  params.scale = 8;
  params.seed = 17;
  const graph::Graph graph = graph::generate_rmat(params);
  PregelConfig cfg;
  cfg.cluster.machine_count = 8;
  cfg.cluster.machine.cores = 8;
  cfg.seed = 9;
  cfg.cluster.faults = *sim::FaultSpec::parse("crash:w1@40%");
  cfg.crash_log = CrashLogStyle::kTruncated;
  const PregelEngine engine(cfg);
  const algorithms::PageRank program(40);

  const trace::RunArtifacts artifacts = engine.run(graph, program);
  ASSERT_GT(artifacts.phase_events.size(), 2 * PhaseLogger::kBlockEvents);
  DetHasher rendered;
  trace::fold_run(rendered, artifacts);

  LoggedRun run = engine.run_logged(graph, program);
  DetHasher streamed;
  run.log.render_phase_events(
      [&streamed](std::span<trace::PhaseEventRecord> block) {
        trace::fold_phase_events(streamed, block);
      });
  run.log.render_blocking_events(
      [&streamed](std::span<trace::BlockingEventRecord> block) {
        trace::fold_blocking_events(streamed, block);
      });
  trace::fold_run(streamed, run.artifacts);

  const DetSummary expected = rendered.summary();
  const DetSummary actual = streamed.summary();
  EXPECT_EQ(actual.total_folds, expected.total_folds);
  EXPECT_EQ(actual.overall, expected.overall);
  EXPECT_FALSE(first_divergence(expected, actual).has_value());
}

}  // namespace
}  // namespace g10::engine
