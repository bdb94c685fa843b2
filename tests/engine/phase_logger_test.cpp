#include "engine/phase_logger.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "algorithms/programs.hpp"
#include "common/check.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "graph/generators.hpp"
#include "trace/det_fold.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"
#include "trace/trace_reader.hpp"

namespace g10::engine {
namespace {

trace::PathRef path(std::string_view type, std::int64_t index) {
  return trace::PathRef{}.child(type, index);
}

/// The logger's hand-over rendered as records.
trace::ParsedLog take(PhaseLogger& log) {
  return trace::render_log(log.take_log());
}

TEST(PhaseLoggerTest, BalancedBeginEnd) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, -1);
  log.end(path("A", 0), 10, -1);
  const auto events = take(log).phase_events;
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
  EXPECT_THROW(log.take_log(), CheckError);
}

TEST(PhaseLoggerTest, BlockEventsRecorded) {
  PhaseLogger log;
  log.begin(path("A", 0), 0, 2);
  log.block("GC", path("A", 0), 3, 7, 2);
  log.block("GC", path("A", 0), 7, 7, 2);  // zero length: dropped
  log.end(path("A", 0), 10, 2);
  const auto blocks = take(log).blocking_events;
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
  EXPECT_EQ(log.take_log().phase_events.size(), 4u);
}

TEST(PhaseLoggerTest, HandsOverAcrossStorageBlocksInEmissionOrder) {
  // Two full blocks plus a partial one of phase events, and as many
  // blocking events, so the hand-over crosses every block boundary.
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

  const trace::NodeLog handed = log.take_log();
  // The root, Step.0 and one node per task; resources in first use.
  ASSERT_EQ(handed.paths.size(), static_cast<std::size_t>(pairs) + 2);
  EXPECT_EQ(handed.resources,
            (std::vector<std::string>{"GC", "Net", "Queue"}));
  ASSERT_EQ(handed.phase_events.size(), per_kind);
  for (std::int64_t i = 0; i < pairs; ++i) {
    const std::string expected = "Step.0/Task." + std::to_string(i);
    for (const int end : {0, 1}) {
      const trace::PhaseEvent& event =
          handed.phase_events[static_cast<std::size_t>(2 * i + end)];
      ASSERT_EQ(event.kind, end ? trace::PhaseEventRecord::Kind::End
                                : trace::PhaseEventRecord::Kind::Begin)
          << i;
      ASSERT_EQ(event.node, i + 2);
      ASSERT_EQ(handed.paths.path(event.node), expected);
      ASSERT_EQ(event.time, 3 * i + 2 * end);
      ASSERT_EQ(event.machine, machine(i));
    }
  }

  ASSERT_EQ(handed.blocking_events.size(), per_kind);
  for (std::int64_t i = 0; i < pairs; ++i) {
    for (const int net : {0, 1}) {
      const trace::BlockingEvent& block =
          handed.blocking_events[static_cast<std::size_t>(2 * i + net)];
      ASSERT_EQ(handed.resources[block.resource],
                net ? "Net" : (i % 2 == 0 ? "GC" : "Queue"));
      ASSERT_EQ(block.node, i + 2);
      ASSERT_EQ(block.begin, 3 * i + net);
      ASSERT_EQ(block.end, 3 * i + net + 1);
      ASSERT_EQ(block.machine, machine(i));
    }
  }

  // The hand-over leaves the logger empty and ready for another run, whose
  // nodes and resources are numbered afresh.
  const trace::NodeLog empty = log.take_log();
  EXPECT_TRUE(empty.phase_events.empty());
  EXPECT_TRUE(empty.blocking_events.empty());
  EXPECT_TRUE(empty.resources.empty());
  EXPECT_EQ(empty.paths.size(), 1u);
  log.begin(path("A", 0), 1, 0);
  log.block("Net", path("A", 0), 1, 2, 0);
  log.end(path("A", 0), 2, 0);
  const trace::NodeLog again = log.take_log();
  ASSERT_EQ(again.phase_events.size(), 2u);
  EXPECT_EQ(again.phase_events[0].node, 1);
  EXPECT_EQ(again.paths.path(1), "A.0");
  EXPECT_EQ(again.phase_events[1].time, 2);
  ASSERT_EQ(again.blocking_events.size(), 1u);
  EXPECT_EQ(again.resources, std::vector<std::string>{"Net"});
}

/// Expects `actual` to hold `expected`'s events, samples, resources and
/// nodes (same ids, parents and paths).
void expect_same_log(const trace::NodeLog& expected,
                     const trace::NodeLog& actual) {
  ASSERT_EQ(actual.paths.size(), expected.paths.size());
  for (trace::PathIndex::NodeId node = 1;
       static_cast<std::size_t>(node) < expected.paths.size(); ++node) {
    ASSERT_EQ(actual.paths.parent(node), expected.paths.parent(node)) << node;
    ASSERT_EQ(actual.paths.path(node), expected.paths.path(node)) << node;
  }
  EXPECT_EQ(actual.resources, expected.resources);
  EXPECT_EQ(actual.phase_events, expected.phase_events);
  EXPECT_EQ(actual.blocking_events, expected.blocking_events);
  ASSERT_EQ(actual.samples.size(), expected.samples.size());
  for (std::size_t i = 0; i < expected.samples.size(); ++i) {
    EXPECT_EQ(actual.samples[i].resource, expected.samples[i].resource);
    EXPECT_EQ(actual.samples[i].machine, expected.samples[i].machine);
    EXPECT_EQ(actual.samples[i].time, expected.samples[i].time);
    EXPECT_EQ(actual.samples[i].value, expected.samples[i].value);
  }
}

/// Writes `log` as `run.log` and `run.g10t` and expects reading either back
/// with read_nodes to give `log` itself.
void expect_reads_back(const trace::NodeLog& log, const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("g10_phase_logger_test_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string text = (dir / "run.log").string();
  const std::string binary = (dir / "run.g10t").string();
  {
    std::ofstream out(text, std::ios::binary);
    trace::write_log(out, log);
  }
  std::string error;
  ASSERT_TRUE(trace::write_g10t_file(binary, log, {}, &error)) << error;
  for (const std::string& file : {text, binary}) {
    SCOPED_TRACE(file);
    const trace::NodeParseResult read = trace::read_trace_nodes(file, {});
    ASSERT_TRUE(read.ok());
    expect_same_log(log, read.log);
  }
  std::filesystem::remove_all(dir);
}

TEST(PhaseLoggerTest, BlockBeforeBeginIsRenumberedToReaderOrder) {
  // Task.1 is blocked on before any BEGIN names it, and a blocking event
  // adds Sync.0 and its prefix Aux.0: a reader numbers the phase events'
  // paths first, so the hand-over renumbers its nodes.
  PhaseLogger log;
  const trace::PathRef job = path("Job", 0);
  log.begin(job, 0, -1);
  log.block("GC", job.child("Task", 1), 1, 2, 0);
  log.block("Net", job.child("Aux", 0).child("Sync", 0), 1, 3, 0);
  log.begin(job.child("Task", 0), 2, 0);
  log.begin(job.child("Task", 1), 2, 1);
  log.end(job.child("Task", 0), 4, 0);
  log.end(job.child("Task", 1), 5, 1);
  log.block("GC", job.child("Task", 0), 3, 4, 0);
  log.end(job, 6, -1);
  const trace::NodeLog handed = log.take_log();
  EXPECT_EQ(handed.paths.path(2), "Job.0/Task.0");
  EXPECT_EQ(handed.paths.path(3), "Job.0/Task.1");
  EXPECT_EQ(handed.paths.path(4), "Job.0/Aux.0");
  EXPECT_EQ(handed.paths.path(5), "Job.0/Aux.0/Sync.0");
  EXPECT_EQ(handed.paths.parent(5), 4);
  EXPECT_EQ(handed.blocking_events[0].node, 3);
  EXPECT_EQ(handed.blocking_events[1].node, 5);
  EXPECT_EQ(handed.blocking_events[2].node, 2);
  expect_reads_back(handed, "renumbered");
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
  const trace::NodeLog handed = log.take_log();
  ASSERT_EQ(handed.phase_events.size(), 2u);
  EXPECT_EQ(handed.phase_events[0].node, handed.phase_events[1].node);
  EXPECT_EQ(handed.paths.path(handed.phase_events[1].node),
            "Job.0/Step.3/Task.1");
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
  const auto events = take(log).phase_events;
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

TEST(PhaseLoggerTest, HandOverWritersEqualRecordWriters) {
  const std::vector<trace::LogMeta> meta = {{"faults", "crash:w1@40%"},
                                            {"note", "handed over"}};
  trace::NodeLog handed;
  {
    PhaseLogger log;
    fill(log);
    handed = log.take_log();
  }
  handed.meta = meta;
  handed.samples = samples();
  const trace::ParsedLog whole = trace::render_log(handed);
  ASSERT_GT(whole.phase_events.size(), PhaseLogger::kBlockEvents * 5 / 2);
  ASSERT_GT(whole.blocking_events.size(), PhaseLogger::kBlockEvents * 5 / 2);

  std::ostringstream text_reference;
  trace::write_log(text_reference, whole.phase_events, whole.blocking_events,
                   whole.samples, meta);
  std::ostringstream text;
  trace::write_log(text, handed);
  EXPECT_EQ(text.str(), text_reference.str());

  for (const std::size_t block_records : {1, 7, 4096, 4097, 10000}) {
    SCOPED_TRACE(block_records);
    const trace::G10tWriteOptions options{block_records};
    std::ostringstream g10t_reference;
    trace::write_g10t(g10t_reference, whole, options);
    std::ostringstream g10t;
    trace::write_g10t(g10t, handed, options);
    EXPECT_EQ(g10t.str(), g10t_reference.str());

    // Every block but each kind's last holds exactly block_records.
    const trace::G10tStructureParse parsed =
        trace::parse_g10t_structure(g10t.str());
    ASSERT_TRUE(parsed.ok());
    const auto& index = parsed.structure.index;
    for (std::size_t i = 0; i + 1 < index.size(); ++i) {
      if (index[i].kind == index[i + 1].kind) {
        EXPECT_EQ(index[i].record_count, block_records) << "block " << i;
      }
    }
  }
}

graph::Graph rmat8() {
  graph::RmatParams params;
  params.scale = 8;
  params.seed = 17;
  return graph::generate_rmat(params);
}

PregelConfig pregel_config(CrashLogStyle crash_log) {
  PregelConfig cfg;
  cfg.cluster.machine_count = 8;
  cfg.cluster.machine.cores = 8;
  cfg.seed = 9;
  cfg.cluster.faults = *sim::FaultSpec::parse("crash:w1@40%");
  cfg.crash_log = crash_log;
  return cfg;
}

TEST(PhaseLoggerTest, HandOverFoldEqualsFoldOfRenderedRun) {
  const graph::Graph graph = rmat8();
  const PregelEngine engine(pregel_config(CrashLogStyle::kTruncated));
  const algorithms::PageRank program(40);

  const trace::RunArtifacts artifacts = engine.run(graph, program);
  ASSERT_GT(artifacts.phase_events.size(), 2 * PhaseLogger::kBlockEvents);
  DetHasher rendered;
  trace::fold_run(rendered, artifacts);

  LoggedRun run = engine.run_logged(graph, program);
  DetHasher handed;
  trace::fold_events(handed, run.log.take_log());
  trace::fold_run(handed, run.artifacts);

  const DetSummary expected = rendered.summary();
  const DetSummary actual = handed.summary();
  EXPECT_EQ(actual.total_folds, expected.total_folds);
  EXPECT_EQ(actual.overall, expected.overall);
  EXPECT_FALSE(first_divergence(expected, actual).has_value());
}

TEST(PhaseLoggerTest, HandOverEqualsReadOfTheWrittenLogs) {
  const graph::Graph graph = rmat8();
  const algorithms::PageRank program(10);
  {
    SCOPED_TRACE("pregel, reconciled crash");
    PregelConfig cfg = pregel_config(CrashLogStyle::kReconciled);
    cfg.gc.young_gen_bytes = 2e5;  // collections on a small graph
    const PregelEngine engine(cfg);
    const trace::NodeLog log = engine.run_logged(graph, program).log.take_log();
    const auto gc = std::find(log.resources.begin(), log.resources.end(),
                              std::string(pregel_names::kGc));
    ASSERT_NE(gc, log.resources.end());
    expect_reads_back(log, "reconciled");
  }
  {
    SCOPED_TRACE("pregel, truncated crash");
    const PregelEngine engine(pregel_config(CrashLogStyle::kTruncated));
    expect_reads_back(engine.run_logged(graph, program).log.take_log(),
                      "truncated");
  }
  {
    SCOPED_TRACE("gas");
    GasConfig cfg;
    cfg.cluster.machine_count = 8;
    cfg.seed = 9;
    const GasEngine engine(cfg);
    expect_reads_back(engine.run_logged(graph, program).log.take_log(),
                      "gas");
  }
}

}  // namespace
}  // namespace g10::engine
