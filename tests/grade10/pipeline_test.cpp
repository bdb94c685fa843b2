// End-to-end: run the simulated engines, sample monitoring data, and push
// everything through the full Grade10 pipeline.
#include "grade10/pipeline.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "algorithms/programs.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/det_fold.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/models/gas_model.hpp"
#include "grade10/models/pregel_model.hpp"
#include "grade10/report/report.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "sim/fault_injector.hpp"
#include "trace/trace_reader.hpp"

namespace g10::core {
namespace {

graph::Graph workload_graph() {
  graph::DatagenParams params;
  params.vertices = 1024;
  params.mean_degree = 10;
  params.seed = 33;
  return generate_datagen_like(params);
}

struct PregelRunResult {
  trace::RunArtifacts artifacts;
  std::vector<trace::MonitoringSampleRecord> samples;
  FrameworkModel model;
};

PregelRunResult run_pregel() {
  engine::PregelConfig cfg;
  cfg.cluster.machine_count = 2;
  cfg.cluster.machine.cores = 4;
  cfg.gc.young_gen_bytes = 4e5;
  cfg.queue.capacity_bytes = 5e4;
  const engine::PregelEngine engine(cfg);
  PregelRunResult out;
  out.artifacts = engine.run(workload_graph(), algorithms::Cdlp(4));
  out.samples = monitor::sample_ground_truth(out.artifacts.ground_truth,
                                             50 * kMillisecond,
                                             out.artifacts.makespan);
  PregelModelParams params;
  params.cores = cfg.cluster.machine.cores;
  params.threads = cfg.effective_threads();
  params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
  out.model = make_pregel_model(params);
  return out;
}

TEST(PipelineTest, PregelEndToEnd) {
  const PregelRunResult run = run_pregel();
  CharacterizationInput input;
  input.model = &run.model.execution;
  input.resources = &run.model.resources;
  input.rules = &run.model.tuned_rules;
  input.phase_events = run.artifacts.phase_events;
  input.blocking_events = run.artifacts.blocking_events;
  input.samples = run.samples;
  input.config.timeslice = 10 * kMillisecond;
  input.config.min_issue_impact = 0.0;
  const CharacterizationResult result = characterize(input);

  // Trace covers the run.
  EXPECT_GT(result.trace.instances().size(), 10u);
  EXPECT_EQ(result.trace.end_time(), run.artifacts.makespan);

  // Every attributed resource respects capacity and non-negativity.
  ASSERT_FALSE(result.usage.resources.empty());
  for (const auto& r : result.usage.resources) {
    for (const double u : r.upsampled.usage) {
      EXPECT_GE(u, -1e-9);
      EXPECT_LE(u, r.capacity + 1e-6);
    }
  }

  // The Giraph stand-in must show GC and/or queue blocking bottlenecks.
  const auto blocked =
      BottleneckReport::totals_by_resource(result.bottlenecks.blocked);
  DurationNs total_blocked = 0;
  for (const auto& [r, t] : blocked) total_blocked += t;
  EXPECT_GT(total_blocked, 0);

  // Baseline replay makespan is positive and at most the recorded one.
  EXPECT_GT(result.baseline_makespan, 0);
  EXPECT_LE(result.baseline_makespan, run.artifacts.makespan);

  // Issues list is sorted by impact.
  for (std::size_t i = 1; i < result.issues.size(); ++i) {
    EXPECT_GE(result.issues[i - 1].impact, result.issues[i].impact);
  }

  // Report rendering produces non-empty output.
  std::ostringstream os;
  render_profile(os, result.trace, run.model.resources, result.usage,
                 result.grid);
  render_bottlenecks(os, run.model.resources, result.bottlenecks);
  render_issues(os, result.issues);
  EXPECT_GT(os.str().size(), 100u);
}

TEST(PipelineTest, PregelUntunedStillRuns) {
  const PregelRunResult run = run_pregel();
  CharacterizationInput input;
  input.model = &run.model.execution;
  input.resources = &run.model.resources;
  input.rules = &run.model.untuned_rules;
  input.phase_events = run.artifacts.phase_events;
  input.blocking_events = run.artifacts.blocking_events;
  input.samples = run.samples;
  input.config.timeslice = 10 * kMillisecond;
  const CharacterizationResult result = characterize(input);
  EXPECT_FALSE(result.usage.resources.empty());
}

TEST(PipelineTest, GasEndToEndFindsImbalance) {
  engine::GasConfig cfg;
  cfg.cluster.machine_count = 4;
  cfg.cluster.machine.cores = 4;
  cfg.sync_bug.enabled = true;
  cfg.sync_bug.probability = 0.5;
  cfg.seed = 11;
  const engine::GasEngine engine(cfg);
  const auto artifacts = engine.run(workload_graph(), algorithms::Cdlp(5));
  const auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 50 * kMillisecond, artifacts.makespan);

  GasModelParams params;
  params.cores = cfg.cluster.machine.cores;
  params.threads = cfg.effective_threads();
  params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
  const FrameworkModel model = make_gas_model(params);

  CharacterizationInput input;
  input.model = &model.execution;
  input.resources = &model.resources;
  input.rules = &model.tuned_rules;
  input.phase_events = artifacts.phase_events;
  input.blocking_events = artifacts.blocking_events;
  input.samples = samples;
  input.config.timeslice = 10 * kMillisecond;
  input.config.min_issue_impact = 0.0;
  const CharacterizationResult result = characterize(input);

  // No blocking resources exist in the GAS model.
  EXPECT_TRUE(result.bottlenecks.blocked.empty());

  // Imbalance issues must be reported (hash-source cut + sync bug).
  bool found_imbalance = false;
  for (const auto& issue : result.issues) {
    if (issue.kind == IssueKind::kImbalance && issue.impact > 0.0) {
      found_imbalance = true;
    }
  }
  EXPECT_TRUE(found_imbalance);
}

TEST(PipelineTest, RequiresModels) {
  CharacterizationInput input;
  EXPECT_THROW(characterize(input), CheckError);
}

TEST(PipelineTest, CheckedReportsMissingInputsWithoutThrowing) {
  CharacterizationInput input;
  const CheckedCharacterization checked = characterize_checked(input);
  EXPECT_FALSE(checked.status.ok());
  EXPECT_EQ(checked.status.errors.size(), 3u);
  EXPECT_FALSE(checked.result.has_value());
}

engine::PregelConfig crashed_pregel_config() {
  engine::PregelConfig cfg;
  cfg.cluster.machine_count = 2;
  cfg.cluster.machine.cores = 4;
  cfg.seed = 9;
  const auto spec = sim::FaultSpec::parse("crash:w1@40%");
  EXPECT_TRUE(spec.has_value());
  if (spec) cfg.cluster.faults = *spec;
  return cfg;
}

CharacterizationInput pregel_input(const trace::RunArtifacts& artifacts,
                                   const std::vector<trace::MonitoringSampleRecord>& samples,
                                   const FrameworkModel& model) {
  CharacterizationInput input;
  input.model = &model.execution;
  input.resources = &model.resources;
  input.rules = &model.tuned_rules;
  input.phase_events = artifacts.phase_events;
  input.blocking_events = artifacts.blocking_events;
  input.samples = samples;
  input.config.timeslice = 10 * kMillisecond;
  input.config.min_issue_impact = 0.0;
  return input;
}

FrameworkModel crashed_pregel_model(const engine::PregelConfig& cfg) {
  PregelModelParams params;
  params.cores = cfg.cluster.machine.cores;
  params.threads = cfg.effective_threads();
  params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
  return make_pregel_model(params);
}

TEST(PipelineTest, FaultedPregelStrictSucceedsAndReportsRecoveryIssue) {
  // With the default reconciled crash log the trace stays balanced, so
  // STRICT ingestion succeeds and recovery is attributed, no repair needed.
  const engine::PregelConfig cfg = crashed_pregel_config();
  const engine::PregelEngine engine(cfg);
  const auto artifacts = engine.run(workload_graph(), algorithms::PageRank(6));
  const auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 50 * kMillisecond, artifacts.makespan);
  const FrameworkModel model = crashed_pregel_model(cfg);
  CharacterizationInput input = pregel_input(artifacts, samples, model);

  const CheckedCharacterization strict = characterize_checked(input);
  ASSERT_TRUE(strict.status.ok())
      << (strict.status.errors.empty() ? "" : strict.status.errors.front());
  ASSERT_TRUE(strict.result.has_value());
  EXPECT_EQ(strict.result->trace.degraded_count(), 0u);

  // Crash recovery shows up as its own detected issue with real impact.
  bool found_fault_issue = false;
  for (const auto& issue : strict.result->issues) {
    if (issue.kind == IssueKind::kFaultRecovery) {
      found_fault_issue = true;
      EXPECT_GT(issue.impact, 0.0);
    }
  }
  EXPECT_TRUE(found_fault_issue);
}

TEST(PipelineTest, TruncatedCrashLogNeedsLenientAndReportsRecoveryIssue) {
  // CrashLogStyle::kTruncated reproduces a raw crashed logger; only the
  // lenient repair path can characterize such a trace.
  engine::PregelConfig cfg = crashed_pregel_config();
  cfg.crash_log = engine::CrashLogStyle::kTruncated;
  const engine::PregelEngine engine(cfg);
  const auto artifacts = engine.run(workload_graph(), algorithms::PageRank(6));
  const auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 50 * kMillisecond, artifacts.makespan);
  const FrameworkModel model = crashed_pregel_model(cfg);
  CharacterizationInput input = pregel_input(artifacts, samples, model);

  // Strict ingestion fails on the truncated phases the crash left behind.
  const CheckedCharacterization strict = characterize_checked(input);
  EXPECT_FALSE(strict.status.ok());
  EXPECT_FALSE(strict.result.has_value());

  // Lenient mode repairs the trace and characterizes end-to-end.
  input.trace_options.lenient = true;
  const CheckedCharacterization lenient = characterize_checked(input);
  ASSERT_TRUE(lenient.status.ok())
      << (lenient.status.errors.empty() ? "" : lenient.status.errors.front());
  ASSERT_TRUE(lenient.result.has_value());
  EXPECT_GT(lenient.result->trace.degraded_count(), 0u);
  EXPECT_FALSE(lenient.status.warnings.empty());

  bool found_fault_issue = false;
  for (const auto& issue : lenient.result->issues) {
    if (issue.kind == IssueKind::kFaultRecovery) {
      found_fault_issue = true;
      EXPECT_GT(issue.impact, 0.0);
    }
  }
  EXPECT_TRUE(found_fault_issue);
}

TEST(PipelineTest, CharacterizationReadsOnlyTheBuiltTrace) {
  // The tools free the parsed records once the trace is built; the result
  // must not change when characterize_trace sees no records at all.
  struct Golden {
    const char* model;
    const char* log;
    bool lenient;
  };
  for (const Golden& golden :
       {Golden{"gas", "gas_pagerank_d512_s99_batched.log", false},
        Golden{"pregel", "pregel_pagerank_d512_s99_faulted_truncated.log",
               true}}) {
    std::ifstream model_file(std::string(G10_EXAMPLE_MODEL_DIR) + "/" +
                             golden.model + ".g10");
    const ModelParseResult model = parse_model(model_file);
    ASSERT_TRUE(model.ok()) << golden.model;
    CharacterizationInput input;
    input.model = &model.model.execution;
    input.resources = &model.model.resources;
    input.rules = &model.model.rules;
    input.config.timeslice = 10 * kMillisecond;
    input.config.min_issue_impact = 0.0;
    input.trace_options.lenient = golden.lenient;

    CheckedCharacterization full;
    DetHasher full_digest;
    TraceBuild built;
    {
      const trace::ParseResult log = trace::read_trace_file(
          std::string(G10_GOLDEN_TRACE_DIR) + "/" + golden.log);
      ASSERT_TRUE(log.ok()) << golden.log;
      input.phase_events = log.log.phase_events;
      input.blocking_events = log.log.blocking_events;
      input.samples = log.log.samples;
      full = characterize_checked(input, &full_digest);
      built = ExecutionTrace::build_checked(
          *input.model, *input.resources, input.phase_events,
          input.blocking_events, input.samples, input.trace_options);
    }  // the records are gone from here on
    input.phase_events = {};
    input.blocking_events = {};
    input.samples = {};
    DetHasher build_digest;
    const CheckedCharacterization from_build =
        characterize_trace(input, std::move(built), &build_digest);

    ASSERT_TRUE(full.status.ok() && full.result.has_value()) << golden.log;
    ASSERT_TRUE(from_build.status.ok() && from_build.result.has_value())
        << golden.log;
    EXPECT_EQ(from_build.status.warnings, full.status.warnings);
    const DetSummary expected = full_digest.summary();
    const DetSummary actual = build_digest.summary();
    const auto divergence = first_divergence(expected, actual);
    EXPECT_FALSE(divergence.has_value())
        << golden.log << " diverged at '" << divergence->path
        << "': " << divergence->detail;
    EXPECT_EQ(actual.overall, expected.overall) << golden.log;
  }
}


TEST(PipelineTest, CharacterizationHoldsNoDemandOrTables) {
  // Attribution folds each window of a matrix's table into the aggregates
  // and frees it: the result keeps the per-slice series, equal to the
  // whole-table stages', but no demand matrices, leaves or entries.
  for (const auto& [model_name, log_name] :
       {std::pair{"gas", "gas_pagerank_d512_s99_faulted.log"},
        std::pair{"pregel", "pregel_pagerank_d512_s99_faulted.log"}}) {
    std::ifstream model_file(std::string(G10_EXAMPLE_MODEL_DIR) + "/" +
                             model_name + ".g10");
    const ModelParseResult model = parse_model(model_file);
    ASSERT_TRUE(model.ok()) << model_name;
    const trace::ParseResult log = trace::read_trace_file(
        std::string(G10_GOLDEN_TRACE_DIR) + "/" + log_name);
    ASSERT_TRUE(log.ok()) << log_name;
    CharacterizationInput input;
    input.model = &model.model.execution;
    input.resources = &model.model.resources;
    input.rules = &model.model.rules;
    input.phase_events = log.log.phase_events;
    input.blocking_events = log.log.blocking_events;
    input.samples = log.log.samples;
    input.config.timeslice = 10 * kMillisecond;
    const CharacterizationResult result = characterize(input);
    EXPECT_TRUE(result.demand.empty()) << log_name;

    const AttributedUsage direct = attribute_usage(
        estimate_demand(model.model.resources, model.model.rules,
                        result.trace, result.grid),
        result.monitored, result.grid);
    ASSERT_EQ(result.usage.resources.size(), direct.resources.size())
        << log_name;
    std::size_t direct_entries = 0;
    for (std::size_t r = 0; r < direct.resources.size(); ++r) {
      const AttributedResource& kept = result.usage.resources[r];
      EXPECT_TRUE(kept.entries.empty()) << log_name << " " << r;
      EXPECT_TRUE(kept.slice_offsets.empty()) << log_name << " " << r;
      EXPECT_EQ(kept.upsampled.usage, direct.resources[r].upsampled.usage);
      EXPECT_EQ(kept.unattributed, direct.resources[r].unattributed)
          << log_name;
      direct_entries += direct.resources[r].entries.size();
    }
    EXPECT_GT(direct_entries, 0u) << log_name;
  }
}

}  // namespace
}  // namespace g10::core
