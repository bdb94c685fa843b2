// Integration: the full on-disk path. An engine run serialized through the
// text log + model formats and parsed back must characterize identically to
// the in-memory path (this is what the g10_run / g10_analyze tools do).
#include <gtest/gtest.h>

#include <sstream>

#include "algorithms/programs.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/models/pregel_model.hpp"
#include "grade10/pipeline.hpp"
#include "trace/log_io.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"

namespace g10::core {
namespace {

TEST(FileRoundTripTest, CharacterizationSurvivesSerialization) {
  // --- run a small job ----------------------------------------------------
  graph::DatagenParams params;
  params.vertices = 1024;
  params.mean_degree = 10;
  params.seed = 5;
  const auto graph = generate_datagen_like(params);
  engine::PregelConfig cfg;
  cfg.cluster.machine_count = 2;
  cfg.cluster.machine.cores = 4;
  cfg.gc.young_gen_bytes = 4e5;
  const auto artifacts =
      engine::PregelEngine(cfg).run(graph, algorithms::Cdlp(4));
  const auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 50 * kMillisecond, artifacts.makespan);

  PregelModelParams model_params;
  model_params.cores = cfg.cluster.machine.cores;
  model_params.threads = cfg.effective_threads();
  model_params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
  const FrameworkModel framework = make_pregel_model(model_params);

  // --- direct, in-memory characterization ---------------------------------
  CharacterizationInput direct;
  direct.model = &framework.execution;
  direct.resources = &framework.resources;
  direct.rules = &framework.tuned_rules;
  direct.phase_events = artifacts.phase_events;
  direct.blocking_events = artifacts.blocking_events;
  direct.samples = samples;
  direct.config.timeslice = 10 * kMillisecond;
  direct.config.min_issue_impact = 0.0;
  const CharacterizationResult expected = characterize(direct);

  // --- serialize everything, parse back, characterize again ---------------
  std::stringstream log_stream;
  trace::write_log(log_stream, artifacts.phase_events,
                   artifacts.blocking_events, samples);
  const trace::ParseResult parsed_log =
      trace::parse_log_text(log_stream.str());
  ASSERT_TRUE(parsed_log.ok()) << parsed_log.errors.front().message;

  std::stringstream model_stream;
  write_model(model_stream, framework.execution, framework.resources,
              framework.tuned_rules);
  const ModelParseResult parsed_model = parse_model(model_stream);
  ASSERT_TRUE(parsed_model.ok()) << parsed_model.error->message;

  CharacterizationInput via_files;
  via_files.model = &parsed_model.model.execution;
  via_files.resources = &parsed_model.model.resources;
  via_files.rules = &parsed_model.model.rules;
  via_files.phase_events = parsed_log.log.phase_events;
  via_files.blocking_events = parsed_log.log.blocking_events;
  via_files.samples = parsed_log.log.samples;
  via_files.config.timeslice = 10 * kMillisecond;
  via_files.config.min_issue_impact = 0.0;
  const CharacterizationResult actual = characterize(via_files);

  // --- equivalence ----------------------------------------------------------
  ASSERT_EQ(actual.trace.instances().size(),
            expected.trace.instances().size());
  EXPECT_EQ(actual.trace.end_time(), expected.trace.end_time());
  EXPECT_EQ(actual.baseline_makespan, expected.baseline_makespan);

  ASSERT_EQ(actual.usage.resources.size(), expected.usage.resources.size());
  for (std::size_t r = 0; r < actual.usage.resources.size(); ++r) {
    const auto& a = actual.usage.resources[r];
    const auto& e = expected.usage.resources[r];
    ASSERT_EQ(a.upsampled.usage.size(), e.upsampled.usage.size());
    for (std::size_t s = 0; s < a.upsampled.usage.size(); ++s) {
      ASSERT_NEAR(a.upsampled.usage[s], e.upsampled.usage[s], 1e-9);
    }
  }

  ASSERT_EQ(actual.issues.size(), expected.issues.size());
  for (std::size_t i = 0; i < actual.issues.size(); ++i) {
    EXPECT_EQ(actual.issues[i].description, expected.issues[i].description);
    EXPECT_NEAR(actual.issues[i].impact, expected.issues[i].impact, 1e-9);
  }
}

}  // namespace
}  // namespace g10::core
