// End-to-end trace-format identity: for each bundled engine model, the
// golden trace characterized from its text log and from its `.g10t`
// conversion must produce bit-identical CharacterizationResults — compared
// through the same per-phase-path FNV digests `--det-check` uses, at
// several thread counts. This is the acceptance gate for
// the binary format: not "close", the same bits.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "grade10/det_fold.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/pipeline.hpp"
#include "trace/g10t_io.hpp"
#include "trace/trace_reader.hpp"

namespace g10::core {
namespace {

struct Fixture {
  std::string model;  ///< examples/models file stem
  std::string log;    ///< tests/engine/golden file name
};

const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture> all = {
      {"pregel", "pregel_pagerank_d512_s99_batched.log"},
      {"gas", "gas_pagerank_d512_s99_batched.log"},
      {"dataflow", "dataflow_3stage_s99.log"},
  };
  return all;
}

std::filesystem::path test_root() {
  static const std::filesystem::path root = [] {
    auto path = std::filesystem::temp_directory_path() /
                ("g10_trace_format_pipeline_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
  }();
  return root;
}

ModelDescription load_model(const std::string& stem) {
  std::ifstream file(std::string(G10_EXAMPLE_MODEL_DIR) + "/" + stem +
                     ".g10");
  EXPECT_TRUE(file.is_open()) << stem;
  ModelParseResult parsed = parse_model(file);
  EXPECT_TRUE(parsed.ok()) << stem;
  return parsed.model;
}

std::string text_path(const Fixture& fixture) {
  return std::string(G10_GOLDEN_TRACE_DIR) + "/" + fixture.log;
}

std::string binary_path(const Fixture& fixture) {
  const std::string out =
      (test_root() / (fixture.log + ".g10t")).string();
  if (!std::filesystem::exists(out)) {
    const trace::ParseResult parsed =
        trace::read_trace_file(text_path(fixture));
    EXPECT_TRUE(parsed.ok()) << fixture.log;
    trace::G10tWriteOptions options;
    options.block_records = 128;  // several blocks per kind
    std::string error;
    EXPECT_TRUE(trace::write_g10t_file(out, parsed.log, options, &error))
        << error;
  }
  return out;
}

DetSummary digest(const ModelDescription& model, const trace::ParsedLog& log,
                  int threads) {
  CharacterizationInput input;
  input.model = &model.execution;
  input.resources = &model.resources;
  input.rules = &model.rules;
  input.phase_events = log.phase_events;
  input.blocking_events = log.blocking_events;
  input.samples = log.samples;
  input.config.timeslice = 10 * kMillisecond;
  input.config.min_issue_impact = 0.0;
  input.config.threads = threads;
  DetHasher hasher;
  characterize(input, &hasher);
  return hasher.summary();
}

TEST(TraceFormatPipelineTest, CharacterizationIsBitIdenticalAcrossFormats) {
  for (const Fixture& fixture : fixtures()) {
    const ModelDescription model = load_model(fixture.model);
    const trace::ParseResult text = trace::read_trace_file(text_path(fixture));
    ASSERT_TRUE(text.ok()) << fixture.log;
    const trace::ParseResult binary =
        trace::read_trace_file(binary_path(fixture));
    ASSERT_TRUE(binary.ok()) << fixture.log;

    for (const int threads : {1, 2, 8}) {
      const DetSummary from_text = digest(model, text.log, threads);
      const DetSummary from_binary = digest(model, binary.log, threads);
      const auto divergence = first_divergence(from_text, from_binary);
      EXPECT_FALSE(divergence.has_value())
          << fixture.log << " at " << threads << " thread(s) diverged at '"
          << divergence->path << "': " << divergence->detail;
    }
  }
}

}  // namespace
}  // namespace g10::core
