// Lint subsystem tests: every rule id fires on its bad-input fixture, the
// shipped example models and a real engine run lint clean, the emitters
// render what the report holds, and the rule catalog stays consistent.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/programs.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/lint/model_lint.hpp"
#include "grade10/lint/trace_lint.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/models/dataflow_model.hpp"
#include "grade10/models/gas_model.hpp"
#include "grade10/models/pregel_model.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"
#include "trace/trace_reader.hpp"

namespace g10::lint {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(G10_LINT_FIXTURE_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return std::move(buffer).str();
}

// ---------------------------------------------------------------------------
// Report mechanics and emitters.

TEST(LintReportTest, CountsAndMerge) {
  LintReport a;
  a.add("model-empty", Severity::kError, {"m.g10", 1, ""}, "no phases");
  LintReport b;
  b.add("model-rule-shadowed", Severity::kWarning, {"m.g10", 2, "A/cpu"},
        "shadowed");
  a.merge(std::move(b));
  EXPECT_EQ(a.findings().size(), 2u);
  EXPECT_EQ(a.error_count(), 1u);
  EXPECT_EQ(a.warning_count(), 1u);
  EXPECT_FALSE(a.ok());
  EXPECT_FALSE(a.clean());
  EXPECT_TRUE(a.has_rule("model-empty"));
  EXPECT_FALSE(a.has_rule("model-syntax"));
  const auto ids = a.rule_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "model-empty");

  LintReport clean;
  EXPECT_TRUE(clean.ok());
  EXPECT_TRUE(clean.clean());
}

TEST(LintReportTest, TextEmitterFormatsFileLineRuleAndContext) {
  LintReport report;
  report.add("model-order-cycle", Severity::kError, {"m.g10", 7, "A, B"},
             "cycle detected");
  std::ostringstream os;
  render_text(os, report);
  EXPECT_EQ(os.str(),
            "m.g10:7: error: [model-order-cycle] cycle detected  (A, B)\n"
            "1 error(s), 0 warning(s)\n");
}

TEST(LintReportTest, JsonEmitterEscapesAndCounts) {
  LintReport report;
  report.add("trace-syntax", Severity::kError, {"run.log", 3, "a\tb\"c"},
             "bad \"line\"");
  std::ostringstream os;
  render_json(os, report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"rule_id\":\"trace-syntax\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":3"), std::string::npos);
  EXPECT_NE(json.find("a\\tb\\\"c"), std::string::npos);
  EXPECT_NE(json.find("bad \\\"line\\\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":0"), std::string::npos);
}

TEST(RuleCatalogTest, SortedUniqueAndLookupConsistent) {
  const auto& catalog = rule_catalog();
  ASSERT_FALSE(catalog.empty());
  EXPECT_TRUE(std::is_sorted(
      catalog.begin(), catalog.end(),
      [](const RuleInfo& a, const RuleInfo& b) { return a.id < b.id; }));
  for (const RuleInfo& rule : catalog) {
    const RuleInfo* found = find_rule(rule.id);
    ASSERT_NE(found, nullptr) << rule.id;
    EXPECT_EQ(found->id, rule.id);
    EXPECT_FALSE(found->summary.empty());
  }
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
}

// ---------------------------------------------------------------------------
// Bad-input fixtures: each file is named after the rule it must trigger.

struct FixtureCase {
  const char* file;     ///< fixture name under tests/grade10/lint/
  const char* rule_id;  ///< rule that must fire
  bool is_error;        ///< false: warning-only fixture, report stays ok()
};

void PrintTo(const FixtureCase& c, std::ostream* os) { *os << c.file; }

class ModelFixtureTest : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(ModelFixtureTest, TriggersItsRule) {
  const FixtureCase& c = GetParam();
  const LintReport report =
      lint_model_text(slurp(fixture_path(c.file)), c.file);
  EXPECT_TRUE(report.has_rule(c.rule_id))
      << "expected " << c.rule_id << ", got: " << [&] {
           std::ostringstream os;
           render_text(os, report);
           return os.str();
         }();
  EXPECT_EQ(report.ok(), !c.is_error);
  EXPECT_FALSE(report.clean());
  // Every finding uses a cataloged rule id.
  for (const LintFinding& finding : report.findings()) {
    EXPECT_NE(find_rule(finding.rule_id), nullptr) << finding.rule_id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModelRules, ModelFixtureTest,
    ::testing::Values(
        FixtureCase{"model-syntax.g10", "model-syntax", true},
        FixtureCase{"model-empty.g10", "model-empty", true},
        FixtureCase{"model-multiple-roots.g10", "model-multiple-roots", true},
        FixtureCase{"model-duplicate-phase.g10", "model-duplicate-phase",
                    true},
        FixtureCase{"model-duplicate-resource.g10",
                    "model-duplicate-resource", true},
        FixtureCase{"model-unknown-parent.g10", "model-unknown-parent", true},
        FixtureCase{"model-unreachable-phase.g10", "model-unreachable-phase",
                    true},
        FixtureCase{"model-order-unknown-phase.g10",
                    "model-order-unknown-phase", true},
        FixtureCase{"model-order-not-siblings.g10",
                    "model-order-not-siblings", true},
        FixtureCase{"model-order-cycle.g10", "model-order-cycle", true},
        FixtureCase{"model-rule-unknown-phase.g10", "model-rule-unknown-phase",
                    true},
        FixtureCase{"model-rule-unknown-resource.g10",
                    "model-rule-unknown-resource", true},
        FixtureCase{"model-rule-conflict.g10", "model-rule-conflict", true},
        FixtureCase{"model-rule-shadowed.g10", "model-rule-shadowed", false},
        FixtureCase{"model-rule-blocking-resource.g10",
                    "model-rule-blocking-resource", false},
        FixtureCase{"model-rule-interior-phase.g10",
                    "model-rule-interior-phase", false},
        FixtureCase{"model-exact-exceeds-capacity.g10",
                    "model-exact-exceeds-capacity", false}));

class TraceFixtureTest : public ::testing::TestWithParam<FixtureCase> {
 protected:
  static core::ModelDescription load_model() {
    std::istringstream is(slurp(fixture_path("trace-model.g10")));
    core::ModelParseResult result = core::parse_model(is);
    EXPECT_TRUE(result.ok());
    return std::move(result.model);
  }
};

TEST_P(TraceFixtureTest, TriggersItsRule) {
  const FixtureCase& c = GetParam();
  const core::ModelDescription model = load_model();
  trace::TraceReadOptions options;
  options.recover = true;
  const trace::ParseResult parsed =
      trace::read_trace_file(fixture_path(c.file), options);
  LintReport report = lint_parse_errors(parsed, c.file);
  report.merge(lint_trace(model, parsed.log, {}, c.file));
  EXPECT_TRUE(report.has_rule(c.rule_id))
      << "expected " << c.rule_id << ", got: " << [&] {
           std::ostringstream os;
           render_text(os, report);
           return os.str();
         }();
  EXPECT_EQ(report.ok(), !c.is_error);
  for (const LintFinding& finding : report.findings()) {
    EXPECT_NE(find_rule(finding.rule_id), nullptr) << finding.rule_id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTraceRules, TraceFixtureTest,
    ::testing::Values(
        FixtureCase{"trace-syntax.log", "trace-syntax", true},
        FixtureCase{"trace-unbalanced-begin.log", "trace-unbalanced-begin",
                    true},
        FixtureCase{"trace-unbalanced-end.log", "trace-unbalanced-end", true},
        FixtureCase{"trace-duplicate-begin.log", "trace-duplicate-begin",
                    true},
        FixtureCase{"trace-duplicate-end.log", "trace-duplicate-end", true},
        FixtureCase{"trace-nonmonotonic-time.log", "trace-nonmonotonic-time",
                    true},
        FixtureCase{"trace-missing-parent.log", "trace-missing-parent", true},
        FixtureCase{"trace-child-escapes-parent.log",
                    "trace-child-escapes-parent", true},
        FixtureCase{"trace-overlapping-siblings.log",
                    "trace-overlapping-siblings", true},
        FixtureCase{"trace-unknown-phase-type.log", "trace-unknown-phase-type",
                    true},
        FixtureCase{"trace-hierarchy-mismatch.log", "trace-hierarchy-mismatch",
                    true},
        FixtureCase{"trace-machine-mismatch.log", "trace-machine-mismatch",
                    false},
        FixtureCase{"trace-blocking-unknown-phase.log",
                    "trace-blocking-unknown-phase", true},
        FixtureCase{"trace-blocking-outside-phase.log",
                    "trace-blocking-outside-phase", true},
        FixtureCase{"trace-blocking-unknown-resource.log",
                    "trace-blocking-unknown-resource", true},
        FixtureCase{"trace-blocking-consumable-resource.log",
                    "trace-blocking-consumable-resource", false},
        FixtureCase{"trace-fault-blocking-without-spec.log",
                    "trace-fault-blocking-without-spec", false},
        FixtureCase{"trace-orphan-machine.log", "trace-orphan-machine",
                    false},
        FixtureCase{"trace-sample-nonmonotonic.log",
                    "trace-sample-nonmonotonic", true},
        FixtureCase{"trace-sample-at-zero.log", "trace-sample-nonmonotonic",
                    true},
        FixtureCase{"trace-sample-negative.log", "trace-sample-negative",
                    true},
        FixtureCase{"trace-sample-over-capacity.log",
                    "trace-sample-over-capacity", false},
        FixtureCase{"trace-sample-unknown-resource.log",
                    "trace-sample-unknown-resource", true},
        FixtureCase{"trace-sample-blocking-resource.log",
                    "trace-sample-blocking-resource", true},
        FixtureCase{"trace-sample-gap.log", "trace-sample-gap", false}));

// The fault-provenance rule is silenced by a META faults record: the same
// trace as the fixture, plus provenance, lints clean.
TEST(TraceLintTest, FaultBlockingWithSpecIsClean) {
  std::istringstream is(slurp(fixture_path("trace-model.g10")));
  core::ModelParseResult model = core::parse_model(is);
  ASSERT_TRUE(model.ok());
  const trace::ParseResult parsed = trace::parse_log_text(
      "META\tfaults\tcrash:w1@40%\n"
      "PHASE\tB\tJob.0\t0\t-1\n"
      "PHASE\tE\tJob.0\t100\t-1\n"
      "BLOCK\tRetry\tJob.0\t10\t20\t-1\n");
  ASSERT_TRUE(parsed.ok());
  const LintReport report = lint_trace(model.model, parsed.log, {}, "<mem>");
  EXPECT_FALSE(report.has_rule("trace-fault-blocking-without-spec"));
  EXPECT_TRUE(report.clean());
}

// ---------------------------------------------------------------------------
// Instance assembly edge cases, each linted against the fixture model. The
// expected lines (rule [context]) are in report order.

std::vector<std::string> lint_lines(const std::string& log_text) {
  std::istringstream is(slurp(fixture_path("trace-model.g10")));
  core::ModelParseResult model = core::parse_model(is);
  EXPECT_TRUE(model.ok());
  const trace::ParseResult parsed = trace::parse_log_text(log_text);
  EXPECT_TRUE(parsed.ok());
  const LintReport report = lint_trace(model.model, parsed.log, {}, "<mem>");
  std::vector<std::string> lines;
  for (const LintFinding& finding : report.findings()) {
    lines.push_back(finding.rule_id + " [" + finding.location.context + "]");
  }
  return lines;
}

TEST(TraceLintAssemblyTest, ChildBeginBeforeParentBeginIsClean) {
  EXPECT_EQ(lint_lines("PHASE\tB\tJob.0/Step.0\t10\t-1\n"
                       "PHASE\tB\tJob.0\t0\t-1\n"
                       "PHASE\tE\tJob.0/Step.0\t20\t-1\n"
                       "PHASE\tE\tJob.0\t100\t-1\n"),
            std::vector<std::string>{});
}

TEST(TraceLintAssemblyTest, SameTypeAndIndexUnderTwoParents) {
  // Work.0 under Step.0 escapes its parent; the Work.0 under Step.1 does
  // not, so only one finding names a Work.0.
  EXPECT_EQ(lint_lines("PHASE\tB\tJob.0\t0\t-1\n"
                       "PHASE\tB\tJob.0/Step.0\t0\t-1\n"
                       "PHASE\tB\tJob.0/Step.0/Work.0\t0\t-1\n"
                       "PHASE\tE\tJob.0/Step.0/Work.0\t60\t-1\n"
                       "PHASE\tE\tJob.0/Step.0\t50\t-1\n"
                       "PHASE\tB\tJob.0/Step.1\t50\t-1\n"
                       "PHASE\tB\tJob.0/Step.1/Work.0\t50\t-1\n"
                       "PHASE\tE\tJob.0/Step.1/Work.0\t60\t-1\n"
                       "PHASE\tE\tJob.0/Step.1\t90\t-1\n"
                       "PHASE\tE\tJob.0\t100\t-1\n"),
            std::vector<std::string>{
                "trace-child-escapes-parent [Job.0/Step.0/Work.0]"});
}

TEST(TraceLintAssemblyTest, TypeNamesContainingDots) {
  EXPECT_EQ(lint_lines("PHASE\tB\tJob.0\t0\t-1\n"
                       "PHASE\tB\tJob.0/Step.0\t0\t-1\n"
                       "PHASE\tB\tJob.0/Step.0/My.Work.2\t0\t-1\n"
                       "PHASE\tE\tJob.0/Step.0/My.Work.2\t10\t-1\n"
                       "PHASE\tB\tJob.0/Step.0/My.Work.10\t0\t-1\n"
                       "PHASE\tE\tJob.0/Step.0/My.Work.10\t10\t-1\n"
                       "PHASE\tE\tJob.0/Step.0\t50\t-1\n"
                       "PHASE\tE\tJob.0\t100\t-1\n"),
            std::vector<std::string>{"trace-unknown-phase-type [My.Work]"});
}

TEST(TraceLintAssemblyTest, UnknownIntermediateType) {
  // Bogus is reported once. The build skips Bogus.0, so the Work under it
  // has no parent instance: the build rejects that, and lint reports it.
  EXPECT_EQ(lint_lines("PHASE\tB\tJob.0\t0\t-1\n"
                       "PHASE\tB\tJob.0/Bogus.0\t0\t-1\n"
                       "PHASE\tB\tJob.0/Bogus.0/Work.0\t0\t-1\n"
                       "PHASE\tE\tJob.0/Bogus.0/Work.0\t10\t-1\n"
                       "PHASE\tE\tJob.0/Bogus.0\t50\t-1\n"
                       "PHASE\tE\tJob.0\t100\t-1\n"),
            (std::vector<std::string>{
                "trace-unknown-phase-type [Bogus]",
                "trace-missing-parent [Job.0/Bogus.0/Work.0]"}));
}

TEST(TraceLintAssemblyTest, DuplicateBegin) {
  EXPECT_EQ(lint_lines("PHASE\tB\tJob.0\t0\t-1\n"
                       "PHASE\tB\tJob.0\t5\t-1\n"
                       "PHASE\tE\tJob.0\t100\t-1\n"),
            std::vector<std::string>{"trace-duplicate-begin [Job.0]"});
}

TEST(TraceLintAssemblyTest, DuplicateEnd) {
  EXPECT_EQ(lint_lines("PHASE\tB\tJob.0\t0\t-1\n"
                       "PHASE\tE\tJob.0\t100\t-1\n"
                       "PHASE\tE\tJob.0\t120\t-1\n"),
            std::vector<std::string>{"trace-duplicate-end [Job.0]"});
}

TEST(TraceLintAssemblyTest, EndWithoutBegin) {
  EXPECT_EQ(lint_lines("PHASE\tB\tJob.0\t0\t-1\n"
                       "PHASE\tE\tJob.0/Step.4\t50\t-1\n"
                       "PHASE\tE\tJob.0\t100\t-1\n"),
            std::vector<std::string>{"trace-unbalanced-end [Job.0/Step.4]"});
}

// ---------------------------------------------------------------------------
// Clean corpus: the shipped example models and a real engine run must not
// trigger anything.

TEST(CleanCorpusTest, ShippedExampleModelsLintClean) {
  for (const char* name : {"pregel", "gas", "dataflow"}) {
    const std::string path =
        std::string(G10_EXAMPLE_MODEL_DIR) + "/" + name + ".g10";
    const LintReport report = lint_model_text(slurp(path), path);
    std::ostringstream os;
    render_text(os, report);
    EXPECT_TRUE(report.clean()) << os.str();
  }
}

TEST(CleanCorpusTest, ShippedExampleModelsMatchBuiltinModels) {
  const auto serialized = [](const core::FrameworkModel& m) {
    std::ostringstream os;
    core::write_model(os, m.execution, m.resources, m.tuned_rules);
    return os.str();
  };
  const std::string dir(G10_EXAMPLE_MODEL_DIR);
  EXPECT_EQ(slurp(dir + "/pregel.g10"),
            serialized(core::make_pregel_model({})));
  EXPECT_EQ(slurp(dir + "/gas.g10"), serialized(core::make_gas_model({})));
  EXPECT_EQ(slurp(dir + "/dataflow.g10"),
            serialized(core::make_dataflow_model({})));
}

TEST(CleanCorpusTest, EngineRunLintsClean) {
  graph::DatagenParams params;
  params.vertices = 1024;
  params.mean_degree = 10;
  params.seed = 5;
  const auto graph = generate_datagen_like(params);
  engine::PregelConfig cfg;
  cfg.cluster.machine_count = 2;
  cfg.cluster.machine.cores = 4;
  cfg.gc.young_gen_bytes = 4e5;  // force GC pauses -> blocking events
  const auto artifacts =
      engine::PregelEngine(cfg).run(graph, algorithms::Cdlp(4));
  const auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 50 * kMillisecond, artifacts.makespan);

  core::PregelModelParams model_params;
  model_params.cores = cfg.cluster.machine.cores;
  model_params.threads = cfg.effective_threads();
  model_params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
  const core::FrameworkModel framework = core::make_pregel_model(model_params);

  std::ostringstream log_stream;
  trace::write_log(log_stream, artifacts.phase_events,
                   artifacts.blocking_events, samples);
  const trace::ParseResult parsed = trace::parse_log_text(log_stream.str());
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front().message;

  // Model lint + trace lint, as g10_analyze's preflight runs them.
  std::stringstream model_stream;
  core::write_model(model_stream, framework.execution, framework.resources,
                    framework.tuned_rules);
  const core::ModelParseResult model = core::parse_model(model_stream);
  ASSERT_TRUE(model.ok()) << model.error->message;
  LintReport report = lint_model(model, "<model>");
  report.merge(lint_trace(model.model, parsed.log, {}, "<run>"));
  std::ostringstream os;
  render_text(os, report);
  EXPECT_TRUE(report.clean()) << os.str();
}

// ---------------------------------------------------------------------------
// Binary traces lint through the same preflight; a corrupt `.g10t` block
// surfaces as its own rule so the finding names the damaged block, not a
// phantom "syntax error" in a file with no lines.

TEST(BinaryTraceLintTest, CorruptBlockYieldsItsOwnFinding) {
  const std::string model_text = slurp(fixture_path("trace-model.g10"));
  std::istringstream model_stream(model_text);
  core::ModelParseResult model = core::parse_model(model_stream);
  ASSERT_TRUE(model.ok());

  trace::ParsedLog log;
  log.phase_events.push_back({trace::PhaseEventRecord::Kind::Begin,
                              trace::PhasePath{}.child("Job", 0), 0,
                              trace::kGlobalMachine});
  log.phase_events.push_back({trace::PhaseEventRecord::Kind::End,
                              trace::PhasePath{}.child("Job", 0), 1000,
                              trace::kGlobalMachine});
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("g10_lint_corrupt_" + std::to_string(::getpid()) + ".g10t"))
          .string();
  std::string error;
  ASSERT_TRUE(trace::write_g10t_file(path, log, {}, &error)) << error;

  // Flip one payload byte; header and index stay valid.
  std::string bytes = slurp(path);
  const trace::G10tStructureParse structure =
      trace::parse_g10t_structure(bytes);
  ASSERT_TRUE(structure.ok());
  ASSERT_EQ(structure.structure.index.size(), 1u);
  bytes[structure.structure.index[0].offset] ^= 0x11;
  std::ofstream(path, std::ios::binary) << bytes;

  trace::TraceReadOptions options;
  options.recover = true;
  trace::TraceReader::OpenResult opened = trace::TraceReader::open(path,
                                                                   options);
  ASSERT_TRUE(opened.ok()) << *opened.error;
  ASSERT_TRUE(opened.reader->is_binary());
  const trace::ParseResult damaged = opened.reader->read();
  EXPECT_EQ(damaged.error_count, 1u);

  LintReport report = lint_model(model, "trace-model.g10");
  report.merge(lint_parse_errors(damaged, path, /*binary_trace=*/true));
  report.merge(lint_trace(model.model, damaged.log, {}, path));
  EXPECT_TRUE(report.has_rule("trace-binary-corrupt-block"));
  EXPECT_FALSE(report.ok());
  // The finding's location is the 1-based block ordinal, not a text line.
  bool found = false;
  for (const LintFinding& finding : report.findings()) {
    if (finding.rule_id != "trace-binary-corrupt-block") continue;
    found = true;
    EXPECT_EQ(finding.location.line, 1u);
  }
  EXPECT_TRUE(found);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// An in-memory model, written out and linted as text.

TEST(ModelLintTest, InMemoryModelRoundTrips) {
  const core::FrameworkModel framework = core::make_pregel_model({});
  std::ostringstream text;
  core::write_model(text, framework.execution, framework.resources,
                    framework.tuned_rules);
  const LintReport report = lint_model_text(text.str(), "<model>");
  std::ostringstream os;
  render_text(os, report);
  EXPECT_TRUE(report.clean()) << os.str();
}

}  // namespace
}  // namespace g10::lint
