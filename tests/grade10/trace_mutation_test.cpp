// Deterministic mutation test of the trace checks. Damaged copies of the
// trace lint fixtures (lines deleted, duplicated, swapped or cut off, BEGIN
// and END flipped, times, machines, indices, resources and sample values
// edited) go through the recovering log parser, a strict and a lenient
// trace build of all three record kinds, and trace lint. Whatever the
// damage, the build and lint must agree on one definition of a malformed
// trace:
//  - nothing throws (crashes fail the test run itself);
//  - every defect names a rule of the lint catalog, so each repair or
//    rejection is something lint reports;
//  - a trace lint calls clean builds strictly;
//  - a lenient build holds no more instances than the input has BEGINs,
//    and its monitoring series advance from 0 with no negative rate;
//  - the recovering parser yields no more records than the mutant has
//    lines;
//  - a strict parse either fails, or its write_log rendering parses
//    strictly to the same canonical bytes;
//  - the build of the recovering parse's node log (g10_analyze's input)
//    and the build of its records agree, strict and lenient, on every
//    defect, the verdict, the warnings and the instance tree, and lint
//    of either reports the same findings.
// The mutants come from a fixed seed, so a failure reproduces exactly; the
// failing mutant's text is printed with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "grade10/lint/trace_lint.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/trace/execution_trace.hpp"
#include "trace/log_io.hpp"
#include "build_parity.hpp"

namespace g10::lint {
namespace {

constexpr std::uint64_t kSeed = 20201016;
constexpr int kMutantsPerFixture = 120;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return std::move(buffer).str();
}

/// The trace fixtures, by name so the mutants do not depend on the order
/// the directory lists them in.
std::vector<std::filesystem::path> corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(G10_LINT_FIXTURE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("trace-") && name.ends_with(".log")) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<std::string> records_of(const std::string& text) {
  std::vector<std::string> lines;
  for (const std::string_view line : split(text, '\n')) {
    if (!line.empty() && !line.starts_with('#')) lines.emplace_back(line);
  }
  return lines;
}

/// Applies one random edit to `lines`.
void mutate(std::vector<std::string>& lines, Rng& rng) {
  if (lines.empty()) return;
  const std::size_t at = rng.next_below(lines.size());
  std::vector<std::string> fields;
  for (const std::string_view field : split(lines[at], '\t')) {
    fields.emplace_back(field);
  }
  const std::string& kind = fields[0];
  // Field positions of a record's time, machine and resource; 0 when the
  // record has none.
  const std::size_t time = kind == "BLOCK" ? 3 + rng.next_below(2) : 3;
  const std::size_t machine =
      kind == "PHASE" ? 4 : kind == "BLOCK" ? 5 : kind == "SAMPLE" ? 2 : 0;
  const std::size_t resource = kind == "BLOCK" || kind == "SAMPLE" ? 1 : 0;
  const std::size_t path = kind == "PHASE" || kind == "BLOCK" ? 2 : 0;
  const std::size_t value = kind == "SAMPLE" ? 4 : 0;
  switch (rng.next_below(10)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      return;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_below(lines.size() + 1)),
                   lines[at]);
      return;
    case 2:
      std::swap(lines[at], lines[rng.next_below(lines.size())]);
      return;
    case 3:
      lines.resize(at);
      return;
    case 4:
      if (kind == "PHASE") fields[1] = fields[1] == "B" ? "E" : "B";
      break;
    case 5:
      if (fields.size() > time) {
        // A sample at 0 has no window: the first one starts at 0.
        const bool zero = kind == "SAMPLE" && rng.next_below(4) == 0;
        fields[time] = std::to_string(zero ? 0 : rng.next_int(0, 250));
      }
      break;
    case 6:
      if (machine != 0 && fields.size() > machine) {
        fields[machine] = std::to_string(rng.next_int(-1, 4));
      }
      break;
    case 7:
      if (resource != 0 && fields.size() > resource) {
        static const std::vector<std::string> kResources = {
            "GC", "Retry", "Recovery", "cpu", "net", "Phantom"};
        fields[resource] = kResources[rng.next_below(kResources.size())];
      }
      break;
    case 8:
      if (value != 0 && fields.size() > value) {
        // Negative, plausible and over-capacity rates (cpu holds 4).
        fields[value] = std::to_string(rng.next_int(-3, 6));
      }
      break;
    default:
      if (path != 0 && fields.size() > path) {
        // Renumber the last element: a new sibling, or an existing one.
        std::string& p = fields[path];
        p = p.substr(0, p.rfind('.') + 1) +
            std::to_string(rng.next_int(0, 11));
      }
      break;
  }
  std::string line;
  for (const std::string& field : fields) {
    line += (line.empty() ? "" : "\t") + field;
  }
  lines[at] = line;
}

/// write_log's rendering of a parsed log.
std::string canonical(const trace::ParsedLog& log) {
  std::ostringstream out;
  trace::write_log(out, log.phase_events, log.blocking_events, log.samples,
                   log.meta);
  return std::move(out).str();
}

/// Runs one mutant through the parser, both builds and lint, checking the
/// invariants of the header comment. `lines` is the mutant's line count.
void check(const core::ModelDescription& model, const std::string& text,
           std::size_t lines) {
  const trace::ParseResult strict = trace::parse_log_text(text);
  if (strict.ok()) {
    const std::string rendered = canonical(strict.log);
    const trace::ParseResult reparsed = trace::parse_log_text(rendered);
    EXPECT_TRUE(reparsed.ok()) << "canonical log does not parse:\n"
                               << rendered;
    EXPECT_EQ(canonical(reparsed.log), rendered);
  }

  trace::ParseOptions options;
  options.recover = true;
  const trace::ParseResult parsed = trace::parse_log_text(text, options);
  EXPECT_LE(parsed.log.meta.size() + parsed.log.phase_events.size() +
                parsed.log.blocking_events.size() + parsed.log.samples.size(),
            lines);
  const auto begins = std::count_if(
      parsed.log.phase_events.begin(), parsed.log.phase_events.end(),
      [](const trace::PhaseEventRecord& event) {
        return event.kind == trace::PhaseEventRecord::Kind::Begin;
      });
  const trace::NodeParseResult nodes = trace::parse_log_nodes(text, options);
  EXPECT_EQ(nodes.error_count, parsed.error_count);
  core::TraceBuild builds[2];
  for (const bool lenient : {false, true}) {
    core::ExecutionTrace::Options build_options;
    build_options.lenient = lenient;
    core::TraceBuild& built = builds[lenient ? 1 : 0];
    EXPECT_NO_THROW(built = core::ExecutionTrace::build_checked(
                        model.execution, model.resources,
                        parsed.log.phase_events, parsed.log.blocking_events,
                        parsed.log.samples, build_options));
    core::TraceBuild from_nodes;
    EXPECT_NO_THROW(from_nodes = core::ExecutionTrace::build_checked(
                        model.execution, model.resources, nodes.log,
                        build_options));
    core::testing::expect_same_build(from_nodes, built);
    for (const core::TraceDefect& defect : built.defects) {
      EXPECT_NE(find_rule(defect.rule_id), nullptr)
          << "defect without a lint rule: " << defect.error;
    }
    if (lenient && !built.error) {
      EXPECT_LE(built.trace.instances().size(),
                static_cast<std::size_t>(begins));
      for (const core::ResourceSeries& series : built.monitored.series()) {
        TimeNs previous = 0;
        for (const core::Measurement& m : series.measurements) {
          EXPECT_EQ(m.begin, previous);
          EXPECT_GT(m.end, m.begin);
          EXPECT_GE(m.value, 0.0);
          previous = m.end;
        }
      }
    }
  }
  LintReport report;
  EXPECT_NO_THROW(report = lint_trace(model, parsed.log, {}, "<mutant>",
                                      &builds[0]));
  if (report.clean()) {
    EXPECT_FALSE(builds[0].error.has_value())
        << "lint-clean trace rejected: " << *builds[0].error;
  }
  // g10_lint's reading: the node log, built by lint itself.
  std::ostringstream from_records;
  std::ostringstream from_nodes;
  render_text(from_records, report);
  render_text(from_nodes, lint_trace(model, nodes.log, {}, "<mutant>"));
  EXPECT_EQ(from_nodes.str(), from_records.str());
}

TEST(TraceMutationTest, BuildAndLintAgreeOnDamagedTraces) {
  std::istringstream is(slurp(std::filesystem::path(G10_LINT_FIXTURE_DIR) /
                              "trace-model.g10"));
  const core::ModelParseResult model = core::parse_model(is);
  ASSERT_TRUE(model.ok());
  const std::vector<std::filesystem::path> fixtures = corpus();
  ASSERT_GE(fixtures.size(), 20u);
  Rng rng(kSeed);
  for (const std::filesystem::path& fixture : fixtures) {
    const std::vector<std::string> records = records_of(slurp(fixture));
    for (int i = 0; i < kMutantsPerFixture; ++i) {
      std::vector<std::string> lines = records;
      for (auto edits = 1 + rng.next_below(3); edits > 0; --edits) {
        mutate(lines, rng);
      }
      std::string text;
      for (const std::string& line : lines) text += line + '\n';
      check(model.model, text, lines.size());
      if (HasFailure()) {
        FAIL() << fixture.filename() << " mutant " << i << ":\n" << text;
      }
    }
  }
}

}  // namespace
}  // namespace g10::lint
