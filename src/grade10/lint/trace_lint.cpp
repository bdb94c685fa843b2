#include "grade10/lint/trace_lint.hpp"

#include <set>
#include <string>

#include "common/strings.hpp"

namespace g10::lint {

namespace {

/// Rules raised once per offending event; every other trace rule is raised
/// once per (rule, context), or it would flood the report with e.g. every
/// instance of one unknown type.
bool per_event(std::string_view rule_id) {
  return rule_id == "trace-duplicate-begin" ||
         rule_id == "trace-duplicate-end" ||
         rule_id == "trace-blocking-outside-phase";
}

}  // namespace

LintReport lint_trace(const core::ModelDescription& model,
                      const trace::NodeLog& log,
                      const TraceLintOptions& /*options*/,
                      std::string_view filename,
                      const core::TraceBuild* built) {
  core::TraceBuild own;
  if (built == nullptr) {
    own = core::ExecutionTrace::build_checked(model.execution,
                                              model.resources, log, {});
    built = &own;
  }
  LintReport report;
  std::set<std::string> reported;  ///< (rule, context) of once-only rules
  const auto add = [&](const std::string& rule_id, const std::string& context,
                       const std::string& message) {
    if (!per_event(rule_id) &&
        !reported.insert(rule_id + "\x1f" + context).second) {
      return;
    }
    report.add(rule_id, find_rule(rule_id)->severity,
               Location{std::string(filename), 0, context}, message);
  };
  for (const core::TraceDefect& defect : built->defects) {
    add(defect.rule_id, defect.context, defect.message);
  }
  // Retry/Recovery blocked time only appears in runs that had faults
  // injected, and those runs stamp the spec into a META "faults" record.
  // Blocked fault time without that provenance usually means a stripped or
  // hand-assembled log whose fault attribution can't be cross-checked.
  const auto spec = log.meta_value("faults");
  if (spec.has_value() && !trim(*spec).empty()) return report;
  for (const trace::BlockingEvent& event : log.blocking_events) {
    const std::string& resource = log.resources[event.resource];
    if (resource != "Retry" && resource != "Recovery") continue;
    add("trace-fault-blocking-without-spec", resource,
        "log records '" + resource +
            "' blocked time but no 'faults' META record names the injected "
            "fault spec");
  }
  return report;
}

LintReport lint_trace(const core::ModelDescription& model,
                      const trace::ParsedLog& log,
                      const TraceLintOptions& options,
                      std::string_view filename,
                      const core::TraceBuild* built) {
  return lint_trace(model, trace::intern_log(log), options, filename, built);
}

LintReport lint_parse_errors(const trace::ReadErrors& result,
                             std::string_view filename, bool binary_trace) {
  LintReport report;
  const std::string file(filename);
  const char* rule = binary_trace ? "trace-binary-corrupt-block"
                                  : "trace-syntax";
  for (const trace::ParseError& error : result.errors) {
    report.add(rule, Severity::kError,
               Location{file, error.line_number, error.line}, error.message);
  }
  if (result.error_count > result.errors.size()) {
    report.add(rule, Severity::kError, Location{file, 0, ""},
               std::to_string(result.error_count - result.errors.size()) +
                   (binary_trace
                        ? " additional corrupt block(s) beyond the error cap"
                        : " additional malformed line(s) beyond the error "
                          "cap"));
  }
  return report;
}

}  // namespace g10::lint
