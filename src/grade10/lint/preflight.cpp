#include "grade10/lint/preflight.hpp"

#include "grade10/lint/model_lint.hpp"

namespace g10::lint {

LintReport preflight(const core::ModelParseResult& model,
                     std::string_view model_filename,
                     const trace::ParseResult& log,
                     std::string_view log_filename,
                     const TraceLintOptions& options, bool binary_trace) {
  LintReport report = lint_model(model, model_filename);
  report.merge(lint_parse_errors(log, log_filename, binary_trace));
  report.merge(lint_trace(model.model, log.log, options, log_filename));
  return report;
}

}  // namespace g10::lint
