#include "grade10/lint/model_lint.hpp"

#include <sstream>
#include <string>

namespace g10::lint {

LintReport lint_model(const core::ModelParseResult& model,
                      std::string_view filename) {
  LintReport report;
  for (const core::ModelDefect& defect : model.defects) {
    report.add(defect.rule_id, find_rule(defect.rule_id)->severity,
               Location{std::string(filename), defect.line, defect.context},
               defect.message);
  }
  return report;
}

LintReport lint_model_text(std::string_view text, std::string_view filename) {
  std::istringstream is{std::string(text)};
  return lint_model(core::parse_model(is), filename);
}

}  // namespace g10::lint
