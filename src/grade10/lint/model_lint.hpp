// Lint over the declarative model file (model_io.hpp format).
//
// A malformed model has one definition: the defects core::parse_model()
// records in its single pass. Each is a finding here at its catalog
// severity, so g10_lint reports every problem the parser rejects
// (syntax, duplicate, multiple-root and unreachable phases, unknown names,
// non-sibling or cyclic ORDER edges) and those it only tolerates (shadowed
// or conflicting rules, rules that attribution ignores, EXACT demand above
// capacity).
#pragma once

#include <string_view>

#include "grade10/lint/lint.hpp"
#include "grade10/model/model_io.hpp"

namespace g10::lint {

/// The defects of one model parse as findings; `filename` seeds their
/// locations.
LintReport lint_model(const core::ModelParseResult& model,
                      std::string_view filename);

/// Parses the text of a model file and lints it.
LintReport lint_model_text(std::string_view text, std::string_view filename);

}  // namespace g10::lint
