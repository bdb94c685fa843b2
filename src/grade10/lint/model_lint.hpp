// Lint rules over the declarative model file (model_io.hpp format).
//
// parse_model() is strict and stops at the first malformed statement; the
// linter re-reads the same text with a *loose* parser that records every
// declaration it can make sense of and keeps going, so a single run reports
// every problem in the file. On top of the per-statement syntax checks it
// validates the cross-statement invariants the pipeline relies on: one root,
// an ancestor chain that reaches it, acyclic sibling order, and attribution
// rules that name real phases/resources and actually take effect.
#pragma once

#include <string_view>

#include "grade10/lint/lint.hpp"
#include "grade10/model/model_io.hpp"

namespace g10::lint {

/// Lints the text of a model file. `filename` seeds finding locations.
LintReport lint_model_text(std::string_view text, std::string_view filename);

}  // namespace g10::lint
