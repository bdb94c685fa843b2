// The core of the standalone g10_lint tool: model-file lint, log-parser
// diagnostics, and record-level trace lint merged into one report.
#pragma once

#include <string_view>

#include "grade10/lint/trace_lint.hpp"

namespace g10::lint {

/// Lints model text plus a parsed log: model rules, every log-parser
/// diagnostic as trace-syntax (or trace-binary-corrupt-block when the log
/// came from a `.g10t` reader), and the trace rules cross-checked against
/// `model` (the successfully parsed counterpart of `model_text`).
LintReport preflight(std::string_view model_text,
                     std::string_view model_filename,
                     const core::ModelDescription& model,
                     const trace::ParseResult& log,
                     std::string_view log_filename,
                     const TraceLintOptions& options = {},
                     bool binary_trace = false);

}  // namespace g10::lint
