// The core of the standalone g10_lint tool: model-file lint, log-parser
// diagnostics, and record-level trace lint merged into one report.
#pragma once

#include <string_view>

#include "grade10/lint/trace_lint.hpp"

namespace g10::lint {

/// Lints a parsed model plus a parsed log: the model's defects, every
/// log-parser diagnostic as trace-syntax (or trace-binary-corrupt-block when
/// the log came from a `.g10t` reader), and the trace rules cross-checked
/// against the model, which must have parsed (`model.ok()`).
LintReport preflight(const core::ModelParseResult& model,
                     std::string_view model_filename,
                     const trace::ParseResult& log,
                     std::string_view log_filename,
                     const TraceLintOptions& options = {},
                     bool binary_trace = false);

}  // namespace g10::lint
