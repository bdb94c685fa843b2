// Lint rules over a read trace, cross-checked against a model.
//
// The record findings (unbalanced, duplicated or overlapping phases,
// blocking events outside their phase or on phantom resources, monitoring
// series that tick backwards, go negative, exceed capacity or skip
// samples) are the TraceDefects of ExecutionTrace's build: each repair or
// rejection the build makes names its rule, so lint reports what strict
// rejection and lenient repair act on, in the build's pass order. This
// linter only filters and deduplicates them, and checks what the build
// does not read: fault provenance, from the node log's META records and
// blocking-resource names. Findings carry the phase path or
// resource@machine in Location::context; records have no line numbers.
#pragma once

#include <string_view>

#include "grade10/lint/lint.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/trace/execution_trace.hpp"
#include "trace/log_io.hpp"

namespace g10::lint {

/// Empty: the sample rules' thresholds are constants of the build's sample
/// pass. Kept only for the `{}` argument of existing lint_trace calls.
struct TraceLintOptions {};

/// Lints a node log against `model`. `filename` seeds finding locations.
/// The record findings come from `built`, a build of `log` against
/// `model`, or from a build made here when it is null.
LintReport lint_trace(const core::ModelDescription& model,
                      const trace::NodeLog& log,
                      const TraceLintOptions& options = {},
                      std::string_view filename = "<log>",
                      const core::TraceBuild* built = nullptr);

/// lint_trace of parsed records, interned (trace::intern_log).
LintReport lint_trace(const core::ModelDescription& model,
                      const trace::ParsedLog& log,
                      const TraceLintOptions& options = {},
                      std::string_view filename = "<log>",
                      const core::TraceBuild* built = nullptr);

/// Maps log-parser diagnostics to trace-syntax findings (with line
/// numbers). With binary_trace=true the diagnostics came from a `.g10t`
/// reader, so they surface as trace-binary-corrupt-block findings whose
/// "line" is the 1-based block ordinal.
LintReport lint_parse_errors(const trace::ReadErrors& result,
                             std::string_view filename,
                             bool binary_trace = false);

}  // namespace g10::lint
