// g10_analyze — offline Grade10 analysis of a dumped run:
//
//   g10_analyze --model <model.g10> --log <run.log | run.g10t> [flags]
//                                      (--help lists them and exits 2)
//
// Parses the declarative model file and the run's trace — the text log or
// its binary `.g10t` form (g10_convert), sniffed from the file's bytes —
// executes the full characterization pipeline, and prints the profile,
// bottleneck, and issue reports. Both formats produce byte-identical
// reports; binary ingestion decodes only the blocks the filters below
// admit, in parallel across --threads.
//
// --machines / --phases / --time-range restrict the analysis to a slice of
// the trace: listed machines (global records always kept), phase subtrees
// (requested types are expanded with their model ancestors so the slice
// stays a tree), and an inclusive nanosecond window. On a `.g10t` input the
// filters skip non-matching blocks via the index instead of scanning the
// whole trace. A time-sliced extract usually cuts phases mid-flight —
// analyze those with --lenient.
//
// Before characterizing, the inputs are linted (the same checks g10_lint
// runs; the structural trace findings are the defects of the one trace
// build that is then characterized): in strict mode lint errors abort the
// analysis; with --lenient they are printed and the analysis continues;
// --no-preflight skips the lint report.
//
// --strict (the default) refuses damaged input: malformed log lines and
// structural trace defects (e.g. a crashed worker's BEGIN-without-END) are
// listed and the exit code is non-zero. --lenient repairs what it can —
// bad lines are skipped, truncated phases get synthesized ends and are
// flagged degraded — and characterizes the run end to end anyway.
//
// --threads N caps the parse/characterization concurrency (0 = auto via
// the G10_THREADS environment variable, else all hardware threads;
// 1 = fully serial). Results are identical at every setting.
//
// --det-check N is the runtime determinism oracle for that promise
// (DESIGN.md §14): instead of printing reports, it parses and characterizes
// the same input at thread counts 1, 2, and N, folds every characterization
// output (instance tree, attribution, bottlenecks, issues) into
// per-phase-path FNV hashes, and compares. On divergence it names the first
// divergent phase path and exits 5 (analysis error). It re-reads the trace
// at each thread count, so it takes a regular file, not a pipe (exit 2).
//
// Exit codes (src/common/exit_codes.hpp): 0 success, 2 bad arguments,
// 3 parse failure (unreadable/malformed model or log, strict-mode lint or
// preflight rejection), 5 analysis error (inputs parsed but the pipeline
// produced no result), 1 internal.
#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/det_hash.hpp"
#include "common/exit_codes.hpp"
#include "common/strings.hpp"
#include "grade10/lint/model_lint.hpp"
#include "grade10/lint/trace_lint.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/pipeline.hpp"
#include "grade10/report/diagnostics.hpp"
#include "grade10/report/phase_profile.hpp"
#include "grade10/report/report.hpp"
#include "grade10/report/timeline_export.hpp"
#include "trace/log_io.hpp"
#include "trace/trace_reader.hpp"

namespace g10 {
namespace {

struct Args {
  std::string model_path;
  std::string log_path;
  std::string chrome_trace_path;  ///< optional chrome://tracing export
  std::int64_t timeslice_ms = 50;
  double min_impact = 0.01;
  int threads = 0;  ///< 0 = auto (G10_THREADS, else hardware)
  bool lenient = false;
  bool preflight = true;
  int det_check = 0;  ///< 0 = off; otherwise max thread count to sweep
  std::vector<trace::MachineId> machines;
  std::vector<std::string> phases;
  std::optional<std::pair<TimeNs, TimeNs>> time_range;
};

cli::Table flag_table(Args& args) {
  const auto add_machines = [&args](const std::string& value) {
    for (const std::string_view field : split(value, ',')) {
      const auto machine = parse_int(field);
      if (!machine || *machine < trace::kGlobalMachine ||
          *machine > std::numeric_limits<trace::MachineId>::max()) {
        return kExitBadArgs;
      }
      args.machines.push_back(static_cast<trace::MachineId>(*machine));
    }
    return kExitOk;
  };
  const auto add_phases = [&args](const std::string& value) {
    for (const std::string_view field : split(value, ',')) {
      if (trim(field).empty()) return kExitBadArgs;
      args.phases.emplace_back(trim(field));
    }
    return kExitOk;
  };
  const auto set_time_range = [&args](const std::string& value) {
    const std::size_t colon = value.find(':');
    if (colon == std::string::npos) return kExitBadArgs;
    const auto lo = parse_int(value.substr(0, colon));
    const auto hi = parse_int(value.substr(colon + 1));
    if (!lo || !hi || *lo < 0 || *hi < *lo) return kExitBadArgs;
    args.time_range = {*lo, *hi};
    return kExitOk;
  };
  return {
      "g10_analyze --model <model.g10> --log <run.log | run.g10t> [flags]",
      {{"--model <model.g10>", &args.model_path, "the expert model"},
       {"--log <trace>", &args.log_path, "the run's text or .g10t trace"},
       {"--timeslice-ms MS", &args.timeslice_ms, "attribution timeslice", 1,
        std::numeric_limits<DurationNs>::max() / kMillisecond},
       {"--min-impact FRAC", &args.min_impact, "least issue impact reported"},
       {"--chrome-trace <out.json>", &args.chrome_trace_path,
        "also write a chrome://tracing timeline"},
       {"--threads N", &args.threads, "parse and analysis threads, 0 = auto",
        0, cli::kMaxConcurrency},
       {"--lenient", cli::Switch{&args.lenient}, "repair damaged input"},
       {"--strict", cli::Switch{&args.lenient, false},
        "refuse damaged input (the default)"},
       {"--no-preflight", cli::Switch{&args.preflight, false},
        "skip the lint report"},
       {"--det-check N", &args.det_check,
        "compare analyses at 1, 2 and N threads", 1, cli::kMaxConcurrency},
       {"--machines M,M,...", cli::Setter(add_machines),
        "keep only these machines' records"},
       {"--phases TYPE,TYPE,...", cli::Setter(add_phases),
        "keep only these phase types' subtrees"},
       {"--time-range LO:HI", cli::Setter(set_time_range),
        "keep only this nanosecond window"}}};
}

/// The record filter for --machines/--phases/--time-range. Requested phase
/// types are expanded with their model ancestors so the filtered slice
/// keeps the enclosing instance tree analyzable.
trace::TraceFilter build_filter(const Args& args,
                                const core::ExecutionModel& model) {
  trace::TraceFilter filter;
  filter.machines = args.machines;
  if (args.time_range) {
    filter.time_min = args.time_range->first;
    filter.time_max = args.time_range->second;
  }
  const auto add_type = [](std::vector<std::string>& types,
                           const std::string& name) {
    if (std::find(types.begin(), types.end(), name) == types.end()) {
      types.push_back(name);
    }
  };
  for (const std::string& name : args.phases) {
    add_type(filter.phase_types, name);  // kept even if unknown to the model
    const core::PhaseTypeId requested = model.find(name);
    if (requested == core::kNoPhaseType) continue;
    for (core::PhaseTypeId id = model.type(requested).parent;
         id != core::kNoPhaseType; id = model.type(id).parent) {
      add_type(filter.ancestor_types, model.type(id).name);
    }
  }
  return filter;
}

trace::TraceReadOptions reader_options(int threads) {
  trace::TraceReadOptions options;
  options.recover = true;  // always collect the full error list
  options.threads = threads;
  return options;
}

/// The characterization input at `threads`; the trace comes in as a build
/// of the read node log (characterize_trace), not as records.
core::CharacterizationInput characterization_input(
    const Args& args, const core::ModelParseResult& model, int threads) {
  core::CharacterizationInput input;
  input.model = &model.model.execution;
  input.resources = &model.model.resources;
  input.rules = &model.model.rules;
  input.config.timeslice = args.timeslice_ms * kMillisecond;
  input.config.min_issue_impact = args.min_impact;
  input.config.threads = threads;
  input.trace_options.lenient = args.lenient;
  return input;
}

/// The determinism oracle: parse + characterize the same input at thread
/// counts 1, 2, and N, fold each characterization into per-phase-path
/// hashes, and compare against the serial baseline.
int det_check(const Args& args, const core::ModelParseResult& model) {
  // Each thread count re-reads the trace, which a pipe delivers only once.
  struct stat st{};
  if (::stat(args.log_path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    std::cerr << "--det-check re-reads " << args.log_path
              << " at every thread count; give it a regular file\n";
    return kExitBadArgs;
  }
  std::vector<int> counts{1, 2, args.det_check};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  const trace::TraceFilter filter =
      build_filter(args, model.model.execution);
  std::vector<DetSummary> summaries;
  for (const int threads : counts) {
    trace::NodeParseResult log = trace::read_trace_nodes(
        args.log_path, reader_options(threads), filter);
    if (!log.ok() && log.errors.front().line_number == 0) {
      std::cerr << log.errors.front().message << '\n';
      return kExitParseFailure;
    }
    if (!log.ok() && !args.lenient) {
      std::cerr << args.log_path << ": " << log.error_count
                << " malformed line(s); re-run with --lenient\n";
      return kExitParseFailure;
    }

    const core::CharacterizationInput input =
        characterization_input(args, model, threads);
    core::TraceBuild built = core::ExecutionTrace::build_checked(
        *input.model, *input.resources, log.log, input.trace_options);
    log.log = trace::NodeLog{};
    DetHasher hasher;
    core::CheckedCharacterization checked =
        core::characterize_trace(input, std::move(built), &hasher);
    if (!checked.status.ok() || !checked.result.has_value()) {
      std::cerr << "characterization failed at " << threads
                << " thread(s):\n";
      for (const auto& error : checked.status.errors) {
        std::cerr << "  " << error << '\n';
      }
      return kExitAnalysisError;
    }
    summaries.push_back(hasher.summary());
  }

  const DetSummary& baseline = summaries.front();
  std::cout << "det-check: characterized at";
  for (const int threads : counts) std::cout << ' ' << threads;
  std::cout << " thread(s), " << baseline.phases.size() << " phase paths, "
            << baseline.total_folds << " folds per characterization\n";
  for (std::size_t i = 1; i < summaries.size(); ++i) {
    const auto divergence = first_divergence(baseline, summaries[i]);
    if (!divergence) continue;
    std::cout << "det-check: DIVERGENCE at " << counts[i]
              << " thread(s) vs 1: phase '" << divergence->path << "': "
              << divergence->detail << " (0x" << std::hex << divergence->lhs
              << " vs 0x" << divergence->rhs << std::dec << ")\n";
    return kExitAnalysisError;
  }
  std::cout << "det-check: identical per-phase hashes, overall 0x"
            << std::hex << baseline.overall << std::dec << '\n';
  return kExitOk;
}

int run(const Args& args) {
  std::ifstream model_file(args.model_path, std::ios::binary);
  if (!model_file) {
    std::cerr << "cannot open model file: " << args.model_path << '\n';
    return kExitParseFailure;
  }
  const core::ModelParseResult model = core::parse_model(model_file);
  if (!model.ok()) {
    std::cerr << args.model_path << ':' << model.error->line_number << ": "
              << model.error->message << '\n';
    return kExitParseFailure;
  }

  if (args.det_check > 0) return det_check(args, model);

  trace::NodeParseResult log = trace::read_trace_nodes(
      args.log_path, reader_options(args.threads),
      build_filter(args, model.model.execution));
  if (!log.ok() && log.errors.front().line_number == 0) {
    // File-level failure: unreadable file, or a truncated / corrupt .g10t
    // header or section table.
    std::cerr << log.errors.front().message << '\n';
    return kExitParseFailure;
  }
  if (!log.ok()) {
    if (!args.lenient) {
      std::cerr << args.log_path << ": " << log.error_count
                << " malformed line(s)/block(s):\n";
      for (const auto& error : log.errors) {
        if (error.line.empty()) {
          std::cerr << "  " << error.message << '\n';
        } else {
          std::cerr << "  line " << error.line_number << ": "
                    << error.message << "  [" << error.line << "]\n";
        }
      }
      if (log.error_count > log.errors.size()) {
        std::cerr << "  (+" << (log.error_count - log.errors.size())
                  << " more)\n";
      }
      std::cerr << "re-run with --lenient to skip damaged lines\n";
      return kExitParseFailure;
    }
    std::cout << "lenient: skipped " << log.error_count
              << " malformed line(s)\n";
  }
  std::cout << "parsed " << log.log.phase_events.size() << " phase events, "
            << log.log.blocking_events.size() << " blocking events, "
            << log.log.samples.size() << " monitoring samples\n\n";

  const core::CharacterizationInput input =
      characterization_input(args, model, args.threads);
  core::TraceBuild built = core::ExecutionTrace::build_checked(
      *input.model, *input.resources, log.log, input.trace_options);

  // Pre-flight lint: the same static checks g10_lint runs, with the
  // record findings taken from `built`. Malformed log lines are
  // already reported above, so only the model and record-level trace rules
  // run here.
  if (args.preflight) {
    lint::LintReport preflight = lint::lint_model(model, args.model_path);
    preflight.merge(
        lint::lint_trace(model.model, log.log, {}, args.log_path, &built));
    if (!preflight.clean()) {
      std::cerr << "preflight lint:\n";
      lint::render_text(std::cerr, preflight);
    }
    if (!preflight.ok()) {
      if (!args.lenient) {
        std::cerr << "preflight failed; fix the input, or re-run with "
                     "--lenient to analyze anyway (--no-preflight skips "
                     "the check)\n";
        return kExitParseFailure;
      }
      std::cout << "lenient: continuing past " << preflight.error_count()
                << " preflight error(s)\n\n";
    }
  }

  // Characterization reads only `built`: free the node log before demand,
  // attribution and replay run.
  log.log = trace::NodeLog{};

  core::CheckedCharacterization checked =
      core::characterize_trace(input, std::move(built));
  if (!checked.status.ok() || !checked.result.has_value()) {
    std::cerr << "characterization failed:\n";
    for (const auto& error : checked.status.errors) {
      std::cerr << "  " << error << '\n';
    }
    if (!args.lenient) {
      std::cerr << "re-run with --lenient to repair damaged traces\n";
    }
    return kExitAnalysisError;
  }
  const core::CharacterizationResult& result = *checked.result;
  if (!checked.status.warnings.empty()) {
    std::cout << "lenient repairs ("
              << result.trace.degraded_count() << " degraded instances):\n";
    for (const auto& warning : checked.status.warnings) {
      std::cout << "  " << warning << '\n';
    }
    std::cout << '\n';
  }

  core::render_profile(std::cout, result.trace, model.model.resources,
                       result.usage, result.grid);
  std::cout << '\n';
  core::render_bottlenecks(std::cout, model.model.resources,
                           result.bottlenecks);
  std::cout << '\n';
  core::render_issues(std::cout, result.issues);
  std::cout << '\n';
  const auto profile = core::build_phase_profile(
      result.trace, result.phase_usage, result.bottlenecks);
  core::render_phase_profile(std::cout, model.model.execution,
                             model.model.resources, profile);
  std::cout << '\n';
  core::render_critical_path(std::cout, model.model.execution, result.trace,
                             result.critical_path);
  std::cout << '\n';
  core::render_diagnostics(
      std::cout, model.model.resources,
      core::compute_resource_diagnostics(result.usage),
      core::compute_machine_skew(result.usage));
  if (!args.chrome_trace_path.empty()) {
    std::ofstream trace_file(args.chrome_trace_path);
    if (!trace_file) {
      std::cerr << "cannot open " << args.chrome_trace_path << '\n';
      return kExitInternalError;
    }
    core::write_chrome_trace(trace_file, model.model.execution, result.trace);
    std::cout << "\nwrote chrome://tracing timeline to "
              << args.chrome_trace_path << '\n';
  }
  return kExitOk;
}

}  // namespace
}  // namespace g10

int main(int argc, char** argv) {
  g10::Args args;
  const g10::cli::Table table = g10::flag_table(args);
  if (const int rc = g10::cli::parse(table, argc, argv)) return rc;
  if (args.model_path.empty() || args.log_path.empty()) {
    return g10::cli::usage_error(table);
  }
  try {
    return g10::run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return g10::kExitInternalError;
  }
}
