// g10_lint — static validation of Grade10 inputs, without characterizing
// the run:
//
//   g10_lint --model <model.g10> [--log <run.log | run.g10t>] [flags]
//   g10_lint --rules                   (--help lists the flags, exit 2)
//
// Checks the declarative model file (phase tree shape, sibling order
// cycles, attribution rules) and, when --log is given, the dumped run
// against that model (unbalanced/overlapping phases, blocking events
// outside their phase, monitoring series defects). The trace may be the
// text log or its binary `.g10t` form (sniffed from the bytes); corrupt
// binary blocks surface as trace-binary-corrupt-block findings. Findings
// are printed one per line, or as JSON with --json; --rules lists every
// rule id.
//
// Exit codes: 0 = clean or warnings only, 1 = errors (or any finding with
// --werror), 2 = usage or I/O failure.
#include <fstream>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "grade10/lint/model_lint.hpp"
#include "grade10/lint/trace_lint.hpp"
#include "grade10/model/model_io.hpp"
#include "trace/trace_reader.hpp"

namespace g10 {
namespace {

struct Args {
  std::string model_path;
  std::string log_path;
  bool json = false;
  bool werror = false;
  bool list_rules = false;
  int threads = 0;
};

cli::Table flag_table(Args& args) {
  return {"g10_lint --model <model.g10> [--log <trace>] [flags]\n"
          "       g10_lint --rules",
          {{"--model <model.g10>", &args.model_path, "the expert model"},
           {"--log <trace>", &args.log_path, "also lint this trace"},
           {"--json", cli::Switch{&args.json}, "findings as JSON"},
           {"--werror", cli::Switch{&args.werror}, "exit 1 on warnings too"},
           {"--rules", cli::Switch{&args.list_rules}, "list every rule id"},
           {"--threads N", &args.threads, "decode threads, 0 = auto", 0,
            cli::kMaxConcurrency}}};
}

int list_rules() {
  for (const lint::RuleInfo& rule : lint::rule_catalog()) {
    std::cout << rule.id << " (" << lint::to_string(rule.severity) << "): "
              << rule.summary << '\n';
  }
  return 0;
}

int run(const Args& args) {
  std::ifstream model_file(args.model_path, std::ios::binary);
  if (!model_file) {
    std::cerr << "cannot open model file: " << args.model_path << '\n';
    return 2;
  }
  const core::ModelParseResult model = core::parse_model(model_file);
  lint::LintReport report;
  if (args.log_path.empty()) {
    report = lint::lint_model(model, args.model_path);
  } else if (!model.ok()) {
    // Trace rules cross-check against the parsed model, so the model must
    // parse; its findings explain why it does not.
    report = lint::lint_model(model, args.model_path);
    std::cerr << "model does not parse; skipping trace lint\n";
  } else {
    trace::TraceReadOptions options;
    options.recover = true;
    options.threads = args.threads;
    trace::TraceReader::OpenResult opened =
        trace::TraceReader::open(args.log_path, options);
    if (!opened.ok()) {
      std::cerr << *opened.error << '\n';
      return 2;
    }
    const trace::NodeParseResult log = opened.reader->read_nodes();
    report = lint::lint_model(model, args.model_path);
    report.merge(lint::lint_parse_errors(log, args.log_path,
                                         opened.reader->is_binary()));
    report.merge(lint::lint_trace(model.model, log.log, {}, args.log_path));
  }

  if (args.json) {
    lint::render_json(std::cout, report);
  } else {
    lint::render_text(std::cout, report);
  }
  if (report.error_count() > 0) return 1;
  if (args.werror && !report.clean()) return 1;
  return 0;
}

}  // namespace
}  // namespace g10

int main(int argc, char** argv) {
  g10::Args args;
  const g10::cli::Table table = g10::flag_table(args);
  if (const int rc = g10::cli::parse(table, argc, argv)) return rc;
  if (args.list_rules) return g10::list_rules();
  if (args.model_path.empty()) return g10::cli::usage_error(table);
  try {
    return g10::run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
