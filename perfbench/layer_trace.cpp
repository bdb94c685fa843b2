// g10_layer_trace — one traced pass of the g10_run + g10_analyze pipeline.
//
// Calls each layer's public functions in the order and with the thread
// setting the two CLIs use, and times every call from outside with
// std::chrono::steady_clock. It writes the same artifacts g10_run writes
// (run.log, run.g10t, model.g10 under --out) and the same report
// g10_analyze prints (to --report), so the driver can check both against
// the CLI's digests. One JSON object with the per-layer times (ms) and
// counts goes to stdout.
//
//   g10_layer_trace --engine pregel|gas --dataset rmat:<scale> --out <dir>
//                   --report <file> [--workers N] [--cores N]
//                   [--iterations K] [--seed S] [--monitor-ms MS]
//                   [--faults <spec>] [--analyze-format text|binary]
//                   [--timeslice-ms MS] [--lenient]
//
// Exit codes follow the CLIs: 0 success, 2 bad arguments, 3 parse or
// preflight failure, 4 fault abort, 5 analysis error, 1 internal.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/programs.hpp"
#include "common/check.hpp"
#include "common/exit_codes.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/lint/model_lint.hpp"
#include "grade10/lint/trace_lint.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/models/gas_model.hpp"
#include "grade10/models/pregel_model.hpp"
#include "grade10/pipeline.hpp"
#include "grade10/report/diagnostics.hpp"
#include "grade10/report/phase_profile.hpp"
#include "grade10/report/report.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "sim/fault_injector.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"
#include "trace/trace_reader.hpp"

namespace g10 {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string engine = "pregel";
  std::string dataset = "rmat:14";
  std::string out;
  std::string report;
  int workers = 4;
  int cores = 8;
  int iterations = 20;
  std::uint64_t seed = 2020;
  DurationNs monitor_interval = 400 * kMillisecond;
  std::string faults;
  bool analyze_binary = false;
  DurationNs timeslice = 50 * kMillisecond;
  bool lenient = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--lenient") {
      args.lenient = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    if (arg == "--engine") {
      args.engine = v;
    } else if (arg == "--dataset") {
      args.dataset = v;
    } else if (arg == "--out") {
      args.out = v;
    } else if (arg == "--report") {
      args.report = v;
    } else if (arg == "--workers") {
      args.workers = static_cast<int>(parse_int(v).value_or(0));
    } else if (arg == "--cores") {
      args.cores = static_cast<int>(parse_int(v).value_or(0));
    } else if (arg == "--iterations") {
      args.iterations = static_cast<int>(parse_int(v).value_or(0));
    } else if (arg == "--seed") {
      args.seed = static_cast<std::uint64_t>(parse_int(v).value_or(2020));
    } else if (arg == "--monitor-ms") {
      args.monitor_interval = parse_int(v).value_or(400) * kMillisecond;
    } else if (arg == "--faults") {
      args.faults = v;
    } else if (arg == "--analyze-format") {
      if (v != "text" && v != "binary") return std::nullopt;
      args.analyze_binary = v == "binary";
    } else if (arg == "--timeslice-ms") {
      args.timeslice = parse_int(v).value_or(50) * kMillisecond;
    } else {
      return std::nullopt;
    }
  }
  if (args.out.empty() || args.report.empty() || args.workers <= 0 ||
      args.cores <= 0 || args.iterations <= 0) {
    return std::nullopt;
  }
  return args;
}

/// Per-layer spans and counts of one pass, printed as one JSON object.
/// `lap()` returns the milliseconds since the previous lap, so each layer
/// call is bracketed by a discarded lap before it and a recorded one after.
class Recorder {
 public:
  Recorder() : start_(Clock::now()), last_(start_) {}

  double lap() {
    const Clock::time_point now = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - last_).count();
    last_ = now;
    return ms;
  }
  void span(const std::string& name) {
    const double ms = lap();
    times_[name] += ms;
    covered_ += ms;
  }
  void count(const std::string& name, double value) { counts_[name] = value; }

  /// Closes the pass segment `name`: its total since the previous close,
  /// and the remainder no span covers.
  void close_total(const std::string& name) {
    lap();
    const double total =
        std::chrono::duration<double, std::milli>(last_ - start_).count();
    times_["traced." + name + "_total_ms"] = total;
    times_["traced." + name + "_other_ms"] = total - covered_;
    covered_ = 0.0;
    start_ = last_;
  }

  void print(std::ostream& os) const {
    os << std::setprecision(17) << '{';
    const char* sep = "";
    for (const auto* map : {&times_, &counts_}) {
      for (const auto& [name, value] : *map) {
        os << sep << '"' << name << "\": " << value;
        sep = ", ";
      }
    }
    os << "}\n";
  }

 private:
  Clock::time_point start_;
  Clock::time_point last_;
  std::map<std::string, double> times_;
  std::map<std::string, double> counts_;
  double covered_ = 0.0;  ///< span time inside the open segment
};

graph::Graph make_dataset(const std::string& spec) {
  const auto parts = split(spec, ':');
  if (parts.size() != 2 || parts[0] != "rmat") {
    throw std::runtime_error("unsupported dataset spec: " + spec);
  }
  graph::RmatParams params;
  params.scale = static_cast<int>(parse_int(parts[1]).value_or(14));
  return generate_rmat(params);
}

/// g10_run's engine step for PageRank: run, then build the expert model
/// the run dumps next to its trace.
template <typename Engine, typename Config, typename ModelParams>
int run_engine(const Args& args, const sim::FaultSpec& faults,
               const graph::Graph& graph, Recorder& rec,
               trace::RunArtifacts& artifacts, core::FrameworkModel& framework,
               TimeNs& horizon,
               core::FrameworkModel (*make_model)(const ModelParams&)) {
  Config cfg;
  cfg.cluster.machine_count = args.workers;
  cfg.cluster.machine.cores = args.cores;
  cfg.cluster.faults = faults;
  cfg.seed = args.seed;
  const algorithms::PageRank pagerank(args.iterations);
  const Engine engine(cfg);
  horizon = engine.estimate_horizon(graph, pagerank);
  rec.lap();
  try {
    artifacts = engine.run(graph, pagerank);
  } catch (const std::exception& e) {
    if (faults.empty()) throw;
    std::cerr << "engine aborted under injected faults: " << e.what() << '\n';
    return kExitFaultAbort;
  }
  rec.span("engine.run_ms");
  ModelParams params;
  params.cores = args.cores;
  params.threads = cfg.effective_threads();
  params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
  framework = make_model(params);
  return kExitOk;
}

/// The g10_run half: dataset → engine → sampler → trace and model dump.
int generate(const Args& args, Recorder& rec) {
  sim::FaultSpec faults;
  if (!args.faults.empty()) {
    std::string error;
    const auto parsed = sim::FaultSpec::parse(args.faults, &error);
    if (!parsed) {
      std::cerr << "bad --faults spec: " << error << '\n';
      return kExitParseFailure;
    }
    faults = *parsed;
    faults.validate(args.workers);
  }

  rec.lap();
  const graph::Graph graph = make_dataset(args.dataset);
  rec.span("graph.generate_ms");

  trace::RunArtifacts artifacts;
  core::FrameworkModel framework;
  TimeNs horizon = 0;
  int rc = kExitOk;
  if (args.engine == "pregel") {
    rc = run_engine<engine::PregelEngine, engine::PregelConfig>(
        args, faults, graph, rec, artifacts, framework, horizon,
        &core::make_pregel_model);
  } else if (args.engine == "gas") {
    rc = run_engine<engine::GasEngine, engine::GasConfig>(
        args, faults, graph, rec, artifacts, framework, horizon,
        &core::make_gas_model);
  } else {
    return kExitBadArgs;
  }
  if (rc != kExitOk) return rc;
  rec.count("engine.phase_events",
            static_cast<double>(artifacts.phase_events.size()));
  rec.count("engine.blocking_events",
            static_cast<double>(artifacts.blocking_events.size()));
  rec.count("engine.channel_plans",
            static_cast<double>(artifacts.comm.channel_plans));
  rec.count("engine.batch_flushes",
            static_cast<double>(artifacts.comm.batch_flushes));

  rec.lap();
  auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, args.monitor_interval, artifacts.makespan);
  if (faults.has_kind(sim::FaultKind::kSampleDrop)) {
    sim::FaultInjector dropout(faults, args.seed);
    dropout.resolve(horizon);
    samples = monitor::apply_sampler_dropout(samples, dropout);
  }
  rec.span("monitor.sample_ms");
  rec.count("monitor.samples", static_cast<double>(samples.size()));

  std::filesystem::create_directories(args.out);
  std::vector<trace::LogMeta> meta;
  if (!faults.empty()) meta.emplace_back("faults", faults.to_string());
  const std::string log_path = args.out + "/run.log";
  const std::string g10t_path = args.out + "/run.g10t";
  {
    std::vector<char> buffer(1 << 20);
    std::ofstream log;
    log.rdbuf()->pubsetbuf(buffer.data(),
                           static_cast<std::streamsize>(buffer.size()));
    log.open(log_path);
    rec.lap();
    trace::write_log(log, artifacts.phase_events, artifacts.blocking_events,
                     samples, meta);
    log.close();
    rec.span("trace.write_text_ms");
  }
  {
    trace::ParsedLog log;
    log.meta = meta;
    log.phase_events = artifacts.phase_events;
    log.blocking_events = artifacts.blocking_events;
    log.samples = samples;
    std::string error;
    rec.lap();
    if (!trace::write_g10t_file(g10t_path, log, {}, &error)) {
      std::cerr << error << '\n';
      return kExitInternalError;
    }
    rec.span("trace.write_g10t_ms");
  }
  {
    std::ofstream model(args.out + "/model.g10");
    core::write_model(model, framework.execution, framework.resources,
                      framework.tuned_rules);
  }
  rec.count("trace.text_bytes",
            static_cast<double>(std::filesystem::file_size(log_path)));
  rec.count("trace.g10t_bytes",
            static_cast<double>(std::filesystem::file_size(g10t_path)));
  return kExitOk;
}

/// The g10_analyze half at its default thread count: read → preflight →
/// trace build → monitored usage → demand → attribution → bottlenecks →
/// issues → reports. The report text matches g10_analyze's stdout.
int analyze(const Args& args, Recorder& rec, std::ostream& out) {
  const std::string model_path = args.out + "/model.g10";
  const std::string log_path =
      args.out + (args.analyze_binary ? "/run.g10t" : "/run.log");
  std::ifstream model_file(model_path, std::ios::binary);
  std::ostringstream model_buffer;
  model_buffer << model_file.rdbuf();
  const std::string model_text = std::move(model_buffer).str();
  std::istringstream model_stream(model_text);
  const core::ModelParseResult model = core::parse_model(model_stream);
  if (!model.ok()) {
    std::cerr << model_path << ": " << model.error->message << '\n';
    return kExitParseFailure;
  }

  trace::TraceReadOptions options;
  options.recover = true;  // as g10_analyze: collect the full error list
  rec.lap();
  trace::TraceReader::OpenResult opened =
      trace::TraceReader::open(log_path, options);
  if (!opened.ok()) {
    std::cerr << *opened.error << '\n';
    return kExitParseFailure;
  }
  const trace::ParseResult log = opened.reader->read();
  rec.span("trace.read_ms");
  const trace::TraceReadStats stats = opened.reader->stats();
  rec.count("trace.records",
            static_cast<double>(log.log.phase_events.size() +
                                log.log.blocking_events.size() +
                                log.log.samples.size()));
  rec.count("trace.blocks_read", static_cast<double>(stats.blocks_read));
  rec.count("trace.blocks_skipped", static_cast<double>(stats.blocks_skipped));
  rec.count("trace.blocks_decoded", static_cast<double>(stats.blocks_decoded));
  if (!log.ok()) {
    if (!args.lenient) {
      std::cerr << log_path << ": " << log.error_count << " malformed\n";
      return kExitParseFailure;
    }
    out << "lenient: skipped " << log.error_count << " malformed line(s)\n";
  }
  out << "parsed " << log.log.phase_events.size() << " phase events, "
      << log.log.blocking_events.size() << " blocking events, "
      << log.log.samples.size() << " monitoring samples\n\n";

  rec.lap();
  lint::LintReport preflight = lint::lint_model_text(model_text, model_path);
  preflight.merge(lint::lint_trace(model.model, log.log, {}, log_path));
  rec.span("lint.preflight_ms");
  rec.count("lint.findings", static_cast<double>(preflight.findings().size()));
  rec.count("lint.errors", static_cast<double>(preflight.error_count()));
  rec.count("lint.warnings", static_cast<double>(preflight.warning_count()));
  std::map<std::string, double> by_rule;
  for (const lint::LintFinding& finding : preflight.findings()) {
    by_rule[finding.rule_id] += 1;
  }
  for (const auto& [rule, n] : by_rule) rec.count("lint.findings." + rule, n);
  if (!preflight.ok()) {
    if (!args.lenient) {
      std::cerr << "preflight failed\n";
      return kExitParseFailure;
    }
    out << "lenient: continuing past " << preflight.error_count()
        << " preflight error(s)\n\n";
  }

  // The stages of core::characterize_checked, one span each.
  const core::ExecutionModel& execution = model.model.execution;
  const core::ResourceModel& resources = model.model.resources;
  core::AnalysisConfig config;
  config.timeslice = args.timeslice;
  core::ExecutionTrace::Options trace_options;
  trace_options.lenient = args.lenient;
  const TimesliceGrid grid(config.timeslice);
  core::CharacterizationResult result;
  result.grid = grid;
  rec.lap();
  try {
    result.trace = core::ExecutionTrace::build(
        execution, resources, log.log.phase_events, log.log.blocking_events,
        trace_options);
  } catch (const CheckError& e) {
    std::cerr << "trace ingestion failed: " << e.what() << '\n';
    return kExitAnalysisError;
  }
  rec.span("grade10.trace.build_ms");
  rec.count("grade10.trace.instances",
            static_cast<double>(result.trace.instances().size()));

  ThreadPool pool(ThreadPool::Options{0, 4096});
  ThreadPool* executor = pool.thread_count() > 1 ? &pool : nullptr;
  core::ResourceTrace::Options monitor_options;
  monitor_options.ignore_unknown_resources =
      trace_options.ignore_unknown_blocking;
  try {
    rec.lap();
    result.monitored =
        core::ResourceTrace::build(resources, log.log.samples, monitor_options);
    rec.span("grade10.trace.monitor_ms");
    result.demand = core::estimate_demand(resources, model.model.rules,
                                          result.trace, grid, executor);
    rec.span("grade10.attribution.demand_ms");
    result.usage = core::attribute_usage(result.demand, result.monitored,
                                         grid, false, executor);
    rec.span("grade10.attribution.attribute_ms");
    result.bottlenecks = core::detect_bottlenecks(result.usage, result.trace,
                                                  grid, config, executor);
    rec.span("grade10.bottleneck.detect_ms");
    core::IssueDetector detector(execution, resources, result.trace, grid,
                                 config);
    result.issues =
        detector.detect(result.usage, result.bottlenecks, executor);
    rec.span("grade10.issues.detect_ms");
  } catch (const CheckError& e) {
    std::cerr << "characterization failed: " << e.what() << '\n';
    return kExitAnalysisError;
  }
  std::size_t leaves = 0;
  for (const core::DemandMatrix& matrix : result.demand) {
    leaves += matrix.leaves.size();
  }
  std::size_t entries = 0;
  for (const core::AttributedResource& resource : result.usage.resources) {
    entries += resource.entries.size();
  }
  rec.count("grade10.attribution.demand_matrices",
            static_cast<double>(result.demand.size()));
  rec.count("grade10.attribution.demand_leaves", static_cast<double>(leaves));
  rec.count("grade10.attribution.entries", static_cast<double>(entries));
  rec.count("grade10.issues.count", static_cast<double>(result.issues.size()));

  rec.lap();
  const std::vector<std::string>& warnings = result.trace.warnings();
  if (!warnings.empty()) {
    out << "lenient repairs (" << result.trace.degraded_count()
        << " degraded instances):\n";
    for (const auto& warning : warnings) out << "  " << warning << '\n';
    out << '\n';
  }
  core::render_profile(out, result.trace, resources, result.usage,
                       result.grid);
  out << '\n';
  core::render_bottlenecks(out, resources, result.bottlenecks);
  out << '\n';
  core::render_issues(out, result.issues);
  out << '\n';
  const auto profile = core::build_phase_profile(
      result.trace, result.usage, result.bottlenecks, result.grid);
  core::render_phase_profile(out, execution, resources, profile);
  out << '\n';
  const core::ReplaySimulator simulator(execution, result.trace);
  const core::ReplaySchedule schedule =
      simulator.simulate(simulator.recorded_durations());
  core::render_critical_path(out, execution, result.trace, simulator,
                             schedule);
  out << '\n';
  core::render_diagnostics(out, resources,
                           core::compute_resource_diagnostics(result.usage),
                           core::compute_machine_skew(result.usage));
  out.flush();
  rec.span("grade10.report.render_ms");
  return kExitOk;
}

int run(const Args& args) {
  Recorder rec;
  int rc = generate(args, rec);
  if (rc != kExitOk) return rc;
  rec.close_total("run");
  std::ofstream report(args.report);
  rc = analyze(args, rec, report);
  if (rc != kExitOk) return rc;
  rec.close_total("analyze");
  rec.print(std::cout);
  return kExitOk;
}

}  // namespace
}  // namespace g10

int main(int argc, char** argv) {
  const auto args = g10::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: g10_layer_trace --engine pregel|gas --dataset "
                 "rmat:<scale> --out <dir> --report <file> [...]\n";
    return g10::kExitBadArgs;
  }
  try {
    return g10::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return g10::kExitInternalError;
  }
}
