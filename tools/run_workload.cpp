// g10_run — run a workload on one of the bundled engines and dump the
// artifacts a real deployment would collect: the execution/blocking log,
// the monitoring samples, and the matching expert model file.
//
//   g10_run [flags]          (g10_run --help lists them and exits 2)
//
// Each engine delivers remote traffic one way (DESIGN.md §13): Pregel
// coalesces each worker's sends into per-destination frames, GAS sends one
// transfer per destination at its exchange barrier. The `comm:` summary line
// counts the reliable-channel plans and Pregel's frame flushes.
//
// --faults injects failures from a deterministic schedule, e.g.
//   crash:w2@40%              worker 2 crashes 40% into the nominal run
//   slow:w1@2s+3s:x0.5        worker 1 at half speed for 3s starting at 2s
//   nic:w0@10%+30%:x0.25:loss=0.2   NIC degraded + 20% message loss
//   part:w0-w2@30%+20%        w0 and w2 cannot exchange messages for a while
//   drop:w3@30%+20%           worker 3's monitoring samples dropped
// Multiple events are comma- or semicolon-separated. Both engines ride out
// every kind via the reliable channel (backoff retransmit), the heartbeat
// failure detector, and checkpoint/restart recovery. The injected spec is
// recorded in the log as a META record so offline tools can cross-check the
// trace.
//
// The run itself — engine config, engine, expert model, samples, sampler
// dropout — is workload::run, the recipe the ensemble runner shares. The
// dumped directory can be analyzed offline with g10_analyze.
//
// --threads N sets the host threads the engines' per-step passes (Pregel's
// superstep, GAS's iteration) fan out on (0 = auto: G10_THREADS, else the hardware count). It never
// changes an output byte.
//
// --det-check N is the runtime determinism oracle (DESIGN.md §14): instead
// of dumping logs, it executes the workload N times in one process, at host
// thread counts 1, 2 and the resolved --threads in turn, folds every
// artifact stream of each execution into per-phase-path FNV hashes
// (trace/det_fold.hpp), and compares. Each run is one discrete-event
// simulation whose per-step passes fan out on the host, so the executions
// catch a parallel pass that disagrees with the serial one, entropy,
// ambient time, and address/allocation-order nondeterminism (heap layout
// differs between executions) — anything that makes a "deterministic" run
// disagree with itself. On divergence it names the first divergent phase
// path and exits 5 (analysis error).
//
// SIGTERM/SIGINT cancel the run at the next stage boundary (dataset →
// engine → samples → dump; between executions under --det-check): whatever
// artifact files were already completely written stay flushed on disk, and
// the process exits kExitInterrupted (6).
//
// Exit codes (src/common/exit_codes.hpp): 0 success, 2 bad arguments,
// 3 unparseable --faults/--dataset spec, 4 fault abort (spec inconsistent
// with the cluster, or the engine aborted under active faults),
// 6 when interrupted by SIGTERM/SIGINT, 1 internal.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/det_hash.hpp"
#include "common/exit_codes.hpp"
#include "common/thread_pool.hpp"
#include "grade10/model/model_io.hpp"
#include "graph/generators.hpp"
#include "trace/det_fold.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"
#include "workload/workload.hpp"

namespace g10 {
namespace {

/// True (after printing the diagnostic) when SIGTERM/SIGINT asked the run
/// to wind down: the engines cancel at stage boundaries. Completed
/// artifact files are already flushed by their stream destructors.
bool interrupted_at(const char* boundary) {
  if (!cli::stop_requested().load(std::memory_order_acquire)) return false;
  std::cerr << "interrupted before " << boundary
            << "; completed artifacts are flushed\n";
  return true;
}

constexpr std::string_view kTraceFormats[] = {"text", "binary", "both"};

struct Args {
  workload::Spec spec;  ///< every field but the fault spec, parsed in run()
  std::string dataset = "rmat:14";
  std::string out = "g10_run_out";
  std::string faults;
  std::int64_t monitor_ms = workload::Spec{}.monitor_interval / kMillisecond;
  int det_check = 0;  ///< 0 = off; otherwise number of executions (>= 2)
  int threads = 0;    ///< engine host threads; 0 = auto
  std::string trace_format = "text";  ///< text | binary | both
};

cli::Table flag_table(Args& args) {
  workload::Spec& spec = args.spec;
  cli::Table table{"g10_run [flags]",
                   workload::run_flags(spec.algorithm, args.dataset,
                                       spec.workers, spec.cores,
                                       spec.iterations, spec.sync_bug)};
  table.flags.insert(
      table.flags.end(),
      {{"--engine", cli::one_of(&spec.engine, workload::kEngineNames),
        "engine to simulate"},
       {"--out <dir>", &args.out, "directory for the dumped artifacts"},
       {"--seed S", &spec.seed, "seed of the jitter and fault schedule", 0},
       {"--monitor-ms MS", &args.monitor_ms, "monitoring sample interval", 1,
        std::numeric_limits<DurationNs>::max() / kMillisecond},
       {"--faults <spec>", &args.faults, "fault schedule, e.g. crash:w2@40%"},
       {"--crash-log",
        cli::one_of(&spec.crash_log,
                    {{"reconciled", engine::CrashLogStyle::kReconciled},
                     {"truncated", engine::CrashLogStyle::kTruncated}}),
        "how a crashed worker's log ends"},
       {"--threads N", &args.threads, "engine host threads, 0 = auto", 0,
        cli::kMaxConcurrency},
       {"--det-check N", &args.det_check,
        "compare N runs at 1, 2 and --threads host threads", 2},
       {"--trace-format", cli::one_of(&args.trace_format, kTraceFormats),
        "trace file(s) to write"}});
  return table;
}

/// Runs the workload once. Returns kExitOk and fills `out`, or the exit code
/// to terminate with: an engine that throws under injected faults is a
/// fault abort.
int execute(const workload::Spec& spec, const graph::Graph& graph,
            workload::Result& out) {
  try {
    out = workload::run(spec, graph);
  } catch (const std::exception& e) {
    if (spec.faults.empty()) throw;
    std::cerr << "engine aborted under injected faults: " << e.what() << '\n';
    return kExitFaultAbort;
  }
  return kExitOk;
}

/// Test hook for the determinism oracle: when G10_DET_INJECT=<substring> is
/// set, the hash of the first phase path containing the substring is
/// perturbed in the second execution only, so tests can verify the oracle
/// names the right phase and exits 5. (Tool mains are srclint's sanctioned
/// home for getenv.)
void maybe_inject_divergence(DetSummary& summary, int execution) {
  const char* target = std::getenv("G10_DET_INJECT");
  if (target == nullptr || *target == '\0' || execution != 1) return;
  for (DetSummary::Entry& entry : summary.phases) {
    if (entry.path.find(target) != std::string::npos) {
      entry.hash ^= 1;
      summary.overall ^= 1;
      return;
    }
  }
}

int det_check(const Args& args, const workload::Spec& spec,
              const graph::Graph& graph) {
  const std::size_t counts[] = {
      1, 2, ThreadPool::resolve_threads(spec.host_threads)};
  std::vector<DetSummary> summaries;
  for (int execution = 0; execution < args.det_check; ++execution) {
    if (interrupted_at("the next det-check execution")) {
      return kExitInterrupted;
    }
    workload::Spec at_threads = spec;
    at_threads.host_threads = counts[execution % 3];
    workload::Result run;
    const int rc = execute(at_threads, graph, run);
    if (rc != kExitOk) return rc;
    DetHasher hasher;
    trace::fold_events(hasher, run.log);
    trace::fold_run(hasher, run.artifacts);
    trace::fold_samples(hasher, run.log.samples);
    DetSummary summary = hasher.summary();
    maybe_inject_divergence(summary, execution);
    summaries.push_back(std::move(summary));
  }

  const DetSummary& baseline = summaries.front();
  std::cout << "det-check: " << args.det_check << " executions of "
            << spec.engine << '/' << spec.algorithm << " at host threads";
  for (int i = 0; i < std::min(args.det_check, 3); ++i) {
    std::cout << (i == 0 ? " " : ", ") << counts[i];
  }
  std::cout << ", "
            << baseline.phases.size() << " phase paths, "
            << baseline.total_folds << " folds per execution\n";
  for (std::size_t i = 1; i < summaries.size(); ++i) {
    const auto divergence = first_divergence(baseline, summaries[i]);
    if (!divergence) continue;
    std::cout << "det-check: DIVERGENCE in execution " << (i + 1)
              << ": phase '" << divergence->path << "': "
              << divergence->detail << " (0x" << std::hex << divergence->lhs
              << " vs 0x" << divergence->rhs << std::dec << ")\n";
    return kExitAnalysisError;
  }
  std::cout << "det-check: identical per-phase hashes, overall 0x"
            << std::hex << baseline.overall << std::dec << '\n';
  return kExitOk;
}

int run(const Args& args) {
  workload::Spec spec = args.spec;
  spec.monitor_interval = args.monitor_ms * kMillisecond;
  spec.host_threads = static_cast<std::size_t>(args.threads);
  sim::FaultSpec& fault_spec = spec.faults;
  if (!args.faults.empty()) {
    std::string error;
    const auto parsed = sim::FaultSpec::parse(args.faults, &error);
    if (!parsed) {
      std::cerr << "bad --faults spec: " << error << '\n';
      return kExitParseFailure;
    }
    fault_spec = *parsed;
    try {
      fault_spec.validate(spec.workers);
    } catch (const CheckError& e) {
      // The spec parses but names faults the cluster cannot host (e.g. a
      // crash on a machine the cluster doesn't have): a fault abort, not a
      // syntax problem.
      std::cerr << "fault spec rejected: " << e.what() << '\n';
      return kExitFaultAbort;
    }
  }

  const graph::Graph graph =
      graph::generate_dataset(graph::parse_dataset(args.dataset));
  std::cout << "dataset: " << graph.vertex_count() << " vertices, "
            << graph.edge_count() << " edges\n";

  if (args.det_check > 0) return det_check(args, spec, graph);

  if (interrupted_at("the engine run")) return kExitInterrupted;
  workload::Result run;
  const int rc = execute(spec, graph, run);
  if (rc != kExitOk) return rc;
  if (interrupted_at("the artifact dump")) return kExitInterrupted;
  const trace::RunArtifacts& artifacts = run.artifacts;
  trace::NodeLog& log = run.log;
  if (fault_spec.has_kind(sim::FaultKind::kSampleDrop)) {
    std::cout << "sampler dropout: " << run.dropped_samples << " of "
              << (log.samples.size() + run.dropped_samples)
              << " samples lost\n";
  }

  std::filesystem::create_directories(args.out);
  if (!fault_spec.empty()) {
    log.meta.emplace_back("faults", fault_spec.to_string());
  }
  const bool want_text = args.trace_format != "binary";
  const bool want_binary = args.trace_format != "text";
  // Both writers take the logger's hand-over as it is. A large stream
  // buffer turns the many small record writes into a few big ones;
  // fault-injected runs can dump millions of records.
  if (want_text) {
    std::vector<char> buffer(1 << 20);
    std::ofstream text_file;
    text_file.rdbuf()->pubsetbuf(buffer.data(),
                                 static_cast<std::streamsize>(buffer.size()));
    text_file.open(args.out + "/run.log");
    trace::write_log(text_file, log);
  }
  if (want_binary) {
    std::string error;
    if (!trace::write_g10t_file(args.out + "/run.g10t", log, {}, &error)) {
      std::cerr << error << '\n';
      return kExitInternalError;
    }
  }
  {
    std::ofstream model(args.out + "/model.g10");
    core::write_model(model, run.model.execution, run.model.resources,
                      run.model.tuned_rules);
  }
  std::cout << "makespan: " << to_seconds(artifacts.makespan) << " s\n";
  std::cout << "comm: " << artifacts.comm.remote_bytes_total
            << " remote bytes, " << artifacts.comm.channel_plans
            << " channel plans, " << artifacts.comm.batch_flushes
            << " batch flushes\n";
  const std::string trace_name =
      want_text ? "/run.log" : "/run.g10t";
  std::cout << "wrote " << args.out << trace_name
            << (want_text && want_binary ? " + /run.g10t (" : " (")
            << log.phase_events.size() << " phase events, "
            << log.blocking_events.size() << " blocking events, "
            << log.samples.size() << " samples) and "
            << args.out
            << "/model.g10\n";
  std::cout << "analyze with: g10_analyze --model " << args.out
            << "/model.g10 --log " << args.out << trace_name;
  if (spec.crash_log == engine::CrashLogStyle::kTruncated) {
    // A truncated crash log has BEGIN-without-END records by design; only
    // the lenient parser repairs those.
    std::cout << " --lenient";
  }
  if (!fault_spec.empty()) {
    std::cout << "\nfaults injected: " << fault_spec.to_string();
  }
  std::cout << '\n';
  return kExitOk;
}

}  // namespace
}  // namespace g10

int main(int argc, char** argv) {
  g10::Args args;
  if (const int rc = g10::cli::parse(g10::flag_table(args), argc, argv)) {
    return rc;
  }
  g10::cli::install_stop_handlers();
  try {
    return g10::run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return g10::kExitInternalError;
  }
}
