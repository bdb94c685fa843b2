// g10_ensemble — crash-safe Monte-Carlo scenario driver.
//
//   g10_ensemble --out <dir>
//       [--engines pregel,gas] [--algorithm pagerank|bfs|wcc|cdlp|sssp]
//       [--dataset rmat:<scale>|datagen:<vertices>]
//       [--workers N] [--cores N] [--iterations K]
//       [--seeds N] [--seed-base B]
//       [--faults <spec>]...       explicit fault axis ("none" = clean run)
//       [--sampled-faults N]       per-seed random-but-valid fault specs
//       [--jitter F] [--sync-bug]
//       [--threads N] [--deadline-s F] [--max-attempts N]
//       [--jobs N] [--isolate] [--rlimit-as-mb N] [--rlimit-cpu-s F]
//       [--hb-timeout-s F] [--wedge-timeout-s F] [--crash-budget N]
//       [--limit N] [--resume] [--quiet]
//
// Expands (engines × seeds × fault axis) into concrete scenarios and
// journals every completed run to <out>/journal.jsonl (fsync'd, one JSON
// line per run). The aggregate report — outcome counts, coverage, sync-bug
// rediscovery rate with Wilson CI, issue rates and impact quantiles,
// per-phase bottleneck frequencies — is written to <out>/report.txt and
// <out>/report.json and printed.
//
// Execution modes (DESIGN.md §15):
//   default      in-process thread pool (--threads N)
//   --jobs N     supervisor/worker: N worker *processes*, each running its
//                deterministic shard (scenario hash % N) and appending to
//                the shared journal under O_APPEND. A worker crash
//                (SIGSEGV, OOM kill, wedge) is contained: the supervisor
//                charges it to the in-flight scenario, re-queues it with
//                capped backoff, and respawns the worker. --isolate adds
//                kernel sandboxes (RLIMIT_AS/RLIMIT_CPU) to each worker.
//
// Crash safety: kill anything — a worker, the whole fleet, the supervisor
// itself — and rerun with --resume; the journal is replayed, only missing
// runs are recomputed, and the final report is byte-identical to an
// uninterrupted execution's, at any --jobs level.
//
// SIGTERM/SIGINT cancel in-flight work at the next stage boundary; the
// journal holds every completed run (each append is fsync'd) and the
// process exits kExitInterrupted (6) with the fleet resumable.
//
// Exit codes (src/common/exit_codes.hpp): 0 even for a degraded fleet,
// 2 for bad arguments, bad --jobs/--isolate combinations, or a fresh start
// over a non-empty journal, 3 for an unparseable --faults spec,
// 6 when interrupted by SIGTERM/SIGINT, 1 for internal errors.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/programs.hpp"
#include "common/check.hpp"
#include "common/exit_codes.hpp"
#include "common/strings.hpp"
#include "ensemble/driver.hpp"
#include "ensemble/run_grade10.hpp"
#include "ensemble/supervisor.hpp"
#include "ensemble/worker.hpp"
#include "graph/generators.hpp"

namespace g10 {
namespace {

// Raised by the SIGTERM/SIGINT handler (and by the orphan detector in
// worker mode). std::atomic<bool> is lock-free here, so the store is safe
// in a signal handler.
std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true, std::memory_order_release); }

void install_stop_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

struct Args {
  ensemble::ScenarioMatrix matrix;
  std::string out;
  int seeds = 16;
  std::uint64_t seed_base = 1;
  std::size_t threads = 0;
  bool threads_given = false;
  ensemble::RetryPolicy retry;
  std::size_t limit = 0;
  bool resume = false;
  bool quiet = false;

  // Supervisor mode (--jobs N).
  std::size_t jobs = 0;  ///< 0 = in-process mode
  bool isolate = false;
  std::uint64_t rlimit_as_mb = 8192;
  double rlimit_cpu_s = 0.0;
  double hb_timeout_s = 5.0;
  double wedge_timeout_s = -1.0;  ///< <0 = derive from --deadline-s
  int crash_budget = 3;

  // Worker mode (hidden; the supervisor spawns us with these).
  bool worker = false;
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;
  int status_fd = -1;
  std::vector<std::uint64_t> defer_keys;
};

int usage() {
  std::cerr
      << "usage: g10_ensemble --out <dir>\n"
         "           [--engines pregel,gas] "
         "[--algorithm pagerank|bfs|wcc|cdlp|sssp]\n"
         "           [--dataset rmat:<scale>|datagen:<vertices>]\n"
         "           [--workers N] [--cores N] [--iterations K]\n"
         "           [--seeds N] [--seed-base B]\n"
         "           [--faults <spec>]... [--sampled-faults N]\n"
         "           [--jitter F] [--sync-bug]\n"
         "           [--threads N] [--deadline-s F] [--max-attempts N]\n"
         "           [--jobs N] [--isolate] [--rlimit-as-mb N] "
         "[--rlimit-cpu-s F]\n"
         "           [--hb-timeout-s F] [--wedge-timeout-s F] "
         "[--crash-budget N]\n"
         "           [--limit N] [--resume] [--quiet]\n"
         "notes: --isolate requires --jobs; --jobs excludes --threads and "
         "--limit\n";
  return kExitBadArgs;
}

std::optional<int> parse_faults_axis(const std::string& text, Args& args) {
  if (text == "none") {
    args.matrix.fault_specs.emplace_back();
    return std::nullopt;
  }
  std::string error;
  const auto spec = sim::FaultSpec::parse(text, &error);
  if (!spec) {
    std::cerr << "bad --faults spec '" << text << "': " << error << '\n';
    return kExitParseFailure;
  }
  args.matrix.fault_specs.push_back(*spec);
  return std::nullopt;
}

void write_reports(const std::string& out_dir,
                   const ensemble::AggregateReport& report) {
  const std::string text = ensemble::render_text(report);
  const std::string json = ensemble::render_json(report);
  {
    std::ofstream out(out_dir + "/report.txt", std::ios::binary);
    out << text;
  }
  {
    std::ofstream out(out_dir + "/report.json", std::ios::binary);
    out << json;
  }
  std::cout << text;
  std::cout << "wrote " << out_dir << "/report.txt and " << out_dir
            << "/report.json\n";
}

// Test-only fault injection for the supervisor's crash containment
// (documented in DESIGN.md §15, used by tests and the CI chaos fleet):
// G10_ENSEMBLE_TEST_CRASH="<action>:<scenario key substring>" makes a
// worker act out when it starts a matching scenario.
//   segv:<sub>   raise SIGSEGV (an attributable hard crash)
//   kill:<sub>   raise SIGKILL (what the OOM killer delivers)
//   spin:<sub>   wedge forever with heartbeats still flowing
//                (only --wedge-timeout-s can reclaim the worker)
void maybe_crash_for_test(const ensemble::Scenario& scenario) {
  const char* spec = std::getenv("G10_ENSEMBLE_TEST_CRASH");
  if (spec == nullptr) return;
  const std::string_view text(spec);
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) return;
  const std::string_view action = text.substr(0, colon);
  const std::string_view needle = text.substr(colon + 1);
  if (needle.empty() ||
      scenario.key().find(needle) == std::string::npos) {
    return;
  }
  if (action == "segv") {
    // The default disposition, so the worker dies by the signal even where
    // a sanitizer's handler would turn it into an exit code.
    ::signal(SIGSEGV, SIG_DFL);
    ::raise(SIGSEGV);
  }
  if (action == "kill") ::raise(SIGKILL);
  if (action == "spin") {
    for (;;) ::usleep(50000);
  }
}

// Hidden worker entry point: run one shard of the fleet under a
// supervisor, reporting liveness and progress over the inherited status
// pipe. The work list is derived locally from (matrix, journal, shard), so
// a respawned worker resumes exactly where its predecessor died.
int run_worker(const Args& args) {
  // EPIPE (not SIGPIPE death) on a status write is the orphan detector: it
  // means the supervisor is gone, and the heartbeat thread then raises the
  // stop flag so in-flight work cancels instead of running unsupervised.
  ::signal(SIGPIPE, SIG_IGN);

  ensemble::StatusChannel channel(args.status_fd);
  ensemble::Heartbeat heartbeat(&channel, 0.25, &g_stop);

  ensemble::EnsembleOptions options;
  options.journal_path = args.out + "/journal.jsonl";
  options.resume = true;  // the shared journal always has siblings' entries
  options.threads = 1;    // process-level parallelism only
  options.retry = args.retry;
  options.shard_count = args.shard_count;
  options.shard_index = args.shard_index;
  options.defer_keys = args.defer_keys;
  options.stop = &g_stop;
  options.on_start = [&channel](const ensemble::Scenario& scenario) {
    channel.start(scenario.hash());
    maybe_crash_for_test(scenario);
  };
  options.on_run = [&channel](const ensemble::JournalEntry& entry) {
    channel.done(entry.key, entry.outcome);
  };

  ensemble::run_ensemble(args.matrix, ensemble::make_grade10_runner(),
                         options);
  return g_stop.load(std::memory_order_acquire) ? kExitInterrupted : kExitOk;
}

// The worker re-runs this same binary; its argv is the supervisor's argv
// minus the supervisor-only flags, plus the hidden worker flags. argv[0]
// is resolved through /proc/self/exe so the fleet works regardless of how
// the supervisor was invoked.
std::vector<std::string> worker_base_argv(
    const std::vector<std::string>& original) {
  std::vector<std::string> base;
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  base.push_back(ec ? original[0] : exe.string());
  for (std::size_t i = 1; i < original.size(); ++i) {
    const std::string& arg = original[i];
    if (arg == "--isolate" || arg == "--resume" || arg == "--quiet") {
      continue;
    }
    if (arg == "--jobs" || arg == "--rlimit-as-mb" ||
        arg == "--rlimit-cpu-s" || arg == "--hb-timeout-s" ||
        arg == "--wedge-timeout-s" || arg == "--crash-budget") {
      ++i;  // skip the flag's value too
      continue;
    }
    base.push_back(arg);
  }
  base.push_back("--resume");
  base.push_back("--quiet");
  return base;
}

int run_supervisor(const Args& args,
                   const std::vector<std::string>& original_argv) {
  std::filesystem::create_directories(args.out);

  ensemble::SupervisorOptions options;
  options.journal_path = args.out + "/journal.jsonl";
  options.jobs = args.jobs;
  options.resume = args.resume;
  options.heartbeat_timeout_s = args.hb_timeout_s;
  // Default wedge ceiling: give the worker's own watchdog + retries room
  // to classify a timeout cooperatively first; the supervisor's kill is
  // the backstop for runs that ignore their CancelToken.
  options.wedge_timeout_s =
      args.wedge_timeout_s >= 0.0
          ? args.wedge_timeout_s
          : (args.retry.deadline_seconds > 0.0
                 ? args.retry.deadline_seconds * args.retry.max_attempts +
                       10.0
                 : 0.0);
  options.max_attempts = args.retry.max_attempts;
  options.crash_budget = args.crash_budget;
  if (args.isolate) {
    options.limits.address_space_bytes =
        args.rlimit_as_mb * 1024ull * 1024ull;
    options.limits.cpu_seconds = args.rlimit_cpu_s;
  }
  options.stop = &g_stop;
  if (!args.quiet) {
    options.on_event = [](const std::string& message) {
      std::cerr << "supervisor: " << message << '\n';
    };
  }

  const std::vector<std::string> base = worker_base_argv(original_argv);
  const std::size_t jobs = args.jobs;
  options.command = [base, jobs](
                        std::size_t shard, int /*status_fd is always 3*/,
                        const std::vector<std::uint64_t>& defer) {
    std::vector<std::string> argv = base;
    argv.push_back("--worker-shard");
    argv.push_back(std::to_string(shard) + ":" + std::to_string(jobs));
    argv.push_back("--status-fd");
    argv.push_back("3");
    for (const std::uint64_t key : defer) {
      argv.push_back("--defer-key");
      argv.push_back(ensemble::format_key(key));
    }
    return argv;
  };

  const std::vector<ensemble::Scenario> scenarios = args.matrix.expand();
  if (!args.quiet) {
    std::cerr << "ensemble: " << scenarios.size() << " scenarios -> "
              << options.journal_path << " (" << args.jobs << " worker "
              << "processes" << (args.isolate ? ", isolated" : "") << ")\n";
  }

  const ensemble::SupervisorStats stats =
      ensemble::run_supervised(args.matrix, options);

  if (stats.interrupted) {
    std::cerr << "interrupted: workers terminated, journal is flushed; "
                 "rerun with --resume\n";
    return kExitInterrupted;
  }

  // Identical aggregation path to in-process mode: reduce a fresh read of
  // the journal. Byte-identical reports at any --jobs level follow.
  const ensemble::AggregateReport report =
      ensemble::aggregate(scenarios,
                          ensemble::read_journal(options.journal_path));
  write_reports(args.out, report);

  const ensemble::JournalReplay replay =
      ensemble::read_journal(options.journal_path);
  std::size_t journaled = 0;
  for (const ensemble::Scenario& s : scenarios) {
    for (const ensemble::JournalEntry& entry : replay.entries) {
      if (entry.key == s.hash()) {
        ++journaled;
        break;
      }
    }
  }
  const std::size_t remaining = scenarios.size() - journaled;
  std::cout << "workers=" << stats.spawned << " crashes=" << stats.crashes
            << " wedges=" << stats.wedges << " finalized=" << stats.finalized
            << " poisoned=" << stats.poisoned
            << " abandoned_shards=" << stats.abandoned_shards << "\n";
  if (remaining > 0) {
    std::cout << "rerun with --resume to finish the remaining " << remaining
              << " runs\n";
  }
  return kExitOk;
}

int run(const Args& args) {
  ensemble::EnsembleOptions options;
  options.journal_path = args.out + "/journal.jsonl";
  options.resume = args.resume;
  options.threads = args.threads;
  options.retry = args.retry;
  options.limit = args.limit;
  options.stop = &g_stop;

  std::filesystem::create_directories(args.out);

  const std::vector<ensemble::Scenario> scenarios = args.matrix.expand();
  std::atomic<std::size_t> done{0};
  if (!args.quiet) {
    std::cerr << "ensemble: " << scenarios.size() << " scenarios -> "
              << options.journal_path << '\n';
    options.on_run = [&](const ensemble::JournalEntry& entry) {
      const std::size_t n = done.fetch_add(1, std::memory_order_relaxed) + 1;
      std::string line = "[" + std::to_string(n) + "] " +
                         std::string(ensemble::outcome_name(entry.outcome)) +
                         " " + entry.scenario + "\n";
      std::cerr << line;  // one write per line: safe to interleave
    };
  }

  const ensemble::EnsembleOutcome outcome = ensemble::run_ensemble(
      args.matrix, ensemble::make_grade10_runner(), options);

  if (g_stop.load(std::memory_order_acquire)) {
    // Every completed run was fsync'd into the journal by its append;
    // nothing in flight was journaled, so the fleet resumes cleanly.
    std::cerr << "interrupted: journal is flushed; rerun with --resume\n";
    return kExitInterrupted;
  }

  write_reports(args.out, outcome.report);
  std::cout << "executed=" << outcome.executed << " reused=" << outcome.reused
            << " remaining=" << outcome.remaining << "\n";
  if (outcome.remaining > 0) {
    std::cout << "rerun with --resume to finish the remaining "
              << outcome.remaining << " runs\n";
  }
  return kExitOk;
}

int main(int argc, char** argv) {
  Args args;
  std::vector<std::string> original_argv(argv, argv + argc);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--sync-bug") {
      args.matrix.sync_bug = true;
      continue;
    }
    if (arg == "--resume") {
      args.resume = true;
      continue;
    }
    if (arg == "--quiet") {
      args.quiet = true;
      continue;
    }
    if (arg == "--isolate") {
      args.isolate = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    // Sets `out` to the value when it is an int >= lo.
    const auto count = [&](int& out, int lo) {
      const auto n = parse_int_at_least(v, lo);
      if (n) out = *n;
      return n.has_value();
    };
    if (arg == "--out") {
      args.out = v;
    } else if (arg == "--engines") {
      args.matrix.engines.clear();
      for (const auto part : split(v, ',')) {
        if (part != "pregel" && part != "gas") return usage();
        args.matrix.engines.emplace_back(part);
      }
      if (args.matrix.engines.empty()) return usage();
    } else if (arg == "--algorithm") {
      if (!algorithms::is_algorithm_name(v)) return usage();
      args.matrix.algorithm = v;
    } else if (arg == "--dataset") {
      // As g10_run: a bad size is a bad argument, an unknown kind a bad
      // spec.
      const graph::DatasetSpec spec = graph::parse_dataset(v);
      if (spec.kind == graph::DatasetSpec::Kind::kUnknown) {
        std::cerr << "unknown dataset spec: " << v << '\n';
        return kExitParseFailure;
      }
      if (!spec.size) return usage();
      args.matrix.dataset = v;
    } else if (arg == "--workers") {
      if (!count(args.matrix.workers, 1)) return usage();
    } else if (arg == "--cores") {
      if (!count(args.matrix.cores, 1)) return usage();
    } else if (arg == "--iterations") {
      if (!count(args.matrix.iterations, 1)) return usage();
    } else if (arg == "--seeds") {
      if (!count(args.seeds, 1)) return usage();
    } else if (arg == "--seed-base") {
      const auto base = parse_int(v);
      if (!base || *base < 0) return usage();
      args.seed_base = static_cast<std::uint64_t>(*base);
    } else if (arg == "--faults") {
      if (const auto code = parse_faults_axis(v, args)) return *code;
    } else if (arg == "--sampled-faults") {
      if (!count(args.matrix.sampled_fault_specs, 0)) return usage();
    } else if (arg == "--jitter") {
      const auto f = parse_double(v);
      if (!f || *f < 0.0 || *f >= 1.0) return usage();
      args.matrix.jitter = *f;
    } else if (arg == "--threads") {
      const auto n = parse_int(v);
      if (!n || *n < 0) return usage();
      args.threads = static_cast<std::size_t>(*n);
      args.threads_given = true;
    } else if (arg == "--deadline-s") {
      const auto s = parse_double(v);
      if (!s || *s <= 0.0) return usage();
      args.retry.deadline_seconds = *s;
    } else if (arg == "--max-attempts") {
      if (!count(args.retry.max_attempts, 1)) return usage();
    } else if (arg == "--limit") {
      const auto n = parse_int(v);
      if (!n || *n < 1) return usage();
      args.limit = static_cast<std::size_t>(*n);
    } else if (arg == "--jobs") {
      const auto n = parse_int(v);
      if (!n || *n < 1) return usage();
      args.jobs = static_cast<std::size_t>(*n);
    } else if (arg == "--rlimit-as-mb") {
      const auto n = parse_int(v);
      if (!n || *n < 1) return usage();
      args.rlimit_as_mb = static_cast<std::uint64_t>(*n);
    } else if (arg == "--rlimit-cpu-s") {
      const auto s = parse_double(v);
      if (!s || *s < 0.0) return usage();
      args.rlimit_cpu_s = *s;
    } else if (arg == "--hb-timeout-s") {
      const auto s = parse_double(v);
      if (!s || *s <= 0.0) return usage();
      args.hb_timeout_s = *s;
    } else if (arg == "--wedge-timeout-s") {
      const auto s = parse_double(v);
      if (!s || *s < 0.0) return usage();
      args.wedge_timeout_s = *s;
    } else if (arg == "--crash-budget") {
      if (!count(args.crash_budget, 1)) return usage();
    } else if (arg == "--worker-shard") {
      const std::size_t colon = v.find(':');
      if (colon == std::string::npos) return usage();
      const auto index = parse_int(v.substr(0, colon));
      const auto count = parse_int(v.substr(colon + 1));
      if (!index || !count || *index < 0 || *count < 1 || *index >= *count) {
        return usage();
      }
      args.worker = true;
      args.shard_index = static_cast<std::size_t>(*index);
      args.shard_count = static_cast<std::size_t>(*count);
    } else if (arg == "--status-fd") {
      if (!count(args.status_fd, 0)) return usage();
    } else if (arg == "--defer-key") {
      const auto key = ensemble::parse_key(v);
      if (!key) return usage();
      args.defer_keys.push_back(*key);
    } else {
      return usage();
    }
  }
  if (args.out.empty()) return usage();
  // Mode exclusions (exit 2): --isolate only sandboxes worker processes;
  // --threads and --limit configure the in-process pool, which --jobs
  // replaces; a worker cannot itself be a supervisor.
  if (args.isolate && args.jobs == 0) return usage();
  if (args.jobs > 0 && (args.threads_given || args.limit > 0)) return usage();
  if (args.worker && args.jobs > 0) return usage();
  args.matrix.seed_range(args.seed_base, args.seeds);

  install_stop_handlers();

  try {
    if (args.worker) return run_worker(args);
    if (args.jobs > 0) return run_supervisor(args, original_argv);
    return run(args);
  } catch (const CheckError& e) {
    // Matrix/journal preconditions (e.g. a fresh start over a non-empty
    // journal) are usage errors, not crashes.
    std::cerr << "error: " << e.what() << '\n';
    return kExitBadArgs;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitInternalError;
  }
}

}  // namespace
}  // namespace g10

int main(int argc, char** argv) { return g10::main(argc, argv); }
