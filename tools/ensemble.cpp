// g10_ensemble — crash-safe Monte-Carlo scenario driver.
//
//   g10_ensemble --out <dir> [flags]   (--help lists them and exits 2)
//
// Expands (engines × seeds × fault axis) into concrete scenarios and
// journals every completed run to <out>/journal.jsonl (fsync'd, one JSON
// line per run). The aggregate report — outcome counts, coverage, sync-bug
// rediscovery rate with Wilson CI, issue rates and impact quantiles,
// per-phase bottleneck frequencies — is written to <out>/report.txt and
// <out>/report.json and printed.
//
// One execution path (DESIGN.md §15): a supervisor and --jobs N worker
// processes (default: G10_THREADS or the hardware thread count). Each
// worker runs its deterministic shard (scenario hash % N) one scenario at
// a time and appends to the shared journal under O_APPEND. A worker crash
// (SIGSEGV, OOM kill) or wedge (a run past --deadline-s) is contained: the
// supervisor charges it to the in-flight scenario, re-queues it with
// capped backoff, and respawns the worker. --rlimit-as-mb and
// --rlimit-cpu-s put each worker in kernel sandboxes (RLIMIT_AS,
// RLIMIT_CPU); neither is set by default.
//
// Crash safety: kill anything — a worker, the whole fleet, the supervisor
// itself — and rerun with --resume; the journal is replayed, only missing
// runs are recomputed, and the final report is byte-identical to an
// uninterrupted execution's, at any --jobs level. Workers die with their
// supervisor, so a killed fleet leaves no process behind.
//
// SIGTERM/SIGINT terminate the workers; the journal holds every completed
// run (each append is fsync'd) and the process exits kExitInterrupted (6)
// with the fleet resumable.
//
// Exit codes (src/common/exit_codes.hpp): 0 even for a degraded fleet,
// 2 for bad arguments or a fresh start over a non-empty journal, 3 for an
// unparseable --faults spec, 6 when interrupted by SIGTERM/SIGINT, 1 for
// internal errors.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "ensemble/aggregate.hpp"
#include "ensemble/driver.hpp"
#include "ensemble/run_grade10.hpp"
#include "ensemble/supervisor.hpp"
#include "ensemble/worker.hpp"
#include "workload/workload.hpp"

namespace g10 {
namespace {

struct Args {
  ensemble::ScenarioMatrix matrix;
  std::string out;
  int seeds = 16;
  std::uint64_t seed_base = 1;
  bool resume = false;
  bool quiet = false;

  // Supervisor.
  int jobs = 0;  ///< 0 = not given: ThreadPool::resolve_threads
  std::uint64_t rlimit_as_mb = 0;  ///< 0 = no address-space limit
  ensemble::SupervisorOptions supervisor;  ///< the rest of its flags

  // Worker mode (hidden; the supervisor spawns us with these).
  bool worker = false;
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;
  int status_fd = -1;
  std::vector<std::uint64_t> defer_keys;
};

/// The flags that say what the fleet is. A worker process gets exactly
/// these from its supervisor's command line.
std::vector<cli::Flag> fleet_flags(Args& args) {
  ensemble::ScenarioMatrix& m = args.matrix;
  std::vector<cli::Flag> flags = workload::run_flags(
      m.algorithm, m.dataset, m.workers, m.cores, m.iterations, m.sync_bug);
  const auto set_engines = [&m](const std::string& value) {
    m.engines.clear();
    for (const std::string_view name : split(value, ',')) {
      if (std::ranges::count(workload::kEngineNames, name) == 0) {
        return kExitBadArgs;
      }
      m.engines.emplace_back(name);
    }
    return kExitOk;
  };
  const auto add_faults = [&m](const std::string& value) {
    std::string error;
    const auto spec = value == "none" ? sim::FaultSpec{}
                                      : sim::FaultSpec::parse(value, &error);
    if (!spec) {
      std::cerr << "bad --faults spec '" << value << "': " << error << '\n';
      return kExitParseFailure;
    }
    m.fault_specs.push_back(*spec);
    return kExitOk;
  };
  flags.insert(
      flags.end(),
      {{"--out <dir>", &args.out, "fleet directory: journal and reports"},
       {"--engines pregel,gas", cli::Setter(set_engines), "engine axis"},
       {"--seeds N", &args.seeds, "seed axis: N seeds", 1},
       {"--seed-base B", &args.seed_base, "first seed", 0},
       {"--faults <spec>", cli::Setter(add_faults),
        "add a fault-axis entry, none = clean; repeatable"},
       {"--sampled-faults N", &m.sampled_fault_specs,
        "random valid fault specs per seed", 0},
       {"--jitter F", &m.jitter, "cost-model perturbation in [0, 1)", 0.0,
        std::nextafter(1.0, 0.0)}});
  return flags;
}

cli::Table flag_table(Args& args) {
  const auto set_shard = [&args](const std::string& value) {
    const std::size_t colon = value.find(':');
    if (colon == std::string::npos) return kExitBadArgs;
    const auto index = parse_int(value.substr(0, colon));
    const auto count = parse_int(value.substr(colon + 1));
    if (!index || !count || *index < 0 || *count < 1 || *index >= *count) {
      return kExitBadArgs;
    }
    args.worker = true;
    args.shard_index = static_cast<std::size_t>(*index);
    args.shard_count = static_cast<std::size_t>(*count);
    return kExitOk;
  };
  const auto defer_key = [&args](const std::string& value) {
    const auto key = ensemble::parse_key(value);
    if (!key) return kExitBadArgs;
    args.defer_keys.push_back(*key);
    return kExitOk;
  };
  ensemble::SupervisorOptions& sv = args.supervisor;
  cli::Table table{"g10_ensemble --out <dir> [flags]", fleet_flags(args)};
  table.flags.insert(
      table.flags.end(),
      {{"--deadline-s F", &sv.wedge_timeout_s,
        "kill a worker stuck on one run this long", cli::kPositive,
        cli::kMaxSeconds},
       {"--max-attempts N", &sv.max_attempts,
        "worker deaths a run may cost before it is journaled", 1},
       {"--resume", cli::Switch{&args.resume},
        "replay the journal, run only what is missing"},
       {"--quiet", cli::Switch{&args.quiet}, "no progress lines"},
       {"--jobs N", &args.jobs, "worker processes, default = auto", 1,
        cli::kMaxConcurrency},
       {"--rlimit-as-mb N", &args.rlimit_as_mb,
        "worker address space, MiB, 0 = unlimited", 0, (1ull << 44) - 1},
       {"--rlimit-cpu-s F", &sv.limits.cpu_seconds,
        "worker CPU, 0 = unlimited", 0.0, cli::kMaxSeconds},
       {"--hb-timeout-s F", &sv.heartbeat_timeout_s,
        "kill a worker silent this long", cli::kPositive, cli::kMaxSeconds},
       {"--crash-budget N", &sv.crash_budget,
        "worker deaths before a run is skipped", 1},
       {.name = "--worker-shard I:N", .target = cli::Setter(set_shard),
        .help = "run shard I of N as a worker", .hidden = true},
       {.name = "--status-fd FD", .target = &args.status_fd,
        .help = "worker status pipe", .lo = 0, .hidden = true},
       {.name = "--defer-key KEY", .target = cli::Setter(defer_key),
        .help = "run this scenario after the shard's others",
        .hidden = true}});
  return table;
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
//                (only --deadline-s can reclaim the worker)
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
// a respawned worker resumes exactly where its predecessor died. SIGTERM
// keeps its default disposition: the supervisor's kill ends the worker
// wherever it is, and the journal holds everything it finished.
int run_worker(const Args& args) {
  ensemble::StatusChannel channel(args.status_fd);
  ensemble::Heartbeat heartbeat(&channel, 0.25);

  ensemble::EnsembleOptions options;
  options.journal_path = args.out + "/journal.jsonl";
  options.shard_count = args.shard_count;
  options.shard_index = args.shard_index;
  options.defer_keys = args.defer_keys;
  options.on_start = [&channel](const ensemble::Scenario& scenario) {
    channel.start(scenario.hash());
    maybe_crash_for_test(scenario);
  };
  options.on_run = [&channel](const ensemble::JournalEntry& entry) {
    channel.done(entry.key, entry.outcome);
  };

  ensemble::run_ensemble(args.matrix, ensemble::make_grade10_runner(),
                         options);
  return kExitOk;
}

// Workers re-run this binary with the supervisor's fleet flags and the
// hidden worker flags. argv[0] is resolved through /proc/self/exe so the
// fleet works regardless of how the supervisor was invoked.
int run_supervisor(const Args& args, const char* argv0,
                   std::vector<std::string> base) {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  base.insert(base.begin(), ec ? std::string(argv0) : exe.string());
  base.insert(base.end(), {"--resume", "--quiet"});
  std::filesystem::create_directories(args.out);

  ensemble::SupervisorOptions options = args.supervisor;
  options.journal_path = args.out + "/journal.jsonl";
  options.jobs =
      ThreadPool::resolve_threads(static_cast<std::size_t>(args.jobs));
  options.resume = args.resume;
  options.limits.address_space_bytes = args.rlimit_as_mb * 1024ull * 1024ull;
  options.stop = &cli::stop_requested();
  if (!args.quiet) {
    options.on_event = [](const std::string& message) {
      std::cerr << "supervisor: " << message << '\n';
    };
  }

  options.command = [base, jobs = std::to_string(options.jobs)](
                        std::size_t shard, int /*status_fd is always 3*/,
                        const std::vector<std::uint64_t>& defer) {
    std::vector<std::string> argv = base;
    argv.insert(argv.end(), {"--worker-shard",
                             std::to_string(shard) + ":" + jobs,
                             "--status-fd", "3"});
    for (const std::uint64_t key : defer) {
      argv.push_back("--defer-key");
      argv.push_back(ensemble::format_key(key));
    }
    return argv;
  };

  const std::vector<ensemble::Scenario> scenarios = args.matrix.expand();
  if (!args.quiet) {
    std::cerr << "ensemble: " << scenarios.size() << " scenarios -> "
              << options.journal_path << " (" << options.jobs
              << " worker processes)\n";
  }

  const ensemble::SupervisorStats stats =
      ensemble::run_supervised(args.matrix, options);

  if (stats.interrupted) {
    std::cerr << "interrupted: workers terminated, journal is flushed; "
                 "rerun with --resume\n";
    return kExitInterrupted;
  }

  // Reduce a fresh read of the journal: byte-identical reports at any
  // --jobs level and after any kill/--resume history follow.
  const ensemble::AggregateReport report = ensemble::aggregate(
      scenarios, ensemble::read_journal(options.journal_path));
  write_reports(args.out, report);
  std::cout << "workers=" << stats.spawned << " crashes=" << stats.crashes
            << " wedges=" << stats.wedges << " finalized=" << stats.finalized
            << " poisoned=" << stats.poisoned
            << " abandoned_shards=" << stats.abandoned_shards << "\n";
  if (report.missing > 0) {
    std::cout << "rerun with --resume to finish the remaining "
              << report.missing << " runs\n";
  }
  return kExitOk;
}

int main(int argc, char** argv) {
  Args args;
  const cli::Table table = flag_table(args);
  if (const int rc = cli::parse(table, argc, argv)) return rc;
  if (args.out.empty()) return cli::usage_error(table);
  args.matrix.seed_range(args.seed_base, args.seeds);

  try {
    if (args.worker) return run_worker(args);
    cli::install_stop_handlers();
    return run_supervisor(args, argv[0],
                          cli::pick(table, fleet_flags(args), argc, argv));
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
