// Process-isolated ensemble fan-out: the supervisor (DESIGN.md §15).
//
// `g10_ensemble` always runs the fleet under this loop. Pending scenarios
// are sharded deterministically by canonical scenario hash (hash % jobs);
// each shard is executed by a worker *process* (the same binary re-entered
// through the hidden --worker-shard flag) that runs its scenarios one at a
// time, appends finished runs to the shared O_APPEND journal and reports
// liveness over a status pipe. Because every worker derives its own work
// list from (matrix, journal, shard), the supervisor never ships scenarios
// over IPC — a respawned worker re-reads the journal and continues exactly
// where its predecessor died.
//
// The supervisor owns every retry and deadline:
//   - crash containment: a SIGSEGV/OOM-kill takes one worker, not the
//     fleet; the supervisor charges the crash to the in-flight scenario
//     (the last `start` without a `done`), re-queues it under capped
//     exponential backoff, and respawns the shard's worker;
//   - resource sandboxes: --rlimit-as-mb / --rlimit-cpu-s install
//     RLIMIT_AS / RLIMIT_CPU in the child, so runaway memory or CPU is
//     stopped by the kernel;
//   - hard liveness: a worker that stops heartbeating, or sits on one
//     scenario past the wedge timeout (--deadline-s), is escalated
//     SIGTERM → (grace) → SIGKILL of its whole process group;
//   - graceful degradation: a scenario that exhausts its attempts is
//     journaled run_failed/timeout with the killing signal recorded; one
//     that kills crash_budget workers is journaled skipped ("poisonous").
//     Either way the fleet finishes and the report is stamped DEGRADED
//     with its coverage, exactly like --resume over a partial journal.
//
// The aggregate is still reduced from a fresh journal read, so --jobs 1,
// --jobs 8, and kill-9-then---resume all render byte-identical reports.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/subprocess.hpp"
#include "ensemble/scenario.hpp"

namespace g10::ensemble {

struct SupervisorOptions {
  std::string journal_path;
  /// Worker process count (shard count). Must be >= 1.
  std::size_t jobs = 1;
  /// Reuse existing journal entries and run only the missing scenarios.
  /// Without it, a non-empty journal is an error (refuses to mix fleets).
  bool resume = false;

  // Liveness and escalation.
  /// A worker silent on its status pipe for this long is presumed wedged.
  double heartbeat_timeout_s = 5.0;
  /// A worker sitting on one scenario for this long is presumed wedged on
  /// it even if heartbeats still flow (a run spinning inside the engine
  /// keeps the heartbeat thread alive). 0 disables.
  double wedge_timeout_s = 0.0;
  /// SIGTERM → this grace → SIGKILL of the worker's process group.
  double kill_grace_s = 2.0;

  // Crash containment policy.
  /// Total attempts a scenario gets across worker deaths (crashes and
  /// wedge kills each consume one). Exhaustion journals the last verdict
  /// (run_failed with the signal, or timeout for a wedge).
  int max_attempts = 2;
  /// Dead workers a single scenario may cost before it is declared
  /// poisonous and journaled `skipped` with the crash signal recorded —
  /// the early-out for --max-attempts fleets that would otherwise burn a
  /// worker per retry.
  int crash_budget = 3;
  /// Capped exponential backoff before respawning a shard whose worker a
  /// scenario just killed.
  double backoff_initial_s = 0.25;
  double backoff_max_s = 5.0;
  double backoff_factor = 2.0;
  /// Consecutive respawns of one shard without a single `done` before the
  /// shard is abandoned (its scenarios stay missing; report DEGRADED).
  int respawn_cap = 5;

  /// Sandboxes applied to every worker (zeros = none).
  SpawnLimits limits;

  /// Builds the worker argv for `shard`. `status_fd` is the child-side fd
  /// number the worker must write its status lines to; `defer` lists the
  /// scenario keys the worker should run last.
  std::function<std::vector<std::string>(
      std::size_t shard, int status_fd,
      const std::vector<std::uint64_t>& defer)>
      command;

  /// Progress/diagnostic lines ("worker 2 killed by SIGSEGV ..."); null
  /// disables.
  std::function<void(const std::string&)> on_event;

  /// Shutdown: when raised, workers get SIGTERM, stragglers SIGKILL after
  /// the grace, and the fleet returns with interrupted set. In-flight
  /// scenarios stay missing (resumable), never journaled.
  const std::atomic<bool>* stop = nullptr;
};

struct SupervisorStats {
  std::size_t spawned = 0;    ///< worker processes started (incl. respawns)
  std::size_t crashes = 0;    ///< workers that died by signal / bad exit
  std::size_t wedges = 0;     ///< workers killed by the liveness escalation
  std::size_t finalized = 0;  ///< scenarios the supervisor journaled itself
  std::size_t poisoned = 0;   ///< of those, journaled `skipped` (budget)
  std::size_t abandoned_shards = 0;  ///< shards that hit the respawn cap
  bool interrupted = false;
};

/// Runs (or resumes) the fleet under process supervision. Throws CheckError
/// on an invalid matrix/options or a fresh start over a non-empty journal;
/// worker deaths never throw — they are contained, retried, and journaled.
SupervisorStats run_supervised(const ScenarioMatrix& matrix,
                               const SupervisorOptions& options);

}  // namespace g10::ensemble
