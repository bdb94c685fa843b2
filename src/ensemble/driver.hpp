// The ensemble driver: expands a ScenarioMatrix, fans the pending runs
// out through ThreadPool::parallel_for and the robust RunExecutor, journals
// every completed run, and aggregates the (re-read) journal into the
// distributional report.
//
// Resume semantics: the journal is the single source of truth. A fresh
// start requires an absent/empty journal (refusing to silently mix fleets);
// with `resume` set the existing entries are reused and only scenarios
// without an entry are executed. Because the aggregate is always computed
// from a fresh read of the journal file — never from in-memory state — a
// resumed ensemble renders a byte-identical report to an uninterrupted one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ensemble/aggregate.hpp"
#include "ensemble/executor.hpp"
#include "ensemble/journal.hpp"
#include "ensemble/scenario.hpp"

namespace g10::ensemble {

struct EnsembleOptions {
  std::string journal_path;
  /// Reuse existing journal entries and run only the missing scenarios.
  /// Without it, a non-empty journal is an error (refuses to mix fleets).
  bool resume = false;
  /// Pool concurrency (0 = auto via ThreadPool::resolve_threads).
  std::size_t threads = 0;
  /// Per-run deadline/retry policy for the RunExecutor.
  RetryPolicy retry;
  /// Execute at most this many pending runs this invocation (0 = all);
  /// the rest stay missing in the journal, resumable later. Gives tests
  /// and the CI kill-and-resume check a deterministic partial journal.
  std::size_t limit = 0;
  /// Deterministic sharding for multi-process fan-out: when shard_count is
  /// nonzero, only pending scenarios with hash() % shard_count ==
  /// shard_index are executed here; the rest are someone else's and count
  /// as remaining. The split keys off the canonical scenario hash, so every
  /// worker derives the same partition independently.
  std::size_t shard_count = 0;
  std::size_t shard_index = 0;
  /// Scenario keys moved to the back of this invocation's queue (relative
  /// order otherwise preserved). The supervisor defers scenarios that
  /// crashed a worker so a replacement makes progress on the healthy rest
  /// of the shard before retrying the suspect.
  std::vector<std::uint64_t> defer_keys;
  /// Cooperative shutdown (SIGTERM handler, orphaned-worker detector).
  /// Once raised: unstarted scenarios are not attempted, in-flight runs are
  /// cancelled via their CancelToken, and anything that did not finish ok
  /// stays *missing* in the journal (resumable) instead of being journaled
  /// with a shutdown-tainted outcome.
  const std::atomic<bool>* stop = nullptr;
  /// Invoked from the executing pool thread just before a scenario's first
  /// attempt (the worker announces `start` on its status channel here).
  std::function<void(const Scenario&)> on_start;
  /// Progress callback, invoked after each journaled run (may be called
  /// from pool threads; null disables).
  std::function<void(const JournalEntry&)> on_run;
};

struct EnsembleOutcome {
  std::size_t executed = 0;  ///< runs computed and journaled here
  std::size_t reused = 0;    ///< scenarios satisfied from the journal
  std::size_t remaining = 0; ///< pending runs left unexecuted (limit,
                             ///< foreign shards, or a raised stop flag)
  AggregateReport report;    ///< aggregate over the full scenario list
};

/// Runs (or resumes) the ensemble. Throws CheckError on an invalid matrix,
/// an unwritable journal, or a fresh start over a non-empty journal;
/// individual run failures never throw — they are journaled outcomes.
EnsembleOutcome run_ensemble(const ScenarioMatrix& matrix, const RunFn& fn,
                             const EnsembleOptions& options);

}  // namespace g10::ensemble
