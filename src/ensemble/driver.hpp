// The worker's shard loop: expands a ScenarioMatrix, runs the pending
// scenarios one at a time, and journals every finished run. The supervisor
// aggregates the journal once the fleet is done (aggregate.hpp).
//
// A run that throws is journaled run_failed on its first attempt: engine
// runs are deterministic, so a retry in the same process would throw again.
// Crashes and wedges are the supervisor's to retry (supervisor.hpp): they
// kill the process this loop runs in, and the replacement worker resumes
// from the journal.
//
// Resume semantics: the journal is the single source of truth. Existing
// entries are reused and only scenarios without an entry are executed (the
// supervisor refuses a fresh start over a non-empty journal). Because the
// aggregate is computed from a fresh read of the journal file — never from
// in-memory state — a resumed ensemble renders a byte-identical report to
// an uninterrupted one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ensemble/journal.hpp"
#include "ensemble/scenario.hpp"

namespace g10::ensemble {

/// What one run of a scenario reports back.
struct RunAttempt {
  RunOutcome outcome = RunOutcome::kRunFailed;
  RunReport report;
  std::string error;
};

/// Runs one scenario: the Grade10 engine+analyze runner in production
/// (run_grade10.hpp), a synthetic one in tests. May throw; the driver
/// journals the exception as run_failed.
using RunFn = std::function<RunAttempt(const Scenario&)>;

struct EnsembleOptions {
  std::string journal_path;
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
  /// Invoked just before a scenario runs (the worker announces `start` on
  /// its status channel here).
  std::function<void(const Scenario&)> on_start;
  /// Invoked after each journaled run (null disables).
  std::function<void(const JournalEntry&)> on_run;
};

struct EnsembleOutcome {
  std::size_t executed = 0;  ///< runs computed and journaled here
  std::size_t reused = 0;    ///< scenarios satisfied from the journal
  std::size_t remaining = 0; ///< pending runs of other shards
};

/// Runs the scenarios the journal lacks. Throws CheckError on an invalid
/// matrix or an unwritable journal; individual run failures never throw —
/// they are journaled outcomes.
EnsembleOutcome run_ensemble(const ScenarioMatrix& matrix, const RunFn& fn,
                             const EnsembleOptions& options);

}  // namespace g10::ensemble
