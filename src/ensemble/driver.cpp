#include "ensemble/driver.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "ensemble/run_report.hpp"

namespace g10::ensemble {

EnsembleOutcome run_ensemble(const ScenarioMatrix& matrix, const RunFn& fn,
                             const EnsembleOptions& options) {
  G10_CHECK_MSG(!options.journal_path.empty(), "ensemble needs a journal path");
  G10_CHECK_MSG(options.shard_count == 0 ||
                    options.shard_index < options.shard_count,
                "shard index out of range");
  const std::vector<Scenario> scenarios = matrix.expand();

  const JournalReplay existing = read_journal(options.journal_path);
  G10_CHECK_MSG(options.resume || (existing.entries.empty() &&
                                   existing.dropped_lines == 0),
                "journal '" + options.journal_path +
                    "' already has entries; pass resume to continue it");

  std::unordered_set<std::uint64_t> done;
  done.reserve(existing.entries.size());
  for (const JournalEntry& entry : existing.entries) done.insert(entry.key);

  std::vector<const Scenario*> pending;
  pending.reserve(scenarios.size());
  EnsembleOutcome outcome;
  for (const Scenario& s : scenarios) {
    if (done.contains(s.hash())) {
      ++outcome.reused;
    } else if (options.shard_count != 0 &&
               s.hash() % options.shard_count != options.shard_index) {
      ++outcome.remaining;  // another shard's work
    } else {
      pending.push_back(&s);
    }
  }
  if (options.limit > 0 && pending.size() > options.limit) {
    outcome.remaining += pending.size() - options.limit;
    pending.resize(options.limit);
  }
  if (!options.defer_keys.empty()) {
    // Suspect scenarios (they crashed a worker) run after the healthy rest
    // of the queue; relative order within each group is preserved.
    const std::unordered_set<std::uint64_t> defer(options.defer_keys.begin(),
                                                  options.defer_keys.end());
    std::stable_partition(pending.begin(), pending.end(),
                          [&](const Scenario* s) {
                            return !defer.contains(s->hash());
                          });
  }

  if (!pending.empty()) {
    JournalWriter writer(options.journal_path);
    Watchdog watchdog;
    const RunExecutor executor(fn, options.retry, &watchdog);
    const ThreadPool pool(options.threads);
    std::atomic<std::size_t> journaled{0};
    std::atomic<std::size_t> cancelled{0};
    // Grain 1: scenarios vary wildly in cost (fault recovery can multiply a
    // run's length), so threads claim one run at a time.
    pool.parallel_for(pending.size(), 1, [&](std::size_t i) {
      const Scenario& scenario = *pending[i];
      const bool stopping_before =
          options.stop != nullptr &&
          options.stop->load(std::memory_order_acquire);
      if (!stopping_before && options.on_start) options.on_start(scenario);
      const RunResult result = executor.execute(scenario, options.stop);
      // A shutdown must leave the journal resumable: a scenario the stop
      // flag skipped outright (attempts == 0) or cancelled mid-run (any
      // non-ok outcome once stop is raised) stays missing rather than
      // being journaled with a shutdown-tainted outcome.
      const bool stopping = options.stop != nullptr &&
                            options.stop->load(std::memory_order_acquire);
      if ((result.outcome == RunOutcome::kSkipped && result.attempts == 0) ||
          (stopping && result.outcome != RunOutcome::kOk)) {
        cancelled.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      JournalEntry entry;
      entry.key = scenario.hash();
      entry.scenario = scenario.key();
      entry.outcome = result.outcome;
      entry.attempts = result.attempts;
      entry.wall_ms = result.wall_ms;
      entry.error = result.error;
      entry.report = result.report;
      writer.append(entry);
      journaled.fetch_add(1, std::memory_order_relaxed);
      if (options.on_run) options.on_run(entry);
    });
    outcome.executed = journaled.load(std::memory_order_relaxed);
    outcome.remaining += cancelled.load(std::memory_order_relaxed);
  }

  // The aggregate is always computed from a fresh read of the journal file,
  // never from in-memory results: a resumed ensemble and an uninterrupted
  // one reduce the exact same bytes, so their reports are byte-identical.
  outcome.report = aggregate(scenarios, read_journal(options.journal_path));
  return outcome;
}

}  // namespace g10::ensemble
