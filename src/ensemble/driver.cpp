#include "ensemble/driver.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <unordered_set>

#include "common/check.hpp"

namespace g10::ensemble {

EnsembleOutcome run_ensemble(const ScenarioMatrix& matrix, const RunFn& fn,
                             const EnsembleOptions& options) {
  G10_CHECK_MSG(!options.journal_path.empty(), "ensemble needs a journal path");
  G10_CHECK_MSG(options.shard_count == 0 ||
                    options.shard_index < options.shard_count,
                "shard index out of range");
  const std::vector<Scenario> scenarios = matrix.expand();

  const JournalReplay existing = read_journal(options.journal_path);

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
    for (const Scenario* scenario : pending) {
      if (options.on_start) options.on_start(*scenario);
      const auto started = std::chrono::steady_clock::now();
      RunAttempt attempt;
      try {
        attempt = fn(*scenario);
      } catch (const std::exception& e) {
        attempt.outcome = RunOutcome::kRunFailed;
        attempt.error = e.what();
      } catch (...) {
        attempt.outcome = RunOutcome::kRunFailed;
        attempt.error = "unknown exception";
      }
      JournalEntry entry;
      entry.key = scenario->hash();
      entry.scenario = scenario->key();
      entry.outcome = attempt.outcome;
      entry.attempts = 1;
      entry.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - started)
                          .count();
      entry.error = attempt.error;
      if (attempt.outcome == RunOutcome::kOk) entry.report = attempt.report;
      writer.append(entry);
      ++outcome.executed;
      if (options.on_run) options.on_run(entry);
    }
  }
  return outcome;
}

}  // namespace g10::ensemble
