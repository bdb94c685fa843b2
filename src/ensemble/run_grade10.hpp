// The production RunFn: one Scenario → workload::run (engine run, expert
// model, monitoring samples — g10_run's recipe) → Grade10 characterization
// → RunReport digest, all in-process (no g10_run subprocess — the ensemble
// runs hundreds of these across the ThreadPool).
//
// The runner polls its CancelToken at stage boundaries (after graph
// construction, the workload run and characterization), so a run whose
// deadline fires releases its pool slot at the next boundary instead of
// wedging the fleet. Graphs are cached per dataset spec and shared across
// runs; SSSP runs weight a copy per seed.
//
// The monitoring cadence, analysis timeslice, issue threshold and sync-bug
// probability are constants. Only a scenario that injects the sync bug can
// report it rediscovered (a Gather-phase imbalance issue above the
// threshold).
#pragma once

#include "ensemble/executor.hpp"

namespace g10::ensemble {

/// Builds the Grade10 run function. The returned callable is thread-safe
/// and stateless apart from the shared graph cache.
RunFn make_grade10_runner();

}  // namespace g10::ensemble
