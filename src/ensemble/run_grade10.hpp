// The production RunFn: one Scenario → workload::run (engine run, expert
// model, monitoring samples — g10_run's recipe) → Grade10 characterization
// → RunReport digest, all in the worker process (no g10_run subprocess per
// scenario).
//
// A run is not interruptible: a worker that sits on one scenario past
// `--deadline-s` is killed by its supervisor, which journals the scenario
// `timeout` once its attempts are spent. Graphs are cached per dataset
// spec and shared across a worker's runs; SSSP runs weight a copy per seed.
//
// The monitoring cadence, analysis timeslice, issue threshold and sync-bug
// probability are constants. Only a scenario that injects the sync bug can
// report it rediscovered (a Gather-phase imbalance issue above the
// threshold).
#pragma once

#include "ensemble/driver.hpp"

namespace g10::ensemble {

/// Builds the Grade10 run function. The returned callable is thread-safe
/// and stateless apart from the shared graph cache.
RunFn make_grade10_runner();

}  // namespace g10::ensemble
