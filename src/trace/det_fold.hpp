// Folds one engine run's artifacts into a DetSummary (DESIGN.md §14).
//
// Every record an engine emits — phase events, blocking events, monitoring
// samples, final vertex values — is hashed under the phase path (or a
// synthetic stream name) it belongs to. Two runs of the same workload are
// deterministic iff their summaries match; `g10_run --det-check` compares
// them and reports the first divergent phase path.
#pragma once

#include <span>

#include "common/det_hash.hpp"
#include "trace/records.hpp"

namespace g10::trace {

/// Folds a full run into `hasher`: phase/blocking events per phase path,
/// plus the "run/" streams (makespan, comm stats, vertex values).
void fold_run(DetHasher& hasher, const RunArtifacts& artifacts);

/// fold_run's event folds, for records that arrive in chunks: folding a
/// run's phase events, then its blocking events, chunk by chunk, then
/// fold_run on artifacts without records, equals fold_run on the whole run.
void fold_phase_events(DetHasher& hasher,
                       std::span<const PhaseEventRecord> events);
void fold_blocking_events(DetHasher& hasher,
                          std::span<const BlockingEventRecord> events);

/// Folds monitoring samples under "monitor/<resource>/m<machine>" streams
/// (samples are derived after the engine run, so they fold separately).
void fold_samples(DetHasher& hasher,
                  std::span<const MonitoringSampleRecord> samples);

}  // namespace g10::trace
