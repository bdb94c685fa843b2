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
#include "trace/node_log.hpp"
#include "trace/records.hpp"

namespace g10::trace {

/// Folds a log's phase events, then its blocking events, each under its
/// phase path.
void fold_events(DetHasher& hasher, const NodeLog& log);

/// Folds a full run into `hasher`: fold_events of its records' intern_events,
/// then the "run/" streams (makespan, comm stats, vertex values). So
/// fold_events of a logger's hand-over, then fold_run of artifacts without
/// records, equals fold_run of the rendered run.
void fold_run(DetHasher& hasher, const RunArtifacts& artifacts);

/// Folds monitoring samples under "monitor/<resource>/m<machine>" streams
/// (samples are derived after the engine run, so they fold separately).
void fold_samples(DetHasher& hasher,
                  std::span<const MonitoringSampleRecord> samples);

}  // namespace g10::trace
