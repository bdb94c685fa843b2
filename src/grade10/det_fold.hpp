// Folds one characterization result into a DetSummary (DESIGN.md §14).
//
// Every analysis product that reaches a report — the instance tree,
// attributed usage, bottleneck classifications, detected issues — is hashed
// under the phase path (or resource stream) it belongs to. The pipeline is
// bit-identical across thread counts by construction; `g10_analyze
// --det-check N` re-runs it at 1, 2 and N threads, compares the summaries,
// and names the first divergent phase path when that invariant breaks.
#pragma once

#include "common/det_hash.hpp"
#include "grade10/pipeline.hpp"

namespace g10::core {

/// Digest of a full characterization: per-instance timing and blocking,
/// per-resource attribution entries, bottleneck classifications, and issue
/// descriptions, all keyed so a divergence names the phase that caused it.
/// `result` must hold its attribution tables, which a pipeline result does
/// not: pass a DetHasher to characterize_trace for that digest.
DetSummary fold_characterization(const CharacterizationResult& result,
                                 const ResourceModel& resources);

/// The stages of fold_characterization, in its order: the instance tree,
/// then per attributed instance its series and its table's entries (a
/// table's windows in slice order), then the bottlenecks, issues and
/// baseline makespan.
void fold_instances(DetHasher& hasher, const ExecutionTrace& trace);
void fold_series(DetHasher& hasher, const AttributedResource& attributed,
                 const ResourceModel& resources);
void fold_entries(DetHasher& hasher, const AttributedResource& attributed,
                  const ExecutionTrace& trace);
void fold_findings(DetHasher& hasher, const CharacterizationResult& result,
                   const ResourceModel& resources);

}  // namespace g10::core
