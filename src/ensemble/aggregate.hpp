// Distributional aggregation of an ensemble's journal.
//
// aggregate() joins the expanded scenario list against the journal entries
// by scenario hash (first occurrence wins; later duplicates are counted but
// ignored) and reduces the per-run reports into a fleet-level view:
// outcome counts and coverage, the sync-bug rediscovery rate with a Wilson
// 95% interval, per-issue detection rates and impact quantiles, per-phase
// dominant-bottleneck frequencies, and makespan statistics.
//
// Everything here is a pure function of (scenarios, journal entries) and
// every container is deterministically ordered, so the rendered report is
// byte-identical whether the journal was written in one uninterrupted
// execution or stitched together across --resume restarts. Wall-clock
// fields on journal entries are deliberately never read.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "ensemble/journal.hpp"
#include "ensemble/scenario.hpp"

namespace g10::ensemble {

/// A binomial proportion with its Wilson 95% interval.
struct RateEstimate {
  std::size_t hits = 0;
  std::size_t trials = 0;
  ConfidenceInterval ci;  ///< [0, 1] when trials == 0

  double rate() const {
    return trials == 0 ? 0.0 : static_cast<double>(hits) /
                                   static_cast<double>(trials);
  }
};

/// Five-number summary over the ok runs' values.
struct ValueSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// One detected-issue label across the fleet.
struct IssueSummary {
  std::string label;   ///< e.g. "imbalance:GatherThread"
  RateEstimate rate;   ///< runs where the label appeared, over ok runs
  ValueSummary impact; ///< impact fraction across occurrences
};

/// Dominant-bottleneck frequency for one phase type.
struct PhaseBottleneckSummary {
  std::string phase;
  struct ResourceShare {
    std::string resource;
    std::size_t runs = 0;  ///< ok runs where this resource dominated
  };
  /// Sorted by runs desc, resource name asc.
  std::vector<ResourceShare> resources;
  std::size_t runs_with_bottleneck = 0;
};

struct AggregateReport {
  std::size_t scenario_count = 0;

  // Journal hygiene.
  std::size_t matched_entries = 0;    ///< journal lines joined to a scenario
  std::size_t duplicate_entries = 0;  ///< same key seen again (ignored)
  std::size_t unknown_entries = 0;    ///< key not in this matrix (ignored)
  std::size_t dropped_lines = 0;      ///< torn/corrupt lines in the journal

  // Outcome distribution over the scenario list. `missing` counts scenarios
  // with no journal entry at all (killed before completion, --limit).
  std::size_t ok = 0;
  std::size_t timeout = 0;
  std::size_t run_failed = 0;
  std::size_t analysis_failed = 0;
  std::size_t skipped = 0;
  std::size_t missing = 0;

  /// ok / scenario_count — the fraction of the fleet the distributional
  /// numbers below actually describe.
  double coverage = 0.0;

  /// Headline: injected sync bug rediscovered, over the ok runs of GAS
  /// scenarios that inject it.
  RateEstimate sync_bug;

  ValueSummary makespan_seconds;

  /// Sorted by hits desc, label asc.
  std::vector<IssueSummary> issues;
  /// Sorted by phase name asc.
  std::vector<PhaseBottleneckSummary> phase_bottlenecks;
};

/// Joins scenarios to journal entries and reduces. Pure and deterministic.
AggregateReport aggregate(const std::vector<Scenario>& scenarios,
                          const JournalReplay& replay);

/// Human-readable report (stable layout, deterministic formatting).
std::string render_text(const AggregateReport& report);

/// Machine-readable report. Doubles use shortest-round-trip rendering, so
/// equal reports serialize to byte-identical JSON.
std::string render_json(const AggregateReport& report);

}  // namespace g10::ensemble
