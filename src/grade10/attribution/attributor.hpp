// Attribution of upsampled consumption to phases (paper §III-D3).
//
// For each resource instance and timeslice: active phases with Exact rules
// receive the consumption first, proportionally to and capped at their
// demand; the remainder is distributed over active Variable phases
// proportionally to their weights. The result is the paper's 3-D array
// (resource × timeslice × phase), stored slice-sparse: one 32-byte entry per
// (slice, active leaf), slice-major and in the matrix's leaf order within a
// slice. A counting pass sizes the table exactly before it is filled, so it
// is allocated once and never grows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/time.hpp"
#include "grade10/attribution/demand.hpp"
#include "grade10/attribution/upsample.hpp"
#include "grade10/trace/resource_trace.hpp"

namespace g10::core {

struct AttributionEntry {
  double usage = 0.0;     ///< units attributed in this slice
  double demand = 0.0;    ///< Exact demand (units) or Variable weight
  double fraction = 0.0;  ///< active fraction of the slice
  InstanceId instance = kNoInstance;
  bool exact = false;
};
// The doubles first, the narrow fields last: 24 + 4 + 1 bytes pad to 32, not
// to the 40 an id-first order costs.
static_assert(sizeof(AttributionEntry) == 32);

/// Slices per window of characterize_trace's pass B: the table it builds,
/// folds and frees at a time. A constant, not a setting.
inline constexpr TimesliceIndex kAttributionWindowSlices = 1024;

/// Attribution result for one (resource, machine) instance: its per-slice
/// series and a slice-sparse table over a range of its slices. The table of
/// an attribute_usage result covers every slice. A pipeline result
/// (`characterize_trace`) holds the series only: its tables were built one
/// window at a time, folded into the pipeline's aggregates and freed.
struct AttributedResource {
  ResourceId resource = kNoResource;
  trace::MachineId machine = trace::kGlobalMachine;
  double capacity = 0.0;
  UpsampledSeries upsampled;
  /// The table covers slices [first_slice, table_end()): entries for slice
  /// s live in entries[slice_offsets[s - first_slice] ..
  /// slice_offsets[s - first_slice + 1]).
  TimesliceIndex first_slice = 0;
  std::vector<std::uint32_t> slice_offsets;
  std::vector<AttributionEntry> entries;
  /// Consumption not attributable to any active phase, per slice.
  std::vector<double> unattributed;

  /// The entries of slice s, which the table covers.
  std::span<const AttributionEntry> slice_entries(TimesliceIndex s) const {
    const auto i = static_cast<std::size_t>(s - first_slice);
    return {entries.data() + slice_offsets[i],
            entries.data() + slice_offsets[i + 1]};
  }
  TimesliceIndex slice_count() const {
    return static_cast<TimesliceIndex>(upsampled.usage.size());
  }
  TimesliceIndex table_end() const {
    return first_slice + static_cast<TimesliceIndex>(
                             slice_offsets.empty() ? 0
                                                   : slice_offsets.size() - 1);
  }
  /// True when the table covers every slice.
  bool has_table() const {
    return first_slice == 0 && !slice_offsets.empty() &&
           table_end() == slice_count();
  }
};

struct AttributedUsage {
  std::vector<AttributedResource> resources;

  const AttributedResource* find(ResourceId resource,
                                 trace::MachineId machine) const;
};

/// The per-slice series of one matrix: upsampled consumption and the
/// consumption no active phase takes, from the matrix's per-slice sums (its
/// leaves say which slices hold entries). No table.
AttributedResource attribute_series(const DemandMatrix& matrix,
                                    const ResourceSeries& series,
                                    const TimesliceGrid& grid,
                                    bool constant_strawman = false);

/// A matrix's table, built one window of slices at a time. Each window holds
/// the entries of the leaves active in it, in leaf order within a slice, and
/// attributes the upsampled consumption over them (the usage pass): the
/// entries of all windows, in order, are the whole table's. A leaf that
/// straddles a window edge lends each window the slices it covers.
class AttributionWindows {
 public:
  /// `matrix` must outlive this; `window_slices` > 0.
  AttributionWindows(const DemandMatrix& matrix, TimesliceIndex window_slices);

  /// Replaces `out`'s table (`out` is attribute_series(matrix, ...)) with
  /// the next window's; false once every slice was covered. A matrix of no
  /// slices has one empty window.
  bool next(AttributedResource& out);

 private:
  const DemandMatrix& matrix_;
  TimesliceIndex window_slices_;
  TimesliceIndex next_slice_ = 0;
  bool started_ = false;
  /// Leaf indices by first slice, and how many of them were taken in.
  std::vector<std::uint32_t> by_start_;
  std::size_t taken_ = 0;
  /// The taken-in leaves that reach the current window, ascending.
  std::vector<std::uint32_t> active_;
};

/// Frees `resource`'s table, keeping its series.
void release_table(AttributedResource& resource);

/// Runs upsampling + per-slice attribution for every demand matrix with a
/// matching monitored series, each table one window of every slice.
/// Matrices without monitoring data are skipped.
/// `constant_strawman` replaces Grade10's upsampler with the constant-rate
/// baseline (Table II). With a pool, matrices are processed in parallel
/// (bit-identical to the serial path).
AttributedUsage attribute_usage(const std::vector<DemandMatrix>& demand,
                                const ResourceTrace& monitored,
                                const TimesliceGrid& grid,
                                bool constant_strawman = false,
                                ThreadPool* pool = nullptr);

}  // namespace g10::core
