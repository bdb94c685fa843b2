#include "grade10/attribution/attributor.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace g10::core {

namespace {

constexpr double kEps = 1e-12;

/// Upsampling + per-slice attribution of one (resource, machine) matrix.
AttributedResource attribute_one(const DemandMatrix& matrix,
                                 const ResourceSeries& series,
                                 const TimesliceGrid& grid,
                                 bool constant_strawman) {
  AttributedResource out;
  out.resource = matrix.resource;
  out.machine = matrix.machine;
  out.capacity = matrix.capacity;
  out.upsampled = constant_strawman ? upsample_constant(matrix, series, grid)
                                    : upsample(matrix, series, grid);
  const auto slices = static_cast<std::size_t>(matrix.slice_count);
  G10_ASSERT_MSG(out.upsampled.usage.size() == slices,
                 "upsampled series does not tile the timeslice grid");
  out.unattributed.assign(slices, 0.0);
  out.slice_offsets.assign(slices + 1, 0);

  // Counting pass: one entry per (slice, leaf) with a positive active
  // fraction, counted into slice_offsets[s + 1], then prefix-summed so the
  // table is allocated once, in its final size.
  for (const LeafDemand& leaf : matrix.leaves) {
    for (std::size_t i = 0; i < leaf.active_fraction.size(); ++i) {
      if (leaf.active_fraction[i] <= 0.0) continue;
      const auto slice = static_cast<std::size_t>(leaf.first_slice) + i;
      if (slice < slices) ++out.slice_offsets[slice + 1];
    }
  }
  for (std::size_t s = 0; s < slices; ++s) {
    out.slice_offsets[s + 1] += out.slice_offsets[s];
  }

  // Scatter pass: leaves in matrix order, so each slice keeps leaf order.
  out.entries.resize(out.slice_offsets[slices]);
  std::vector<std::uint32_t> next(out.slice_offsets.begin(),
                                  out.slice_offsets.end() - 1);
  for (const LeafDemand& leaf : matrix.leaves) {
    for (std::size_t i = 0; i < leaf.active_fraction.size(); ++i) {
      const double frac = leaf.active_fraction[i];
      if (frac <= 0.0) continue;
      const auto slice = static_cast<std::size_t>(leaf.first_slice) + i;
      if (slice >= slices) continue;
      AttributionEntry& entry = out.entries[next[slice]++];
      entry.instance = leaf.instance;
      entry.fraction = frac;
      entry.exact = leaf.rule.is_exact();
      entry.demand = leaf.rule.amount * frac;
    }
  }

  // Usage pass: Exact phases first, proportionally, capped at their demand;
  // the remainder goes to Variable phases by weight.
  for (std::size_t s = 0; s < slices; ++s) {
    const double consumption = out.upsampled.usage[s];
    const std::span<AttributionEntry> entries(
        out.entries.data() + out.slice_offsets[s],
        out.entries.data() + out.slice_offsets[s + 1]);
    if (entries.empty()) {
      out.unattributed[s] = consumption;
      continue;
    }
    double sum_exact = 0.0;
    double sum_weight = 0.0;
    for (const AttributionEntry& entry : entries) {
      (entry.exact ? sum_exact : sum_weight) += entry.demand;
    }
    const double exact_scale =
        sum_exact > kEps ? std::min(1.0, consumption / sum_exact) : 0.0;
    const double remaining = consumption - sum_exact * exact_scale;
    // Exact attribution is capped at the measured consumption, so the
    // residual handed to variable phases can never go negative (unless the
    // monitor itself reported a negative rate, which lint flags upstream).
    G10_ASSERT(remaining >= -kEps || consumption < 0.0);
    for (AttributionEntry& entry : entries) {
      if (entry.exact) {
        entry.usage = entry.demand * exact_scale;
      } else {
        entry.usage = sum_weight > kEps
                          ? remaining * entry.demand / sum_weight
                          : 0.0;
      }
    }
    if (sum_weight <= kEps && remaining > kEps) {
      out.unattributed[s] = remaining;
    }
  }
  return out;
}

}  // namespace

const AttributedResource* AttributedUsage::find(
    ResourceId resource, trace::MachineId machine) const {
  for (const auto& r : resources) {
    if (r.resource == resource && r.machine == machine) return &r;
  }
  return nullptr;
}

AttributedUsage attribute_usage(const std::vector<DemandMatrix>& demand,
                                const ResourceTrace& monitored,
                                const TimesliceGrid& grid,
                                bool constant_strawman, ThreadPool* pool) {
  // Matrices without monitoring data are skipped; resolve the series up
  // front so the parallel slots line up with the demand order.
  std::vector<const ResourceSeries*> series(demand.size(), nullptr);
  for (std::size_t m = 0; m < demand.size(); ++m) {
    series[m] = monitored.find(demand[m].resource, demand[m].machine);
  }

  // Each matrix upsamples and attributes independently; results land in
  // per-index slots, so collection order matches the serial loop exactly.
  std::vector<AttributedResource> slots(demand.size());
  parallel_for(pool, demand.size(), 1, [&](std::size_t m) {
    if (series[m] == nullptr) return;
    slots[m] = attribute_one(demand[m], *series[m], grid, constant_strawman);
  });

  AttributedUsage result;
  for (std::size_t m = 0; m < demand.size(); ++m) {
    if (series[m] == nullptr) continue;
    result.resources.push_back(std::move(slots[m]));
  }
  return result;
}

}  // namespace g10::core
