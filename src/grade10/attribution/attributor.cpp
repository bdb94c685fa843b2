#include "grade10/attribution/attributor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace g10::core {

namespace {

constexpr double kEps = 1e-12;

/// The share of `consumption` the Exact entries of a slice get
/// (`exact_scale` of their demand), and the remainder for Variable ones.
struct SliceSplit {
  double exact_scale = 0.0;
  double remaining = 0.0;
};

SliceSplit split_slice(double consumption, double sum_exact) {
  SliceSplit split;
  split.exact_scale =
      sum_exact > kEps ? std::min(1.0, consumption / sum_exact) : 0.0;
  split.remaining = consumption - sum_exact * split.exact_scale;
  // Exact attribution is capped at the measured consumption, so the
  // residual handed to variable phases can never go negative (unless the
  // monitor itself reported a negative rate, which lint flags upstream).
  G10_ASSERT(split.remaining >= -kEps || consumption < 0.0);
  return split;
}

}  // namespace

AttributedResource attribute_series(const DemandMatrix& matrix,
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
  // A slice holds entries when some leaf is active in it.
  std::vector<char> occupied(slices, 0);
  for (const LeafDemand& leaf : matrix.leaves) {
    for (std::size_t i = 0; i < leaf.active_fraction.size(); ++i) {
      const auto slice = static_cast<std::size_t>(leaf.first_slice) + i;
      if (leaf.active_fraction[i] > 0.0 && slice < slices) occupied[slice] = 1;
    }
  }
  // `exact[s]` and `variable[s]` sum the same products in the same leaf
  // order as the usage pass sums a slice's entries, so the remainder here
  // is the one the usage pass leaves over.
  out.unattributed.assign(slices, 0.0);
  for (std::size_t s = 0; s < slices; ++s) {
    const double consumption = out.upsampled.usage[s];
    if (!occupied[s]) {
      out.unattributed[s] = consumption;
      continue;
    }
    const SliceSplit split = split_slice(consumption, matrix.exact[s]);
    if (matrix.variable[s] <= kEps && split.remaining > kEps) {
      out.unattributed[s] = split.remaining;
    }
  }
  return out;
}

AttributionWindows::AttributionWindows(const DemandMatrix& matrix,
                                       TimesliceIndex window_slices)
    : matrix_(matrix), window_slices_(window_slices) {
  G10_CHECK(window_slices > 0);
  by_start_.resize(matrix.leaves.size());
  for (std::size_t l = 0; l < by_start_.size(); ++l) {
    by_start_[l] = static_cast<std::uint32_t>(l);
  }
  std::stable_sort(by_start_.begin(), by_start_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return matrix.leaves[a].first_slice <
                            matrix.leaves[b].first_slice;
                   });
}

bool AttributionWindows::next(AttributedResource& out) {
  const TimesliceIndex slices = matrix_.slice_count;
  if (started_ && next_slice_ >= slices) return false;
  started_ = true;
  const TimesliceIndex first = next_slice_;
  const TimesliceIndex end = first + std::min(window_slices_, slices - first);
  next_slice_ = end;
  const std::vector<LeafDemand>& leaves = matrix_.leaves;
  const auto last_slice = [&](std::uint32_t l) {
    return leaves[l].first_slice +
           static_cast<TimesliceIndex>(leaves[l].active_fraction.size()) - 1;
  };
  // The leaves active in [first, end): those taken in before that still
  // reach `first`, and those starting before `end`, in leaf order.
  std::erase_if(active_,
                [&](std::uint32_t l) { return last_slice(l) < first; });
  const std::size_t kept = active_.size();
  while (taken_ < by_start_.size() &&
         leaves[by_start_[taken_]].first_slice < end) {
    active_.push_back(by_start_[taken_++]);
  }
  const auto taken_in = active_.begin() + static_cast<std::ptrdiff_t>(kept);
  std::sort(taken_in, active_.end());
  std::inplace_merge(active_.begin(), taken_in, active_.end());
  // The slice range [from, to) of a leaf's fractions inside the window.
  const auto window_of = [&](const LeafDemand& leaf) {
    const TimesliceIndex size =
        static_cast<TimesliceIndex>(leaf.active_fraction.size());
    return std::pair<std::size_t, std::size_t>(
        static_cast<std::size_t>(std::max<TimesliceIndex>(
            0, first - leaf.first_slice)),
        static_cast<std::size_t>(std::max<TimesliceIndex>(
            0, std::min(size, end - leaf.first_slice))));
  };

  const auto width = static_cast<std::size_t>(end - first);
  out.first_slice = first;
  out.slice_offsets.assign(width + 1, 0);
  // Counting pass: one entry per (slice, leaf) with a positive active
  // fraction, counted into slice_offsets[s + 1], then prefix-summed so the
  // window's table is allocated once, in its final size.
  for (const std::uint32_t l : active_) {
    const LeafDemand& leaf = leaves[l];
    const auto [from, to] = window_of(leaf);
    for (std::size_t i = from; i < to; ++i) {
      if (leaf.active_fraction[i] <= 0.0) continue;
      ++out.slice_offsets[static_cast<std::size_t>(
                              leaf.first_slice - first) + i + 1];
    }
  }
  for (std::size_t s = 0; s < width; ++s) {
    out.slice_offsets[s + 1] += out.slice_offsets[s];
  }

  // Scatter pass: leaves in matrix order, so each slice keeps leaf order.
  out.entries.assign(out.slice_offsets[width], AttributionEntry{});
  std::vector<std::uint32_t> next(out.slice_offsets.begin(),
                                  out.slice_offsets.end() - 1);
  for (const std::uint32_t l : active_) {
    const LeafDemand& leaf = leaves[l];
    const auto [from, to] = window_of(leaf);
    for (std::size_t i = from; i < to; ++i) {
      const double frac = leaf.active_fraction[i];
      if (frac <= 0.0) continue;
      const auto slot = static_cast<std::size_t>(leaf.first_slice - first) + i;
      AttributionEntry& entry = out.entries[next[slot]++];
      entry.instance = leaf.instance;
      entry.fraction = frac;
      entry.exact = leaf.rule.is_exact();
      entry.demand = leaf.rule.amount * frac;
    }
  }

  // Usage pass: Exact phases first, proportionally, capped at their demand;
  // the remainder goes to Variable phases by weight.
  for (std::size_t s = 0; s < width; ++s) {
    const std::span<AttributionEntry> entries(
        out.entries.data() + out.slice_offsets[s],
        out.entries.data() + out.slice_offsets[s + 1]);
    if (entries.empty()) continue;
    double sum_exact = 0.0;
    double sum_weight = 0.0;
    for (const AttributionEntry& entry : entries) {
      (entry.exact ? sum_exact : sum_weight) += entry.demand;
    }
    const SliceSplit split = split_slice(
        out.upsampled.usage[static_cast<std::size_t>(first) + s], sum_exact);
    for (AttributionEntry& entry : entries) {
      if (entry.exact) {
        entry.usage = entry.demand * split.exact_scale;
      } else {
        entry.usage = sum_weight > kEps
                          ? split.remaining * entry.demand / sum_weight
                          : 0.0;
      }
    }
  }
  return true;
}

void release_table(AttributedResource& resource) {
  resource.first_slice = 0;
  resource.slice_offsets = std::vector<std::uint32_t>();
  resource.entries = std::vector<AttributionEntry>();
}

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
    slots[m] = attribute_series(demand[m], *series[m], grid,
                                constant_strawman);
    AttributionWindows(demand[m], std::max<TimesliceIndex>(
                                      1, demand[m].slice_count))
        .next(slots[m]);
  });

  AttributedUsage result;
  for (std::size_t m = 0; m < demand.size(); ++m) {
    if (series[m] == nullptr) continue;
    result.resources.push_back(std::move(slots[m]));
  }
  return result;
}

}  // namespace g10::core
