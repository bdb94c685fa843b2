#include "grade10/attribution/attributor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/rng.hpp"
#include "test_util.hpp"

namespace g10::core {
namespace {

using testing::add_phase;
using testing::make_sample;

struct Fixture {
  ExecutionModel execution;
  ResourceModel resources;
  AttributionRuleSet rules;
  PhaseTypeId parent = kNoPhaseType;
  PhaseTypeId a = kNoPhaseType;
  PhaseTypeId b = kNoPhaseType;
  ResourceId cpu = kNoResource;

  Fixture() {
    const PhaseTypeId job = execution.add_root("Job");
    parent = execution.add_child(job, "Group");
    a = execution.add_child(parent, "A");
    b = execution.add_child(parent, "B");
    cpu = resources.add_consumable("cpu", 4.0);
    rules.set(a, cpu, AttributionRule::exact(2.0));
    rules.set(b, cpu, AttributionRule::variable(1.0));
  }

  struct Built {
    ExecutionTrace trace;
    std::vector<DemandMatrix> demand;
    AttributedUsage usage;
  };

  Built build(const std::vector<trace::PhaseEventRecord>& events,
              const std::vector<trace::MonitoringSampleRecord>& samples) {
    const TimesliceGrid grid(10);
    Built out{ExecutionTrace::build(execution, resources, events, {}), {}, {}};
    out.demand = estimate_demand(resources, rules, out.trace, grid);
    const auto monitored = ResourceTrace::build(resources, samples);
    out.usage = attribute_usage(out.demand, monitored, grid);
    return out;
  }
};

TEST(AttributorTest, ExactPhaseFirstThenVariable) {
  Fixture f;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 10);
  add_phase(events, "Job.0/Group.0", 0, 10);
  add_phase(events, "Job.0/Group.0/A.0", 0, 10, 0);
  add_phase(events, "Job.0/Group.0/B.0", 0, 10, 0);
  // One slice at consumption 3.0: A (exact 2) gets 2, B gets 1.
  const auto built = f.build(events, {make_sample("cpu", 0, 10, 3.0)});
  ASSERT_EQ(built.usage.resources.size(), 1u);
  const AttributedResource& r = built.usage.resources[0];
  const auto entries = r.slice_entries(0);
  ASSERT_EQ(entries.size(), 2u);
  double a_usage = 0.0;
  double b_usage = 0.0;
  for (const auto& entry : entries) {
    const auto& instance = built.trace.instance(entry.instance);
    (instance.path.ends_with("A.0") ? a_usage : b_usage) = entry.usage;
  }
  EXPECT_NEAR(a_usage, 2.0, 1e-9);
  EXPECT_NEAR(b_usage, 1.0, 1e-9);
}

TEST(AttributorTest, ExactCappedWhenConsumptionLow) {
  Fixture f;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 10);
  add_phase(events, "Job.0/Group.0", 0, 10);
  add_phase(events, "Job.0/Group.0/A.0", 0, 10, 0);
  const auto built = f.build(events, {make_sample("cpu", 0, 10, 1.0)});
  const auto entries = built.usage.resources[0].slice_entries(0);
  ASSERT_EQ(entries.size(), 1u);
  // Consumption below the exact demand: A gets all of it, scaled.
  EXPECT_NEAR(entries[0].usage, 1.0, 1e-9);
  EXPECT_TRUE(entries[0].exact);
  EXPECT_NEAR(entries[0].demand, 2.0, 1e-9);
}

TEST(AttributorTest, LeftoverWithoutVariablePhasesIsUnattributed) {
  Fixture f;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 10);
  add_phase(events, "Job.0/Group.0", 0, 10);
  add_phase(events, "Job.0/Group.0/A.0", 0, 10, 0);
  const auto built = f.build(events, {make_sample("cpu", 0, 10, 3.5)});
  const AttributedResource& r = built.usage.resources[0];
  // A takes its exact 2.0; 1.5 has no variable consumer.
  EXPECT_NEAR(r.unattributed[0], 1.5, 1e-9);
}

TEST(AttributorTest, ConsumptionWithNoActivePhases) {
  Fixture f;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 20);
  add_phase(events, "Job.0/Group.0", 0, 20);
  add_phase(events, "Job.0/Group.0/A.0", 0, 10, 0);
  const auto built = f.build(
      events,
      {make_sample("cpu", 0, 10, 2.0), make_sample("cpu", 0, 20, 1.0)});
  const AttributedResource& r = built.usage.resources[0];
  // Slice 1 has consumption but no phases: fully unattributed.
  EXPECT_GT(r.unattributed[1], 0.0);
}

TEST(AttributorTest, FindLocatesResourceInstance) {
  Fixture f;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 10);
  add_phase(events, "Job.0/Group.0", 0, 10);
  add_phase(events, "Job.0/Group.0/A.0", 0, 10, 0);
  const auto built = f.build(events, {make_sample("cpu", 0, 10, 1.0)});
  EXPECT_NE(built.usage.find(f.cpu, 0), nullptr);
  EXPECT_EQ(built.usage.find(f.cpu, 9), nullptr);
}

TEST(AttributorTest, ConstantStrawmanSelectable) {
  Fixture f;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 20);
  add_phase(events, "Job.0/Group.0", 0, 20);
  add_phase(events, "Job.0/Group.0/A.0", 10, 20, 0);
  const TimesliceGrid grid(10);
  const auto trace = ExecutionTrace::build(f.execution, f.resources, events, {});
  const auto demand = estimate_demand(f.resources, f.rules, trace, grid);
  const auto monitored = ResourceTrace::build(
      f.resources, std::vector<trace::MonitoringSampleRecord>{
                       make_sample("cpu", 0, 20, 1.0)});
  const auto smart = attribute_usage(demand, monitored, grid, false);
  const auto constant = attribute_usage(demand, monitored, grid, true);
  // Grade10 places the mass in slice 1 (where A is active); the strawman
  // spreads it evenly.
  EXPECT_NEAR(smart.resources[0].upsampled.usage[1], 2.0, 1e-9);
  EXPECT_NEAR(constant.resources[0].upsampled.usage[0], 1.0, 1e-9);
  EXPECT_NEAR(constant.resources[0].upsampled.usage[1], 1.0, 1e-9);
}

// Property: per slice, the attributed usage sums to the upsampled
// consumption (up to the reported unattributed remainder), Exact entries
// never exceed their demand, and nothing is negative.
class AttributionInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(AttributionInvariantTest, SliceSumsAndCapsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271);
  ExecutionModel model;
  const PhaseTypeId job = model.add_root("Job");
  std::vector<PhaseTypeId> types;
  for (int i = 0; i < 4; ++i) {
    types.push_back(model.add_child(job, "T" + std::to_string(i)));
  }
  ResourceModel resources;
  const ResourceId cpu = resources.add_consumable("cpu", 8.0);
  AttributionRuleSet rules;
  for (const PhaseTypeId t : types) {
    if (rng.next_bool(0.4)) {
      rules.set(t, cpu, AttributionRule::exact(rng.next_double(0.5, 3.0)));
    } else if (rng.next_bool(0.2)) {
      rules.set(t, cpu, AttributionRule::none());
    }  // else: default Variable(1)
  }

  const TimeNs horizon = 200;
  std::vector<trace::PhaseEventRecord> events;
  testing::add_phase(events, "Job.0", 0, horizon);
  int index = 0;
  for (const PhaseTypeId t : types) {
    const int instances = static_cast<int>(rng.next_int(1, 3));
    for (int k = 0; k < instances; ++k) {
      const TimeNs begin = rng.next_int(0, horizon - 20);
      const TimeNs end = rng.next_int(begin + 5, horizon);
      testing::add_phase(events,
                         "Job.0/T" + std::to_string(t - 1) + "." +
                             std::to_string(index++ % 4),
                         begin, end, 0);
    }
    index = 0;
  }
  std::vector<trace::MonitoringSampleRecord> samples;
  for (TimeNs t = 40; t <= horizon; t += 40) {
    samples.push_back(testing::make_sample("cpu", 0, t,
                                           rng.next_double(0.0, 8.0)));
  }

  const TimesliceGrid grid(10);
  const auto trace = ExecutionTrace::build(model, resources, events, {});
  const auto demand = estimate_demand(resources, rules, trace, grid);
  const auto monitored = ResourceTrace::build(resources, samples);
  const auto usage = attribute_usage(demand, monitored, grid);
  ASSERT_EQ(usage.resources.size(), 1u);
  const AttributedResource& r = usage.resources[0];
  for (TimesliceIndex s = 0; s < r.slice_count(); ++s) {
    double attributed = 0.0;
    for (const auto& entry : r.slice_entries(s)) {
      ASSERT_GE(entry.usage, -1e-9);
      if (entry.exact) {
        ASSERT_LE(entry.usage, entry.demand + 1e-9);
      }
      attributed += entry.usage;
    }
    const double consumption = r.upsampled.usage[static_cast<std::size_t>(s)];
    ASSERT_LE(consumption, r.capacity + 1e-6);
    ASSERT_NEAR(attributed + r.unattributed[static_cast<std::size_t>(s)],
                consumption, 1e-6)
        << "slice " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttributionInvariantTest,
                         ::testing::Range(1, 11));

// The per-slice pointer-bucket attribution the slice table replaced, kept as
// the oracle: bucket every leaf's active slices, then attribute slice by
// slice, appending one entry per bucketed leaf.
struct SliceTable {
  std::vector<std::uint32_t> slice_offsets;
  std::vector<AttributionEntry> entries;
  std::vector<double> unattributed;
};

double leaf_fraction(const LeafDemand& leaf, std::size_t slice) {
  return leaf.active_fraction[slice -
                              static_cast<std::size_t>(leaf.first_slice)];
}

SliceTable bucket_attribution(const DemandMatrix& matrix,
                              const std::vector<double>& consumption) {
  constexpr double kEps = 1e-12;
  const auto slices = static_cast<std::size_t>(matrix.slice_count);
  SliceTable out;
  out.unattributed.assign(slices, 0.0);
  out.slice_offsets.assign(slices + 1, 0);
  std::vector<std::vector<const LeafDemand*>> per_slice(slices);
  for (const LeafDemand& leaf : matrix.leaves) {
    for (std::size_t i = 0; i < leaf.active_fraction.size(); ++i) {
      if (leaf.active_fraction[i] <= 0.0) continue;
      const auto slice = static_cast<std::size_t>(leaf.first_slice) + i;
      if (slice < slices) per_slice[slice].push_back(&leaf);
    }
  }
  for (std::size_t s = 0; s < slices; ++s) {
    out.slice_offsets[s] = static_cast<std::uint32_t>(out.entries.size());
    if (per_slice[s].empty()) {
      out.unattributed[s] = consumption[s];
      continue;
    }
    double sum_exact = 0.0;
    double sum_weight = 0.0;
    for (const LeafDemand* leaf : per_slice[s]) {
      const double frac = leaf_fraction(*leaf, s);
      (leaf->rule.is_exact() ? sum_exact : sum_weight) +=
          leaf->rule.amount * frac;
    }
    const double exact_scale =
        sum_exact > kEps ? std::min(1.0, consumption[s] / sum_exact) : 0.0;
    const double remaining = consumption[s] - sum_exact * exact_scale;
    for (const LeafDemand* leaf : per_slice[s]) {
      AttributionEntry entry;
      entry.instance = leaf->instance;
      entry.fraction = leaf_fraction(*leaf, s);
      entry.exact = leaf->rule.is_exact();
      entry.demand = leaf->rule.amount * entry.fraction;
      if (entry.exact) {
        entry.usage = entry.demand * exact_scale;
      } else {
        entry.usage =
            sum_weight > kEps ? remaining * entry.demand / sum_weight : 0.0;
      }
      out.entries.push_back(entry);
    }
    if (sum_weight <= kEps && remaining > kEps) {
      out.unattributed[s] = remaining;
    }
  }
  out.slice_offsets[slices] = static_cast<std::uint32_t>(out.entries.size());
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Seeded random leaves (Exact-only, Variable-only or mixed rules by seed),
// with blocked gaps inside a leaf's range and a band of slices no leaf
// covers; the slice table must equal the bucket oracle bit for bit.
void expect_slice_table_matches_buckets(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  ResourceModel resources;
  const ResourceId cpu = resources.add_consumable("cpu", 8.0);
  constexpr TimesliceIndex kSlices = 64;
  constexpr TimesliceIndex kGapBegin = 30;  // [30, 36): no leaf is active
  constexpr TimesliceIndex kGapEnd = 36;

  DemandMatrix matrix;
  matrix.resource = cpu;
  matrix.machine = 0;
  matrix.capacity = 8.0;
  matrix.slice_count = kSlices;
  matrix.exact.assign(kSlices, 0.0);
  matrix.variable.assign(kSlices, 0.0);
  const int mode = seed % 3;  // 0 Exact-only, 1 Variable-only, 2 mixed
  const int leaf_count = static_cast<int>(rng.next_int(4, 24));
  bool blocked_gap = false;
  for (int l = 0; l < leaf_count; ++l) {
    const bool exact = mode == 0 || (mode == 2 && rng.next_bool(0.5));
    LeafDemand leaf;
    leaf.instance = static_cast<InstanceId>(l);
    leaf.rule = exact ? AttributionRule::exact(rng.next_double(0.5, 3.0))
                      : AttributionRule::variable(rng.next_double(0.5, 2.0));
    const bool early = rng.next_bool(0.5);
    const TimesliceIndex lo = early ? 0 : kGapEnd;
    const TimesliceIndex hi = early ? kGapBegin : kSlices;
    leaf.first_slice = rng.next_int(lo, hi - 1);
    const auto length = rng.next_int(1, hi - leaf.first_slice);
    for (std::int64_t i = 0; i < length; ++i) {
      // Interior zeros are blocked gaps; the ends are partial slices.
      const bool gap = i > 0 && i + 1 < length && rng.next_bool(0.25);
      blocked_gap = blocked_gap || gap;
      leaf.active_fraction.push_back(gap ? 0.0 : rng.next_double(0.05, 1.0));
    }
    for (std::size_t i = 0; i < leaf.active_fraction.size(); ++i) {
      const auto slice = static_cast<std::size_t>(leaf.first_slice) + i;
      const double demand = leaf.rule.amount * leaf.active_fraction[i];
      (exact ? matrix.exact : matrix.variable)[slice] += demand;
    }
    matrix.leaves.push_back(std::move(leaf));
  }

  std::vector<trace::MonitoringSampleRecord> samples;
  for (TimeNs t = 40; t <= 10 * kSlices; t += 40) {
    samples.push_back(make_sample("cpu", 0, t, rng.next_double(0.0, 8.0)));
  }
  const TimesliceGrid grid(10);
  const auto monitored = ResourceTrace::build(resources, samples);
  const AttributedUsage usage = attribute_usage({matrix}, monitored, grid);
  ASSERT_EQ(usage.resources.size(), 1u);
  const AttributedResource& table = usage.resources[0];
  const SliceTable oracle =
      bucket_attribution(matrix, table.upsampled.usage);

  EXPECT_EQ(table.slice_offsets, oracle.slice_offsets);
  ASSERT_EQ(table.unattributed.size(), oracle.unattributed.size());
  for (std::size_t s = 0; s < oracle.unattributed.size(); ++s) {
    EXPECT_EQ(bits(table.unattributed[s]), bits(oracle.unattributed[s]))
        << "slice " << s;
  }
  ASSERT_EQ(table.entries.size(), oracle.entries.size());
  for (std::size_t e = 0; e < oracle.entries.size(); ++e) {
    const AttributionEntry& got = table.entries[e];
    const AttributionEntry& want = oracle.entries[e];
    EXPECT_EQ(got.instance, want.instance) << "entry " << e;
    EXPECT_EQ(got.exact, want.exact) << "entry " << e;
    EXPECT_EQ(bits(got.usage), bits(want.usage)) << "entry " << e;
    EXPECT_EQ(bits(got.demand), bits(want.demand)) << "entry " << e;
    EXPECT_EQ(bits(got.fraction), bits(want.fraction)) << "entry " << e;
  }
  // The inputs reach every case: blocked gaps inside a leaf, and a slice
  // with consumption but no active leaf (its measurement window, slices
  // 32-35, lies inside the band).
  EXPECT_TRUE(blocked_gap);
  EXPECT_TRUE(table.slice_entries(32).empty());
  EXPECT_GT(table.upsampled.usage[32], 0.0);
  EXPECT_EQ(bits(table.unattributed[32]), bits(table.upsampled.usage[32]));
}

TEST(AttributorTest, SliceTableMatchesPerSliceBuckets) {
  for (int seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_slice_table_matches_buckets(seed);
  }
}

}  // namespace
}  // namespace g10::core
