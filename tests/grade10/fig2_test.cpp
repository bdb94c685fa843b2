// Integration test reproducing the paper's Figure 2 worked example
// (§III-D/E) with the concrete instance documented in DESIGN.md §4.
//
// Index mapping: the paper's timeslices 1..6 are slices 0..5 here.
//  - P1 = slices 0-1, P2 = slices 1-4, P3 = slices 2-3, P4 = slices 4-5.
//  - Rules: P1xR1 Var(1), P2xR1 Var(2), P2xR2 Var(1), P2xR3 Exact(80),
//           P3xR2 Exact(50), P3xR3 Var(1), P4xR1 Var(1); all others None.
//  - R2 measured at 40% over paper-slices 2-3 -> upsampled 15% / 65%.
//  - R3 at 80% in paper-slice 2 (P2 pinned at its Exact cap) and 100% in
//    paper-slice 3 (saturation: P2 and P3 both bottlenecked).
#include <gtest/gtest.h>

#include "grade10/bottleneck/bottleneck.hpp"
#include "grade10/pipeline.hpp"
#include "test_util.hpp"

namespace g10::core {
namespace {

using testing::add_phase;
using testing::make_sample;

class Fig2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    const PhaseTypeId root = execution_.add_root("Workload");
    p1_ = execution_.add_child(root, "P1");
    p2_ = execution_.add_child(root, "P2");
    p3_ = execution_.add_child(root, "P3");
    p4_ = execution_.add_child(root, "P4");
    r1_ = resources_.add_consumable("R1", 100.0);
    r2_ = resources_.add_consumable("R2", 100.0);
    r3_ = resources_.add_consumable("R3", 100.0);

    rules_ = AttributionRuleSet(AttributionRule::none());
    rules_.set(p1_, r1_, AttributionRule::variable(1.0));
    rules_.set(p2_, r1_, AttributionRule::variable(2.0));
    rules_.set(p2_, r2_, AttributionRule::variable(1.0));
    rules_.set(p2_, r3_, AttributionRule::exact(80.0));
    rules_.set(p3_, r2_, AttributionRule::exact(50.0));
    rules_.set(p3_, r3_, AttributionRule::variable(1.0));
    rules_.set(p4_, r1_, AttributionRule::variable(1.0));

    add_phase(events_, "Workload.0", 0, 60);
    add_phase(events_, "Workload.0/P1.0", 0, 20, 0);
    add_phase(events_, "Workload.0/P2.0", 10, 50, 0);
    add_phase(events_, "Workload.0/P3.0", 20, 40, 0);
    add_phase(events_, "Workload.0/P4.0", 40, 60, 0);

    // Monitoring at 2-slice quanta, aligned as in the running text:
    // windows [0,10), [10,30), [30,50), [50,60).
    const auto add = [this](const std::string& r, TimeNs t, double v) {
      samples_.push_back(make_sample(r, 0, t, v));
    };
    add("R1", 10, 60.0);
    add("R1", 30, 95.0);  // R1 saturates in paper-slice 2, ~90% in slice 3
    add("R1", 50, 70.0);
    add("R1", 60, 40.0);
    add("R2", 10, 0.0);
    add("R2", 30, 40.0);   // the paper's 40% average
    add("R2", 50, 30.0);
    add("R2", 60, 0.0);
    add("R3", 10, 0.0);
    add("R3", 30, 90.0);   // 80% then 100%
    add("R3", 50, 40.0);
    add("R3", 60, 0.0);
  }

  CharacterizationResult run() {
    CharacterizationInput input;
    input.model = &execution_;
    input.resources = &resources_;
    input.rules = &rules_;
    input.phase_events = events_;
    input.samples = samples_;
    input.config.timeslice = 10;
    input.config.min_issue_impact = 0.0;
    return characterize(input);
  }

  /// The whole-table stages over a pipeline result's trace, which keeps
  /// neither demand nor tables.
  std::vector<DemandMatrix> demand(const CharacterizationResult& result) {
    return estimate_demand(resources_, rules_, result.trace, result.grid);
  }

  ExecutionModel execution_;
  ResourceModel resources_;
  AttributionRuleSet rules_{AttributionRule::none()};
  PhaseTypeId p1_{}, p2_{}, p3_{}, p4_{};
  ResourceId r1_{}, r2_{}, r3_{};
  std::vector<trace::PhaseEventRecord> events_;
  std::vector<trace::MonitoringSampleRecord> samples_;
};

TEST_F(Fig2Test, UpsamplingMatchesPaperNumbers) {
  const auto result = run();
  const AttributedResource* r2 = result.usage.find(r2_, 0);
  ASSERT_NE(r2, nullptr);
  // Paper §III-D2: 40% over paper-slices 2-3 splits into 15% and 65%.
  EXPECT_NEAR(r2->upsampled.usage[1], 15.0, 1e-9);
  EXPECT_NEAR(r2->upsampled.usage[2], 65.0, 1e-9);

  const AttributedResource* r3 = result.usage.find(r3_, 0);
  ASSERT_NE(r3, nullptr);
  EXPECT_NEAR(r3->upsampled.usage[1], 80.0, 1e-9);
  EXPECT_NEAR(r3->upsampled.usage[2], 100.0, 1e-9);
}

TEST_F(Fig2Test, AttributionMatchesPaperNumbers) {
  const auto result = run();
  const AttributedUsage usage =
      attribute_usage(demand(result), result.monitored, result.grid);
  const AttributedResource* r2 = usage.find(r2_, 0);
  ASSERT_NE(r2, nullptr);
  // Paper §III-D3: at paper-slice 3, P3 (Exact) gets 50%, P2 gets 15%.
  const InstanceId p2 = result.trace.find("Workload.0/P2.0");
  const InstanceId p3 = result.trace.find("Workload.0/P3.0");
  double p2_usage = -1.0;
  double p3_usage = -1.0;
  for (const auto& entry : r2->slice_entries(2)) {
    if (entry.instance == p2) p2_usage = entry.usage;
    if (entry.instance == p3) p3_usage = entry.usage;
  }
  EXPECT_NEAR(p3_usage, 50.0, 1e-9);
  EXPECT_NEAR(p2_usage, 15.0, 1e-9);
}

TEST_F(Fig2Test, BottleneckClassification) {
  const auto result = run();
  const InstanceId p2 = result.trace.find("Workload.0/P2.0");
  const InstanceId p3 = result.trace.find("Workload.0/P3.0");

  // Paper-slice 2: R3 at 80% = P2's Exact cap, resource not saturated
  // -> self-limit bottleneck for P2.
  const auto self_limited = result.bottlenecks.self_limited;
  const auto it = self_limited.find({p2, r3_});
  ASSERT_NE(it, self_limited.end());
  EXPECT_GE(it->second, 10);

  // Paper-slice 3: R3 saturated -> both P2 and P3 bottlenecked.
  EXPECT_GE(result.bottlenecks.saturated.at({p2, r3_}), 10);
  EXPECT_GE(result.bottlenecks.saturated.at({p3, r3_}), 10);

  // R1 saturation flagged in paper-slice 2 (the water-fill pushes its
  // measured mass to capacity there), not before.
  const ResourceSaturation* sat = result.bottlenecks.find_saturation(r1_, 0);
  ASSERT_NE(sat, nullptr);
  EXPECT_TRUE(sat->saturated[1]);
  EXPECT_FALSE(sat->saturated[0]);
}

TEST_F(Fig2Test, IssueDetectionRanksR3AndR1) {
  const auto result = run();
  // Removing the R3 bottleneck helps, but R1 is the next binding resource
  // (paper §III-F): both issues must be present with positive impact.
  double r1_impact = -1.0;
  double r3_impact = -1.0;
  for (const auto& issue : result.issues) {
    if (issue.kind != IssueKind::kResourceBottleneck) continue;
    if (issue.resource == r1_) r1_impact = issue.impact;
    if (issue.resource == r3_) r3_impact = issue.impact;
  }
  EXPECT_GT(r1_impact, 0.0);
  EXPECT_GT(r3_impact, 0.0);
}

TEST_F(Fig2Test, DemandMatrixMatchesRules) {
  const auto result = run();
  const std::vector<DemandMatrix> matrices = demand(result);
  const DemandMatrix* r2 = nullptr;
  for (const auto& m : matrices) {
    if (m.resource == r2_) r2 = &m;
  }
  ASSERT_NE(r2, nullptr);
  // Paper-slice 2 (our 1): only P2's Variable(1y); paper-slice 3: + P3's 50%.
  EXPECT_NEAR(r2->exact[1], 0.0, 1e-9);
  EXPECT_NEAR(r2->variable[1], 1.0, 1e-9);
  EXPECT_NEAR(r2->exact[2], 50.0, 1e-9);
  EXPECT_NEAR(r2->variable[2], 1.0, 1e-9);
}

}  // namespace
}  // namespace g10::core
