#include "grade10/model/execution_model.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace g10::core {
namespace {

TEST(ExecutionModelTest, BuildsHierarchy) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId load = m.add_child(job, "Load");
  const PhaseTypeId run = m.add_child(job, "Run");
  const PhaseTypeId step = m.add_child(run, "Step", /*repeated=*/true);
  m.add_order(load, run);
  m.validate();

  EXPECT_EQ(m.root(), job);
  EXPECT_EQ(m.type(job).children.size(), 2u);
  EXPECT_EQ(m.type(step).parent, run);
  EXPECT_TRUE(m.type(step).repeated);
  EXPECT_EQ(m.find("Step"), step);
  EXPECT_EQ(m.find("Nope"), kNoPhaseType);
  EXPECT_EQ(m.type(run).predecessors.size(), 1u);
  EXPECT_EQ(m.type(load).successors.size(), 1u);
}

TEST(ExecutionModelTest, RejectsSecondRoot) {
  ExecutionModel m;
  m.add_root("Job");
  EXPECT_THROW(m.add_root("Job2"), CheckError);
}

TEST(ExecutionModelTest, RejectsDuplicateNames) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  m.add_child(job, "A");
  EXPECT_THROW(m.add_child(job, "A"), CheckError);
}

TEST(ExecutionModelTest, RejectsCrossParentOrder) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId a = m.add_child(job, "A");
  const PhaseTypeId b = m.add_child(a, "B");
  EXPECT_THROW(m.add_order(a, b), CheckError);
}

TEST(ExecutionModelTest, DetectsSiblingCycle) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId a = m.add_child(job, "A");
  const PhaseTypeId b = m.add_child(job, "B");
  m.add_order(a, b);
  m.add_order(b, a);
  EXPECT_THROW(m.validate(), CheckError);
}

TEST(ExecutionModelTest, OrderCyclesNameTheGroupAndWhatFollowsTheCycle) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId a = m.add_child(job, "A");
  const PhaseTypeId b = m.add_child(job, "B");
  const PhaseTypeId c = m.add_child(job, "C");
  const PhaseTypeId d = m.add_child(job, "D");
  const PhaseTypeId x = m.add_child(a, "X");
  const PhaseTypeId y = m.add_child(a, "Y");
  m.add_order(x, y);  // acyclic group under A
  m.add_order(d, a);
  m.add_order(a, b);
  m.add_order(b, a);
  m.add_order(b, c);
  const std::vector<ExecutionModel::OrderCycle> cycles = m.order_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].parent, job);
  // D precedes the cycle and drops out; C follows it and cannot.
  EXPECT_EQ(cycles[0].types, (std::vector<PhaseTypeId>{a, b, c}));
}

TEST(ExecutionModelTest, SelfOrderRejected) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId a = m.add_child(job, "A");
  EXPECT_THROW(m.add_order(a, a), CheckError);
}

TEST(ExecutionModelTest, WaitAndConcurrencyFlags) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId a = m.add_child(job, "A");
  m.set_wait(a);
  m.set_concurrency_limit(a, 4);
  EXPECT_TRUE(m.type(a).wait);
  EXPECT_EQ(m.type(a).concurrency_limit, 4);
  EXPECT_THROW(m.set_concurrency_limit(a, -1), CheckError);
}

TEST(ExecutionModelTest, EmptyModelFailsValidation) {
  ExecutionModel m;
  EXPECT_THROW(m.validate(), CheckError);
}

}  // namespace
}  // namespace g10::core
