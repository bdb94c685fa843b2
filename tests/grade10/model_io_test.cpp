#include "grade10/model/model_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "grade10/models/gas_model.hpp"
#include "grade10/models/pregel_model.hpp"

namespace g10::core {
namespace {

ModelParseResult parse(const std::string& text) {
  std::istringstream is(text);
  return parse_model(is);
}

TEST(ModelIoTest, ParsesMinimalModel) {
  const auto result = parse(
      "# comment\n"
      "PHASE Job\n"
      "PHASE Work PARENT=Job\n"
      "RESOURCE cpu CONSUMABLE CAPACITY=8\n"
      "RULE Work cpu EXACT 1\n");
  ASSERT_TRUE(result.ok()) << result.error->message;
  const auto& m = result.model;
  EXPECT_EQ(m.execution.type_count(), 2u);
  EXPECT_EQ(m.execution.find("Work"),
            m.execution.type(m.execution.find("Job")).children[0]);
  EXPECT_DOUBLE_EQ(m.resources.resource(m.resources.find("cpu")).capacity,
                   8.0);
  EXPECT_TRUE(
      m.rules.get(m.execution.find("Work"), m.resources.find("cpu")).is_exact());
}

TEST(ModelIoTest, ParsesAttributes) {
  const auto result = parse(
      "PHASE Job\n"
      "PHASE Step PARENT=Job REPEATED\n"
      "PHASE Wait PARENT=Job WAIT\n"
      "PHASE Thread PARENT=Step LIMIT=16\n"
      "ORDER Step Wait\n"
      "RESOURCE lock BLOCKING GLOBAL\n"
      "DEFAULT NONE\n");
  ASSERT_TRUE(result.ok()) << result.error->message;
  const auto& m = result.model;
  EXPECT_TRUE(m.execution.type(m.execution.find("Step")).repeated);
  EXPECT_TRUE(m.execution.type(m.execution.find("Wait")).wait);
  EXPECT_EQ(m.execution.type(m.execution.find("Thread")).concurrency_limit,
            16);
  EXPECT_EQ(m.resources.resource(m.resources.find("lock")).scope,
            ResourceScope::kGlobal);
  EXPECT_TRUE(m.rules.default_rule().is_none());
  EXPECT_EQ(m.execution.type(m.execution.find("Step")).successors.size(), 1u);
}

TEST(ModelIoTest, RejectsMalformedInput) {
  const auto expect_error = [](const std::string& text,
                               std::size_t line_number) {
    const auto result = parse(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.error->line_number, line_number) << text;
  };
  expect_error("PHASE Job\nPHASE Orphan\n", 2);             // missing PARENT
  expect_error("PHASE Job\nPHASE A PARENT=Nope\n", 2);      // unknown parent
  expect_error("PHASE Job PARENT=Job\n", 1);                // root with parent
  expect_error("PHASE Job\nRESOURCE cpu CONSUMABLE\n", 2);  // no capacity
  expect_error("PHASE Job\nRULE Job cpu EXACT 1\n", 2);     // unknown resource
  expect_error("PHASE Job\nWHAT is this\n", 2);
  expect_error("", 0);  // no phases at all
  expect_error("PHASE Job\nPHASE A PARENT=Job LIMIT=x\n", 2);
  expect_error("PHASE Job\nDEFAULT EXACT 1\n", 2);          // exact default
}

TEST(ModelIoTest, DefaultAfterRulesPreservesThem) {
  const auto result = parse(
      "PHASE Job\n"
      "PHASE Work PARENT=Job\n"
      "RESOURCE cpu CONSUMABLE CAPACITY=4\n"
      "RULE Work cpu EXACT 2\n"
      "DEFAULT NONE\n");
  ASSERT_TRUE(result.ok()) << result.error->message;
  const auto& m = result.model;
  EXPECT_TRUE(m.rules.default_rule().is_none());
  const AttributionRule rule =
      m.rules.get(m.execution.find("Work"), m.resources.find("cpu"));
  EXPECT_TRUE(rule.is_exact());
  EXPECT_DOUBLE_EQ(rule.amount, 2.0);
}

TEST(ModelIoTest, ToleratesExtraWhitespace) {
  const auto result = parse(
      "PHASE   Job\n"
      "  PHASE Work   PARENT=Job  \n"
      "RESOURCE  cpu  CONSUMABLE  CAPACITY=4\n");
  ASSERT_TRUE(result.ok()) << result.error->message;
  EXPECT_EQ(result.model.execution.type_count(), 2u);
}

TEST(ModelIoTest, OrderMustConnectSiblings) {
  const auto result = parse(
      "PHASE Job\n"
      "PHASE A PARENT=Job\n"
      "PHASE B PARENT=A\n"
      "ORDER A B\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line_number, 4u);
}

TEST(ModelIoTest, DetectsOrderCycles) {
  const auto result = parse(
      "PHASE Job\n"
      "PHASE A PARENT=Job\n"
      "PHASE B PARENT=Job\n"
      "ORDER A B\n"
      "ORDER B A\n");
  ASSERT_FALSE(result.ok());  // caught by final validate()
}

TEST(ModelIoTest, RejectsSelfOrder) {
  // A phase ordered before itself is a one-phase cycle, rejected at its
  // ORDER line like any other (it used to escape as an internal check).
  const auto result = parse(
      "PHASE Job\n"
      "PHASE A PARENT=Job\n"
      "ORDER A A\n"
      "RESOURCE cpu CONSUMABLE CAPACITY=4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line_number, 3u);
  EXPECT_EQ(result.error->message,
            "ORDER edges among siblings of 'Job' form a cycle; no instance "
            "order can satisfy them");
  ASSERT_EQ(result.defects.size(), 1u);
  EXPECT_EQ(result.defects[0].rule_id, "model-order-cycle");
  EXPECT_EQ(result.defects[0].context, "A");
}

TEST(ModelIoTest, CycleErrorNamesItsOrderLine) {
  const auto result = parse(
      "PHASE Job\n"
      "PHASE A PARENT=Job\n"
      "PHASE B PARENT=Job\n"
      "ORDER A B\n"
      "ORDER B A\n"
      "RESOURCE cpu CONSUMABLE CAPACITY=4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line_number, 4u);
  EXPECT_EQ(result.error->message.find("check failed"), std::string::npos)
      << result.error->message;
}

TEST(ModelIoTest, RecordsEveryDefectWithItsResponse) {
  using Response = ModelDefect::Response;
  const auto result = parse(
      "PHASE Job\n"
      "PHASE Work PARENT=Job LIMIT=2147483648\n"   // past int: rejected
      "RESOURCE cpu CONSUMABLE CAPACITY=nan\n"     // not positive: rejected
      "RESOURCE net CONSUMABLE CAPACITY=4\n"
      "RULE Work net EXACT 2\n"
      "RULE Work net VARIABLE 1\n"                 // conflict: last wins
      "RULE Job net VARIABLE 1\n");                // interior: ignored
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line_number, 2u);
  std::vector<std::pair<std::string, Response>> seen;
  for (const ModelDefect& defect : result.defects) {
    seen.emplace_back(defect.rule_id, defect.response);
  }
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, Response>>{
                      {"model-syntax", Response::kReject},
                      {"model-syntax", Response::kReject},
                      {"model-rule-conflict", Response::kReport},
                      {"model-rule-interior-phase", Response::kReport}}));
}

TEST(ModelIoTest, EveryParentNamedMustBeDeclared) {
  // The last PARENT= places the phase, but an undeclared earlier one is
  // still an error, reported once.
  const auto result = parse(
      "PHASE Job\n"
      "PHASE Load PARENT=Job\n"
      "PHASE Work PARENT=Ghost PARENT=Load PARENT=Ghost PARENT=Load\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line_number, 3u);
  ASSERT_EQ(result.defects.size(), 1u);
  EXPECT_EQ(result.defects[0].rule_id, "model-unknown-parent");
  EXPECT_EQ(result.defects[0].message,
            "phase 'Work' names parent 'Ghost', which is not declared before "
            "it");
}

TEST(ModelIoTest, ReportOnlyDefectsStillParse) {
  const auto result = parse(
      "PHASE Job\n"
      "PHASE Work PARENT=Job\n"
      "RESOURCE cpu CONSUMABLE CAPACITY=4\n"
      "RULE Work cpu EXACT 2\n"
      "RULE Work cpu VARIABLE 1\n");
  ASSERT_TRUE(result.ok()) << result.error->message;
  ASSERT_EQ(result.defects.size(), 1u);
  EXPECT_EQ(result.defects[0].rule_id, "model-rule-conflict");
  const auto& m = result.model;
  EXPECT_TRUE(
      m.rules.get(m.execution.find("Work"), m.resources.find("cpu"))
          .is_variable());
}

TEST(ModelIoTest, TinyAmountsSurviveTheWriter) {
  const auto result = parse(
      "PHASE Job\n"
      "RESOURCE cpu CONSUMABLE CAPACITY=0.0000001\n");
  ASSERT_TRUE(result.ok()) << result.error->message;
  std::ostringstream os;
  write_model(os, result.model.execution, result.model.resources,
              result.model.rules);
  const auto reread = parse(os.str());
  ASSERT_TRUE(reread.ok()) << os.str();
  EXPECT_DOUBLE_EQ(reread.model.resources.resource(0).capacity, 1e-7);
}

class FrameworkRoundTripTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(FrameworkRoundTripTest, WriteParseRoundTrip) {
  const FrameworkModel original =
      std::string(GetParam()) == "pregel"
          ? make_pregel_model({})
          : make_gas_model({});
  std::ostringstream os;
  write_model(os, original.execution, original.resources,
              original.tuned_rules);
  const auto result = parse(os.str());
  ASSERT_TRUE(result.ok()) << result.error->message << "\n" << os.str();
  const auto& parsed = result.model;

  ASSERT_EQ(parsed.execution.type_count(), original.execution.type_count());
  for (PhaseTypeId id = 0;
       id < static_cast<PhaseTypeId>(original.execution.type_count()); ++id) {
    const PhaseType& a = original.execution.type(id);
    const PhaseTypeId pid = parsed.execution.find(a.name);
    ASSERT_NE(pid, kNoPhaseType) << a.name;
    const PhaseType& b = parsed.execution.type(pid);
    EXPECT_EQ(a.repeated, b.repeated) << a.name;
    EXPECT_EQ(a.wait, b.wait) << a.name;
    EXPECT_EQ(a.concurrency_limit, b.concurrency_limit) << a.name;
    EXPECT_EQ(a.successors.size(), b.successors.size()) << a.name;
  }
  ASSERT_EQ(parsed.resources.resource_count(),
            original.resources.resource_count());
  for (ResourceId id = 0;
       id < static_cast<ResourceId>(original.resources.resource_count());
       ++id) {
    const Resource& a = original.resources.resource(id);
    const ResourceId pid = parsed.resources.find(a.name);
    ASSERT_NE(pid, kNoResource) << a.name;
    const Resource& b = parsed.resources.resource(pid);
    EXPECT_EQ(a.kind, b.kind) << a.name;
    EXPECT_EQ(a.scope, b.scope) << a.name;
    EXPECT_NEAR(a.capacity, b.capacity, 1e-6) << a.name;
  }
  // Every explicit rule survives (ids may differ; compare via names).
  EXPECT_EQ(parsed.rules.explicit_rule_count(),
            original.tuned_rules.explicit_rule_count());
  for (const auto& [key, rule] : original.tuned_rules.explicit_rules()) {
    const PhaseTypeId phase =
        parsed.execution.find(original.execution.type(key.first).name);
    const ResourceId resource =
        parsed.resources.find(original.resources.resource(key.second).name);
    const AttributionRule parsed_rule = parsed.rules.get(phase, resource);
    EXPECT_EQ(parsed_rule.kind, rule.kind);
    EXPECT_NEAR(parsed_rule.amount, rule.amount, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Frameworks, FrameworkRoundTripTest,
                         ::testing::Values("pregel", "gas"));

}  // namespace
}  // namespace g10::core
