// Build parity for the trace tests: a build of a read node log and a build
// of the same read's records must agree on every defect, the verdict, the
// warnings and the instance tree.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "grade10/trace/execution_trace.hpp"

namespace g10::core::testing {

inline void expect_same_build(const TraceBuild& nodes,
                              const TraceBuild& records) {
  ASSERT_EQ(nodes.defects.size(), records.defects.size());
  for (std::size_t i = 0; i < nodes.defects.size(); ++i) {
    const TraceDefect& a = nodes.defects[i];
    const TraceDefect& b = records.defects[i];
    EXPECT_EQ(a.rule_id, b.rule_id) << "defect " << i;
    EXPECT_EQ(a.context, b.context) << "defect " << i;
    EXPECT_EQ(a.message, b.message) << "defect " << i;
    EXPECT_EQ(a.response, b.response) << "defect " << i;
    EXPECT_EQ(a.error, b.error) << "defect " << i;
    EXPECT_EQ(a.repair, b.repair) << "defect " << i;
  }
  EXPECT_EQ(nodes.error, records.error);
  EXPECT_EQ(nodes.phase_machines, records.phase_machines);
  EXPECT_EQ(nodes.trace.warnings(), records.trace.warnings());
  EXPECT_EQ(nodes.trace.end_time(), records.trace.end_time());
  const auto& x = nodes.trace.instances();
  const auto& y = records.trace.instances();
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].path, y[i].path);
    EXPECT_EQ(x[i].type, y[i].type) << x[i].path;
    EXPECT_EQ(x[i].index, y[i].index) << x[i].path;
    EXPECT_EQ(x[i].parent, y[i].parent) << x[i].path;
    EXPECT_EQ(x[i].children, y[i].children) << x[i].path;
    EXPECT_EQ(x[i].begin, y[i].begin) << x[i].path;
    EXPECT_EQ(x[i].end, y[i].end) << x[i].path;
    EXPECT_EQ(x[i].machine, y[i].machine) << x[i].path;
    EXPECT_EQ(x[i].degraded, y[i].degraded) << x[i].path;
    EXPECT_EQ(x[i].blocked.size(), y[i].blocked.size()) << x[i].path;
  }
  EXPECT_EQ(nodes.trace.blocking().size(), records.trace.blocking().size());
  EXPECT_EQ(nodes.monitored.series().size(), records.monitored.series().size());
}

}  // namespace g10::core::testing
