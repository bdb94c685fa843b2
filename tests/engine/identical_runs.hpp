// Bit-for-bit comparison of two engine runs, shared by the engines'
// host-thread sweeps.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/time.hpp"
#include "monitor/sampler.hpp"
#include "trace/records.hpp"

namespace g10::engine::testing {

/// Bitwise double equality: one ULP, -0.0 against 0.0 or a NaN payload
/// counts as a difference.
inline void expect_bits_equal(double actual, double expected,
                              const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": " << actual << " vs " << expected;
}

/// Everything a run hands on — rendered phase and blocking events, the
/// monitoring samples, vertex values and comm counters — bit for bit.
inline void expect_identical_runs(const trace::RunArtifacts& actual,
                                  const trace::RunArtifacts& expected) {
  ASSERT_EQ(actual.phase_events.size(), expected.phase_events.size());
  for (std::size_t i = 0; i < expected.phase_events.size(); ++i) {
    const auto& a = actual.phase_events[i];
    const auto& e = expected.phase_events[i];
    ASSERT_EQ(a.path.to_string(), e.path.to_string()) << "phase event " << i;
    ASSERT_EQ(a.kind, e.kind) << "phase event " << i;
    ASSERT_EQ(a.time, e.time) << "phase event " << i;
    ASSERT_EQ(a.machine, e.machine) << "phase event " << i;
  }
  ASSERT_EQ(actual.blocking_events.size(), expected.blocking_events.size());
  for (std::size_t i = 0; i < expected.blocking_events.size(); ++i) {
    const auto& a = actual.blocking_events[i];
    const auto& e = expected.blocking_events[i];
    ASSERT_EQ(a.path.to_string(), e.path.to_string()) << "blocking event " << i;
    ASSERT_EQ(a.resource, e.resource) << "blocking event " << i;
    ASSERT_EQ(a.begin, e.begin) << "blocking event " << i;
    ASSERT_EQ(a.end, e.end) << "blocking event " << i;
    ASSERT_EQ(a.machine, e.machine) << "blocking event " << i;
  }
  ASSERT_EQ(actual.makespan, expected.makespan);
  const DurationNs interval = 10 * kMillisecond;
  const auto actual_samples = monitor::sample_ground_truth(
      actual.ground_truth, interval, actual.makespan);
  const auto expected_samples = monitor::sample_ground_truth(
      expected.ground_truth, interval, expected.makespan);
  ASSERT_EQ(actual_samples.size(), expected_samples.size());
  for (std::size_t i = 0; i < expected_samples.size(); ++i) {
    ASSERT_EQ(actual_samples[i].resource, expected_samples[i].resource);
    ASSERT_EQ(actual_samples[i].machine, expected_samples[i].machine);
    ASSERT_EQ(actual_samples[i].time, expected_samples[i].time);
    expect_bits_equal(actual_samples[i].value, expected_samples[i].value,
                      "sample " + std::to_string(i));
  }
  ASSERT_EQ(actual.vertex_values.size(), expected.vertex_values.size());
  for (std::size_t v = 0; v < expected.vertex_values.size(); ++v) {
    expect_bits_equal(actual.vertex_values[v], expected.vertex_values[v],
                      "vertex " + std::to_string(v));
  }
  EXPECT_EQ(actual.comm.messages_per_step, expected.comm.messages_per_step);
  expect_bits_equal(actual.comm.remote_bytes_total,
                    expected.comm.remote_bytes_total, "remote bytes");
  EXPECT_EQ(actual.comm.channel_plans, expected.comm.channel_plans);
  EXPECT_EQ(actual.comm.batch_flushes, expected.comm.batch_flushes);
}

}  // namespace g10::engine::testing
