// Piecewise-constant functions of time.
//
// The simulator records ground-truth resource usage (cores in use, bytes/s on
// a NIC) as a step function: cheap to update on every scheduling event, exact
// to integrate over arbitrary windows. The monitoring substrate turns these
// into sampled traces, and Table II compares Grade10's upsampled output back
// against windowed averages of these functions.
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.hpp"

namespace g10 {

/// A right-continuous step function v(t): value changes at breakpoints and
/// holds until the next one. Value before the first breakpoint is 0.
class StepFunction {
 public:
  StepFunction() = default;

  /// Adds `delta` to the function value for all t >= time. Appending in
  /// non-decreasing time order is O(1); out-of-order insertion is supported
  /// but O(n).
  void add(TimeNs time, double delta);

  /// Sets the function value to `value` for all t >= time (until the next
  /// later breakpoint, which is re-based). Must be called in non-decreasing
  /// time order relative to existing breakpoints.
  void set(TimeNs time, double value);

  /// Value at time t.
  double value_at(TimeNs t) const;

  /// Integral of v over [a, b).
  double integrate(TimeNs a, TimeNs b) const;

  /// Average value over [a, b). Zero-length windows return value_at(a).
  double average(TimeNs a, TimeNs b) const;

  /// Maximum value attained anywhere in [a, b).
  double max_over(TimeNs a, TimeNs b) const;

  /// Largest time with a breakpoint, or 0 if empty.
  TimeNs last_change() const;

  bool empty() const { return times_.empty(); }
  std::size_t breakpoint_count() const { return times_.size(); }

  /// Breakpoint access for iteration (times and post-change values).
  const std::vector<TimeNs>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  /// Removes consecutive breakpoints with (near-)equal values.
  void compact(double epsilon = 0.0);

  /// clamp(a(t) + b(t), 0, cap) as a new step function. Used to merge engine
  /// resource usage with background noise without exceeding capacity; the
  /// zero floor absorbs floating-point cancellation residue (e.g. -4e-15
  /// cores left when equal add/remove deltas net out in a UsageRecorder).
  static StepFunction clamped_sum(const StepFunction& a,
                                  const StepFunction& b, double cap);

 private:
  // Parallel arrays: value on [times_[i], times_[i+1]) is values_[i].
  std::vector<TimeNs> times_;
  std::vector<double> values_;

  std::size_t index_of(TimeNs t) const;  // last breakpoint <= t, or npos
};

}  // namespace g10
