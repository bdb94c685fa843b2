#include "common/step_function.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace g10 {

namespace {
constexpr std::size_t npos = static_cast<std::size_t>(-1);
}

std::size_t StepFunction::index_of(TimeNs t) const {
  // Last breakpoint with time <= t.
  auto it = std::upper_bound(times_.begin(), times_.end(), t);
  if (it == times_.begin()) return npos;
  return static_cast<std::size_t>(it - times_.begin()) - 1;
}

void StepFunction::add(TimeNs time, double delta) {
  if (delta == 0.0 && !times_.empty()) return;
  if (times_.empty() || time > times_.back()) {
    const double base = times_.empty() ? 0.0 : values_.back();
    times_.push_back(time);
    values_.push_back(base + delta);
    return;
  }
  if (time == times_.back()) {
    values_.back() += delta;
    return;
  }
  // Out-of-order: insert (or merge) a breakpoint and shift all later values.
  auto it = std::lower_bound(times_.begin(), times_.end(), time);
  auto idx = static_cast<std::size_t>(it - times_.begin());
  if (it != times_.end() && *it == time) {
    for (std::size_t i = idx; i < values_.size(); ++i) values_[i] += delta;
    return;
  }
  const double base = idx == 0 ? 0.0 : values_[idx - 1];
  times_.insert(it, time);
  values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(idx), base);
  for (std::size_t i = idx; i < values_.size(); ++i) values_[i] += delta;
}

void StepFunction::set(TimeNs time, double value) {
  G10_CHECK_MSG(times_.empty() || time >= times_.back(),
                "StepFunction::set requires non-decreasing time");
  if (!times_.empty() && times_.back() == time) {
    values_.back() = value;
    return;
  }
  times_.push_back(time);
  values_.push_back(value);
}

double StepFunction::value_at(TimeNs t) const {
  const std::size_t i = index_of(t);
  return i == npos ? 0.0 : values_[i];
}

double StepFunction::integrate(TimeNs a, TimeNs b) const {
  if (b <= a || times_.empty()) return 0.0;
  double total = 0.0;
  std::size_t i = index_of(a);
  TimeNs cursor = a;
  double current = i == npos ? 0.0 : values_[i];
  std::size_t next = i == npos ? 0 : i + 1;
  // Walk breakpoints strictly inside (a, b) with a single bounds check per
  // step; the same segments accumulate in the same order as the generic
  // cursor loop, so the partial sums are bitwise identical.
  while (next < times_.size() && times_[next] < b) {
    if (times_[next] > cursor) {
      total += current * static_cast<double>(times_[next] - cursor);
      cursor = times_[next];
    }
    current = values_[next];
    ++next;
  }
  if (b > cursor) total += current * static_cast<double>(b - cursor);
  return total;
}

double StepFunction::average(TimeNs a, TimeNs b) const {
  if (b <= a) return value_at(a);
  return integrate(a, b) / static_cast<double>(b - a);
}

double StepFunction::max_over(TimeNs a, TimeNs b) const {
  if (b <= a) return value_at(a);
  double best = value_at(a);
  auto it = std::upper_bound(times_.begin(), times_.end(), a);
  for (; it != times_.end() && *it < b; ++it) {
    const auto idx = static_cast<std::size_t>(it - times_.begin());
    best = std::max(best, values_[idx]);
  }
  return best;
}

TimeNs StepFunction::last_change() const {
  return times_.empty() ? 0 : times_.back();
}

StepFunction StepFunction::clamped_sum(const StepFunction& a,
                                       const StepFunction& b, double cap) {
  StepFunction out;
  out.times_.reserve(a.times_.size() + b.times_.size());
  out.values_.reserve(a.times_.size() + b.times_.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double va = 0.0;
  double vb = 0.0;
  while (ia < a.times_.size() || ib < b.times_.size()) {
    TimeNs t;
    if (ib >= b.times_.size() ||
        (ia < a.times_.size() && a.times_[ia] <= b.times_[ib])) {
      t = a.times_[ia];
    } else {
      t = b.times_[ib];
    }
    while (ia < a.times_.size() && a.times_[ia] == t) va = a.values_[ia++];
    while (ib < b.times_.size() && b.times_[ib] == t) vb = b.values_[ib++];
    out.set(t, std::clamp(va + vb, 0.0, cap));
  }
  out.compact();
  return out;
}

void StepFunction::compact(double epsilon) {
  if (times_.size() < 2) return;
  std::size_t w = 1;
  for (std::size_t r = 1; r < times_.size(); ++r) {
    if (std::fabs(values_[r] - values_[w - 1]) <= epsilon) continue;
    times_[w] = times_[r];
    values_[w] = values_[r];
    ++w;
  }
  times_.resize(w);
  values_.resize(w);
}

}  // namespace g10
