#include "grade10/issues/replay_simulator.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace g10::core {

ReplaySimulator::ReplaySimulator(const ExecutionModel& model,
                                 const ExecutionTrace& trace)
    : model_(model), trace_(trace) {
  model_.validate();
  // Each type's place in its parent's sibling order; validate() rules out
  // cycles, so every child type is placed.
  std::vector<std::size_t> rank(model_.type_count());
  for (std::size_t p = 0; p < model_.type_count(); ++p) {
    const auto order = model_.sibling_order(static_cast<PhaseTypeId>(p));
    for (std::size_t k = 0; k < order.size(); ++k) {
      rank[static_cast<std::size_t>(order[k])] = k;
    }
  }
  // Schedule order: the type's rank, then ascending index.
  using Key = std::pair<std::size_t, std::int64_t>;
  const auto key = [&](InstanceId id) {
    const PhaseInstance& instance = trace_.instance(id);
    return Key(rank[static_cast<std::size_t>(instance.type)], instance.index);
  };
  constexpr std::int64_t kFirst = std::numeric_limits<std::int64_t>::min();
  first_group_.push_back(0);
  first_pred_.push_back(0);
  for (const PhaseInstance& parent : trace_.instances()) {
    std::vector<InstanceId> children = parent.children;
    std::ranges::sort(children, {}, key);
    TimeNs latest_recorded_child_end = parent.begin;
    for (std::size_t c = 0; c < children.size(); ++c) {
      const PhaseInstance& child = trace_.instance(children[c]);
      if (c == 0 || child.type != group_type_.back()) {
        group_type_.push_back(child.type);
        first_member_.push_back(static_cast<InstanceId>(members_.size()));
      }
      members_.push_back(children[c]);
      latest_recorded_child_end =
          std::max(latest_recorded_child_end, child.end);
      // Predecessors from model edges, matched by instance index; a child
      // with no same-index predecessor waits on every one of that type.
      for (const PhaseTypeId pred : model_.type(child.type).predecessors) {
        const std::size_t r = rank[static_cast<std::size_t>(pred)];
        const auto first =
            std::ranges::lower_bound(children, Key(r, kFirst), {}, key);
        const auto last = std::ranges::lower_bound(first, children.end(),
                                                   Key(r + 1, kFirst), {}, key);
        const auto exact =
            std::ranges::lower_bound(first, last, Key(r, child.index), {}, key);
        if (exact != last && trace_.instance(*exact).index == child.index) {
          preds_.push_back(*exact);
        } else {
          preds_.insert(preds_.end(), first, last);
        }
      }
      first_pred_.push_back(static_cast<InstanceId>(preds_.size()));
    }
    tail_.push_back(
        std::max<DurationNs>(0, parent.end - latest_recorded_child_end));
    first_group_.push_back(static_cast<InstanceId>(group_type_.size()));
  }
  first_member_.push_back(static_cast<InstanceId>(members_.size()));
  G10_CHECK(preds_.size() <= static_cast<std::size_t>(
                                 std::numeric_limits<InstanceId>::max()));
}

std::vector<DurationNs> ReplaySimulator::recorded_durations() const {
  std::vector<DurationNs> durations(trace_.instances().size(), 0);
  for (const InstanceId leaf : trace_.leaves()) {
    durations[static_cast<std::size_t>(leaf)] =
        trace_.instance(leaf).duration();
  }
  return durations;
}

TimeNs ReplaySimulator::schedule_instance(
    InstanceId id, bool wait, TimeNs start,
    const std::vector<DurationNs>& durations, std::vector<Slot>& slots,
    ReplaySchedule& out) const {
  const auto at = static_cast<std::size_t>(id);
  out.start[at] = start;
  const auto groups_begin = static_cast<std::size_t>(first_group_[at]);
  const auto groups_end = static_cast<std::size_t>(first_group_[at + 1]);
  if (groups_begin == groups_end) {
    return out.end[at] =
               start + (wait ? 0 : std::max<DurationNs>(0, durations[at]));
  }

  TimeNs latest_child_end = start;
  InstanceId latest_child = kNoInstance;
  for (std::size_t g = groups_begin; g < groups_end; ++g) {
    const PhaseType& type_info = model_.type(group_type_[g]);
    // Concurrency slots (0 limit = unbounded), stacked above the slots of
    // the groups this one is nested in.
    const std::size_t slots_begin = slots.size();
    slots.resize(slots_begin +
                     static_cast<std::size_t>(type_info.concurrency_limit),
                 Slot{start, kNoInstance});
    TimeNs previous_end = start;  // for repeated types
    InstanceId previous_id = kNoInstance;
    for (auto k = static_cast<std::size_t>(first_member_[g]);
         k < static_cast<std::size_t>(first_member_[g + 1]); ++k) {
      const InstanceId child = members_[k];
      TimeNs ready = start;
      InstanceId binding = kNoInstance;
      // Candidates in a fixed order with strict `>`: predecessors, the
      // repeated predecessor, then the slot. The order fixes binding_pred.
      const auto raise = [&](TimeNs candidate, InstanceId source) {
        if (candidate > ready) {
          ready = candidate;
          binding = source;
        }
      };
      for (auto p = static_cast<std::size_t>(first_pred_[k]);
           p < static_cast<std::size_t>(first_pred_[k + 1]); ++p) {
        raise(out.end[static_cast<std::size_t>(preds_[p])], preds_[p]);
      }
      if (type_info.repeated) raise(previous_end, previous_id);
      // List scheduling: the earliest-free slot (the first of equals).
      std::size_t slot = slots_begin;
      for (std::size_t s = slot + 1; s < slots.size(); ++s) {
        if (slots[s].free_at < slots[slot].free_at) slot = s;
      }
      if (slot < slots.size()) raise(slots[slot].free_at, slots[slot].owner);
      out.binding_pred[static_cast<std::size_t>(child)] = binding;
      const TimeNs end = schedule_instance(child, type_info.wait, ready,
                                           durations, slots, out);
      if (slot < slots.size()) slots[slot] = Slot{end, child};
      previous_end = end;
      previous_id = child;
      if (end > latest_child_end) {
        latest_child_end = end;
        latest_child = child;
      }
    }
    slots.resize(slots_begin);
  }

  out.binding_child[at] = latest_child;
  return out.end[at] = latest_child_end + tail_[at];
}

ReplaySchedule ReplaySimulator::simulate(
    const std::vector<DurationNs>& leaf_durations) const {
  G10_CHECK(leaf_durations.size() == trace_.instances().size());
  ReplaySchedule schedule;
  schedule.start.assign(trace_.instances().size(), 0);
  schedule.end.assign(trace_.instances().size(), 0);
  schedule.binding_child.assign(trace_.instances().size(), kNoInstance);
  schedule.binding_pred.assign(trace_.instances().size(), kNoInstance);
  if (trace_.root() == kNoInstance) return schedule;
  std::vector<Slot> slots;
  schedule.makespan = schedule_instance(
      trace_.root(), model_.type(trace_.instance(trace_.root()).type).wait, 0,
      leaf_durations, slots, schedule);
  return schedule;
}

std::vector<InstanceId> ReplaySimulator::critical_leaves(
    const ReplaySchedule& schedule) const {
  std::vector<InstanceId> path;
  if (trace_.root() == kNoInstance) return path;
  const auto descend = [&](InstanceId node) {
    while (schedule.binding_child[static_cast<std::size_t>(node)] !=
           kNoInstance) {
      node = schedule.binding_child[static_cast<std::size_t>(node)];
    }
    return node;
  };
  InstanceId cur = descend(trace_.root());
  // Generous bound against cycles (each step moves strictly earlier).
  for (std::size_t guard = 0; guard < 4 * trace_.instances().size();
       ++guard) {
    if (trace_.instance(cur).is_leaf()) path.push_back(cur);
    const InstanceId pred =
        schedule.binding_pred[static_cast<std::size_t>(cur)];
    if (pred != kNoInstance) {
      cur = descend(pred);
    } else if (trace_.instance(cur).parent != kNoInstance) {
      cur = trace_.instance(cur).parent;
    } else {
      break;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

CriticalPath ReplaySimulator::critical_path(
    const ReplaySchedule& schedule) const {
  CriticalPath path;
  path.leaves = critical_leaves(schedule);
  path.lengths.reserve(path.leaves.size());
  for (const InstanceId leaf : path.leaves) {
    const auto i = static_cast<std::size_t>(leaf);
    path.lengths.push_back(schedule.end[i] - schedule.start[i]);
  }
  path.makespan = schedule.makespan;
  return path;
}

}  // namespace g10::core
