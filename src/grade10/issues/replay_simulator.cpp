#include "grade10/issues/replay_simulator.hpp"

#include <algorithm>
#include <map>

#include "common/check.hpp"

namespace g10::core {

ReplaySimulator::ReplaySimulator(const ExecutionModel& model,
                                 const ExecutionTrace& trace)
    : model_(model), trace_(trace) {
  model_.validate();
  // Topological order of child types per parent; validate() rules out
  // cycles, so every child is placed.
  child_type_order_.resize(model_.type_count());
  for (std::size_t p = 0; p < model_.type_count(); ++p) {
    child_type_order_[p] = model_.sibling_order(static_cast<PhaseTypeId>(p));
  }
}

std::vector<DurationNs> ReplaySimulator::recorded_durations() const {
  std::vector<DurationNs> durations(trace_.instances().size(), 0);
  for (const InstanceId leaf : trace_.leaves()) {
    const PhaseInstance& instance = trace_.instance(leaf);
    durations[static_cast<std::size_t>(leaf)] = instance.duration();
  }
  return durations;
}

TimeNs ReplaySimulator::schedule_instance(
    InstanceId id, TimeNs start, const std::vector<DurationNs>& durations,
    ReplaySchedule& out) const {
  const PhaseInstance& instance = trace_.instance(id);
  out.start[static_cast<std::size_t>(id)] = start;
  if (instance.is_leaf()) {
    const DurationNs duration =
        model_.type(instance.type).wait
            ? 0
            : std::max<DurationNs>(0,
                                   durations[static_cast<std::size_t>(id)]);
    const TimeNs end = start + duration;
    out.end[static_cast<std::size_t>(id)] = end;
    return end;
  }

  // Group children by type; remember each type's instances sorted by index.
  std::map<PhaseTypeId, std::vector<InstanceId>> by_type;
  TimeNs latest_recorded_child_end = instance.begin;
  for (const InstanceId child : instance.children) {
    by_type[trace_.instance(child).type].push_back(child);
    latest_recorded_child_end =
        std::max(latest_recorded_child_end, trace_.instance(child).end);
  }
  for (auto& [type, list] : by_type) {
    std::sort(list.begin(), list.end(), [this](InstanceId a, InstanceId b) {
      return trace_.instance(a).index < trace_.instance(b).index;
    });
  }
  // The parent's own work after its last child (e.g. barrier sync cost).
  const DurationNs tail =
      std::max<DurationNs>(0, instance.end - latest_recorded_child_end);

  // End (and id) of already-scheduled children of a given type, by index.
  struct ChildEnd {
    TimeNs end = 0;
    InstanceId id = kNoInstance;
  };
  std::map<PhaseTypeId, std::map<std::int64_t, ChildEnd>> ends_by_type;
  TimeNs latest_child_end = start;
  InstanceId latest_child = kNoInstance;

  for (const PhaseTypeId type :
       child_type_order_[static_cast<std::size_t>(instance.type)]) {
    const auto it = by_type.find(type);
    if (it == by_type.end()) continue;
    const PhaseType& type_info = model_.type(type);

    // Concurrency slots (0 limit = unbounded).
    std::vector<TimeNs> slots;
    std::vector<InstanceId> slot_owner;
    if (type_info.concurrency_limit > 0) {
      slots.assign(static_cast<std::size_t>(type_info.concurrency_limit),
                   start);
      slot_owner.assign(slots.size(), kNoInstance);
    }

    TimeNs previous_end = start;  // for repeated types
    InstanceId previous_id = kNoInstance;
    for (const InstanceId child : it->second) {
      const PhaseInstance& child_instance = trace_.instance(child);
      TimeNs ready = start;
      InstanceId binding = kNoInstance;
      const auto raise = [&](TimeNs candidate, InstanceId source) {
        if (candidate > ready) {
          ready = candidate;
          binding = source;
        }
      };
      // Precedence from model edges, matched by instance index.
      for (const PhaseTypeId pred : type_info.predecessors) {
        const auto pit = ends_by_type.find(pred);
        if (pit == ends_by_type.end()) continue;
        const auto& pred_ends = pit->second;
        const auto exact = pred_ends.find(child_instance.index);
        if (exact != pred_ends.end()) {
          raise(exact->second.end, exact->second.id);
        } else {
          for (const auto& [index, pred_end] : pred_ends) {
            raise(pred_end.end, pred_end.id);
          }
        }
      }
      if (type_info.repeated) raise(previous_end, previous_id);
      auto slot = slots.end();
      if (!slots.empty()) {
        // List scheduling: earliest-free slot.
        slot = std::min_element(slots.begin(), slots.end());
        raise(*slot,
              slot_owner[static_cast<std::size_t>(slot - slots.begin())]);
      }
      out.binding_pred[static_cast<std::size_t>(child)] = binding;
      const TimeNs end = schedule_instance(child, ready, durations, out);
      if (!slots.empty()) {
        *slot = end;
        slot_owner[static_cast<std::size_t>(slot - slots.begin())] = child;
      }
      ends_by_type[type][child_instance.index] = ChildEnd{end, child};
      previous_end = end;
      previous_id = child;
      if (end > latest_child_end) {
        latest_child_end = end;
        latest_child = child;
      }
    }
  }

  out.binding_child[static_cast<std::size_t>(id)] = latest_child;
  const TimeNs end = latest_child_end + tail;
  out.end[static_cast<std::size_t>(id)] = end;
  return end;
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
  schedule.makespan =
      schedule_instance(trace_.root(), 0, leaf_durations, schedule);
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

TimeNs ReplaySimulator::baseline_makespan() const {
  return simulate(recorded_durations()).makespan;
}

}  // namespace g10::core
