// Trace-replay simulator (paper §III-F).
//
// Replays a recorded execution trace under a simplified system model: every
// leaf phase has a fixed duration, there are no delays between phases, and
// the schedule obeys (a) the execution model's precedence edges (matched by
// instance index, e.g. WorkerPrepare.2 before WorkerCompute.2), (b) the
// sequential order of repeated types, (c) per-parent concurrency limits
// (thread slots), and (d) containment (children run inside their parent).
// Wait-type phases (barrier waits) are given zero duration — their recorded
// length is slack that the simulator re-derives from the schedule.
//
// Issue detectors call simulate() with adjusted leaf durations to obtain
// optimistic makespans ("how much faster would the run be if X were
// fixed?"). The constructor compiles what does not depend on the durations
// into an immutable replay plan (DESIGN.md §19) that concurrent simulate()
// calls share.
#pragma once

#include <span>
#include <vector>

#include "common/time.hpp"
#include "grade10/model/execution_model.hpp"
#include "grade10/trace/execution_trace.hpp"

namespace g10::core {

struct ReplaySchedule {
  std::vector<TimeNs> start;  ///< indexed by InstanceId
  std::vector<TimeNs> end;
  TimeNs makespan = 0;

  /// Critical-path bookkeeping: for a non-leaf, the child whose simulated
  /// end determined the parent's end; for any instance, the sibling (or
  /// slot predecessor) whose end determined this instance's start, or
  /// kNoInstance when the parent's start was binding.
  std::vector<InstanceId> binding_child;
  std::vector<InstanceId> binding_pred;
};

/// The critical path of one replay: critical_leaves() with each leaf's
/// replayed length, and the replay's makespan.
struct CriticalPath {
  std::vector<InstanceId> leaves;
  std::vector<DurationNs> lengths;  ///< parallel to `leaves`
  TimeNs makespan = 0;
};

class ReplaySimulator {
 public:
  ReplaySimulator(const ExecutionModel& model, const ExecutionTrace& trace);

  /// Leaf durations to replay with; indexed by InstanceId (entries for
  /// non-leaves are ignored). Wait-type leaves are forced to zero.
  ReplaySchedule simulate(const std::vector<DurationNs>& leaf_durations) const;

  /// The recorded leaf durations (the identity replay input).
  std::vector<DurationNs> recorded_durations() const;

  /// The chain of leaf instances whose durations determine the makespan,
  /// in execution order. Gaps covered by parent tails (e.g. barrier sync
  /// costs) are not represented by a leaf.
  std::vector<InstanceId> critical_leaves(const ReplaySchedule& schedule) const;
  CriticalPath critical_path(const ReplaySchedule& schedule) const;

  /// Sibling groups (one parent's children of one type, by ascending
  /// index), numbered by parent id, then in the parent's sibling order.
  std::size_t group_count() const { return group_type_.size(); }
  PhaseTypeId group_type(std::size_t group) const { return group_type_[group]; }
  std::span<const InstanceId> group_members(std::size_t group) const {
    return {members_.data() + first_member_[group],
            members_.data() + first_member_[group + 1]};
  }

 private:
  struct Slot {
    TimeNs free_at = 0;
    InstanceId owner = kNoInstance;
  };

  TimeNs schedule_instance(InstanceId id, bool wait, TimeNs start,
                           const std::vector<DurationNs>& durations,
                           std::vector<Slot>& slots,
                           ReplaySchedule& out) const;

  const ExecutionModel& model_;
  const ExecutionTrace& trace_;
  // The plan, as CSR arrays. Instance i's groups are
  // [first_group_[i], first_group_[i + 1]); group g's members are
  // members_[first_member_[g] .. first_member_[g + 1]); the member at
  // position k of members_ waits on preds_[first_pred_[k] ..
  // first_pred_[k + 1]). tail_[i] is non-leaf i's recorded own work after
  // its last child ends (e.g. a barrier's sync cost).
  std::vector<InstanceId> first_group_;
  std::vector<InstanceId> first_member_;
  std::vector<InstanceId> members_;
  std::vector<PhaseTypeId> group_type_;
  std::vector<InstanceId> first_pred_;
  std::vector<InstanceId> preds_;
  std::vector<DurationNs> tail_;
};

}  // namespace g10::core
