#include "grade10/trace/execution_trace.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "grade10/trace/path_index.hpp"

namespace g10::core {

DurationNs PhaseInstance::blocked_time() const {
  DurationNs total = 0;
  for (const auto& interval : blocked) total += interval.length();
  return total;
}

std::vector<Interval> active_intervals(TimeNs begin, TimeNs end,
                                       std::vector<Interval> blocked) {
  std::vector<Interval> active;
  if (end <= begin) return active;
  std::sort(blocked.begin(), blocked.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  TimeNs cursor = begin;
  for (const auto& b : blocked) {
    const TimeNs b_begin = std::max(b.begin, begin);
    const TimeNs b_end = std::min(b.end, end);
    if (b_end <= b_begin) continue;
    if (b_begin > cursor) active.push_back({cursor, b_begin});
    cursor = std::max(cursor, b_end);
  }
  if (cursor < end) active.push_back({cursor, end});
  return active;
}

ExecutionTrace ExecutionTrace::build(
    const ExecutionModel& model, const ResourceModel& resources,
    std::span<const trace::PhaseEventRecord> phase_events,
    std::span<const trace::BlockingEventRecord> blocking_events,
    const Options& options) {
  model.validate();
  ExecutionTrace trace;
  const bool lenient = options.lenient;
  constexpr std::size_t kMaxWarnings = 24;
  std::size_t warning_overflow = 0;
  const auto warn = [&](std::string message) {
    if (trace.warnings_.size() < kMaxWarnings) {
      trace.warnings_.push_back(std::move(message));
    } else {
      ++warning_overflow;
    }
  };
  // Data damage is a hard error in strict mode and a warning in lenient
  // mode. Model violations never go through here — they always throw.
  const auto require_lenient = [lenient](const std::string& what) {
    if (!lenient) {
      throw CheckError("damaged trace: " + what +
                       " (lenient ingestion repairs this)");
    }
  };

  // A well-formed log holds one BEGIN and one END per instance.
  trace.instances_.reserve(phase_events.size() / 2);
  PathIndex index;
  std::vector<InstanceId> instance_of;  // by node; kNoInstance if none began
  std::vector<PathIndex::NodeId> node_of;  // by instance
  std::vector<char> ended;                 // by instance
  std::vector<PhaseTypeId> model_types;    // by index type id, filled lazily
  const auto model_type = [&](PathIndex::NodeId node) {
    const PathIndex::TypeId type = index.type_id(node);
    while (model_types.size() <= type) {
      model_types.push_back(model.find(index.type_name(
          static_cast<PathIndex::TypeId>(model_types.size()))));
    }
    return model_types[type];
  };
  const auto instance_at = [&](PathIndex::NodeId node) {
    return node >= 0 && static_cast<std::size_t>(node) < instance_of.size()
               ? instance_of[static_cast<std::size_t>(node)]
               : kNoInstance;
  };

  // Paths are rendered only for messages and once per instance.
  for (const auto& event : phase_events) {
    if (event.kind == trace::PhaseEventRecord::Kind::Begin) {
      G10_CHECK_MSG(!event.path.empty(), "phase begin with an empty path");
      const PathIndex::NodeId node = index.insert(event.path);
      instance_of.resize(index.size(), kNoInstance);
      const PhaseTypeId type = model_type(node);
      if (type == kNoPhaseType) {
        if (options.ignore_unknown_phases) continue;
        require_lenient("unknown phase type in log: " + event.path.leaf().type);
        warn("skipped phase of unknown type: " + event.path.to_string());
        continue;
      }
      if (instance_of[static_cast<std::size_t>(node)] != kNoInstance) {
        const std::string key = event.path.to_string();
        require_lenient("duplicate phase begin: " + key);
        warn("skipped duplicate begin: " + key);
        continue;
      }
      PhaseInstance instance;
      instance.id = static_cast<InstanceId>(trace.instances_.size());
      instance.type = type;
      instance.index = event.path.leaf().index;
      instance.begin = event.time;
      instance.end = -1;
      instance.machine = event.machine;
      instance.path = index.path(node);
      instance_of[static_cast<std::size_t>(node)] = instance.id;
      node_of.push_back(node);
      ended.push_back(0);
      trace.instances_.push_back(std::move(instance));
    } else {
      const InstanceId id = instance_at(index.find(event.path));
      if (id == kNoInstance) {
        if (options.ignore_unknown_phases) continue;
        const std::string key = event.path.to_string();
        require_lenient("phase end without begin: " + key);
        warn("skipped end without begin: " + key);
        continue;
      }
      auto& instance = trace.instances_[static_cast<std::size_t>(id)];
      if (ended[static_cast<std::size_t>(id)]) {
        require_lenient("duplicate phase end: " + instance.path);
        warn("skipped duplicate end: " + instance.path);
        continue;
      }
      if (event.time < instance.begin) {
        // Leave the instance open; the synthesis pass below repairs it.
        require_lenient("phase " + instance.path + " ends before it begins");
        warn("skipped end before begin: " + instance.path);
        continue;
      }
      ended[static_cast<std::size_t>(id)] = 1;
      instance.end = event.time;
      trace.end_time_ = std::max(trace.end_time_, event.time);
    }
  }

  // Every instance must have ended — a BEGIN without an END is the signature
  // of a crashed worker's log. Lenient mode repairs it below. Walk the
  // instances in begin order so the strict-mode error names the first.
  std::vector<InstanceId> unended;
  for (const auto& instance : trace.instances_) {
    if (instance.end >= 0) continue;
    require_lenient("phase never ended: " + instance.path);
    unended.push_back(instance.id);
  }

  // Resolve parents and verify model linkage. Model violations stay hard
  // errors even in lenient mode: they mean the wrong model, not a damaged
  // log. Temporal containment is checked after end synthesis.
  for (auto& instance : trace.instances_) {
    const PhaseType& type = model.type(instance.type);
    const PathIndex::NodeId parent_node =
        index.parent(node_of[static_cast<std::size_t>(instance.id)]);
    if (parent_node == PathIndex::kRoot) {
      G10_CHECK_MSG(instance.type == model.root(),
                    "non-root type at top level: " << instance.path);
      instance.parent = kNoInstance;
      continue;
    }
    const InstanceId parent_id = instance_at(parent_node);
    G10_CHECK_MSG(parent_id != kNoInstance,
                  "parent instance missing for " << instance.path);
    instance.parent = parent_id;
    auto& parent = trace.instances_[static_cast<std::size_t>(parent_id)];
    G10_CHECK_MSG(type.parent == parent.type,
                  "instance " << instance.path
                              << " violates the model hierarchy");
    parent.children.push_back(instance.id);
  }

  if (!unended.empty()) {
    // Synthesize closure for truncated phases. Bottom-up (deepest first):
    // an unended phase ends no earlier than anything recorded inside it —
    // its children's ends and its own blocking events — which pins the
    // deepest truncated subtree to the last time its worker was heard from
    // (the crash time). Top-down afterwards: a truncated child of a
    // truncated parent is stretched to the parent's synthesized end, so a
    // whole abandoned subtree closes at one consistent instant.
    std::vector<TimeNs> block_max(trace.instances_.size(),
                                  std::numeric_limits<TimeNs>::min());
    for (const auto& event : blocking_events) {
      const InstanceId id = instance_at(index.find(event.path));
      if (id == kNoInstance) continue;
      auto& latest = block_max[static_cast<std::size_t>(id)];
      latest = std::max(latest, event.end);
    }
    const auto depth_of = [&](InstanceId id) {
      return index.depth(node_of[static_cast<std::size_t>(id)]);
    };
    std::vector<InstanceId> by_depth = unended;
    std::sort(by_depth.begin(), by_depth.end(),
              [&](InstanceId a, InstanceId b) {
                const auto da = depth_of(a);
                const auto db = depth_of(b);
                return da != db ? da > db : a < b;
              });
    for (const InstanceId id : by_depth) {
      auto& instance = trace.instances_[static_cast<std::size_t>(id)];
      TimeNs end = std::max(instance.begin,
                            block_max[static_cast<std::size_t>(id)]);
      for (const InstanceId child : instance.children) {
        const auto& c = trace.instances_[static_cast<std::size_t>(child)];
        if (c.end >= 0) end = std::max(end, c.end);
      }
      instance.end = end;
      instance.degraded = true;
    }
    std::reverse(by_depth.begin(), by_depth.end());  // now shallowest first
    for (const InstanceId id : by_depth) {
      auto& instance = trace.instances_[static_cast<std::size_t>(id)];
      if (instance.parent == kNoInstance) continue;
      const auto& parent =
          trace.instances_[static_cast<std::size_t>(instance.parent)];
      if (parent.degraded) {
        instance.end = std::max(instance.end, parent.end);
      } else {
        instance.end = std::max(instance.begin,
                                std::min(instance.end, parent.end));
      }
    }
    for (const InstanceId id : unended) {
      auto& instance = trace.instances_[static_cast<std::size_t>(id)];
      trace.end_time_ = std::max(trace.end_time_, instance.end);
      warn("phase never ended; synthesized closure at " +
           std::to_string(instance.end) + " ns: " + instance.path);
    }
  }

  // Temporal containment: a child must run inside its parent.
  for (auto& instance : trace.instances_) {
    if (instance.parent == kNoInstance) continue;
    const auto& parent =
        trace.instances_[static_cast<std::size_t>(instance.parent)];
    if (instance.begin >= parent.begin && instance.end <= parent.end) continue;
    require_lenient("instance " + instance.path +
                    " escapes its parent's interval");
    warn("clamped " + instance.path + " into its parent's interval");
    instance.begin = std::max(instance.begin, parent.begin);
    instance.end = std::min(instance.end, parent.end);
    if (instance.end < instance.begin) instance.end = instance.begin;
    instance.degraded = true;
  }

  for (const auto& instance : trace.instances_) {
    if (instance.is_leaf()) trace.leaves_.push_back(instance.id);
    if (instance.machine != trace::kGlobalMachine) {
      trace.machines_.push_back(instance.machine);
    }
  }
  std::sort(trace.machines_.begin(), trace.machines_.end());
  trace.machines_.erase(
      std::unique(trace.machines_.begin(), trace.machines_.end()),
      trace.machines_.end());

  // Attach blocking events.
  for (const auto& event : blocking_events) {
    const ResourceId resource = resources.find(event.resource);
    if (resource == kNoResource) {
      if (options.ignore_unknown_blocking) continue;
      require_lenient("unknown blocking resource: " + event.resource);
      warn("skipped blocking event on unknown resource: " + event.resource);
      continue;
    }
    if (resources.resource(resource).kind != ResourceKind::kBlocking) {
      require_lenient("blocking event on consumable resource: " +
                      event.resource);
      warn("skipped blocking event on consumable resource: " +
           event.resource);
      continue;
    }
    const InstanceId id = instance_at(index.find(event.path));
    if (id == kNoInstance) {
      if (options.ignore_unknown_phases) continue;
      const std::string key = event.path.to_string();
      require_lenient("blocking event for unknown phase: " + key);
      warn("skipped blocking event for unknown phase: " + key);
      continue;
    }
    auto& instance = trace.instances_[static_cast<std::size_t>(id)];
    Interval interval{event.begin, event.end};
    if (interval.begin < instance.begin || interval.end > instance.end) {
      const std::string& key = instance.path;
      require_lenient("blocking event escapes phase interval: " + key);
      interval.begin = std::max(interval.begin, instance.begin);
      interval.end = std::min(interval.end, instance.end);
      if (interval.empty()) {
        warn("dropped blocking event outside phase interval: " + key);
        continue;
      }
      warn("clamped blocking event into phase interval: " + key);
    }
    instance.blocked.push_back(interval);
    trace.blocking_.push_back(BlockingSpan{resource, id, interval});
  }
  if (warning_overflow > 0) {
    trace.warnings_.push_back("(+" + std::to_string(warning_overflow) +
                              " more warnings suppressed)");
  }
  // Normalize blocked interval lists (sorted, merged).
  for (auto& instance : trace.instances_) {
    if (instance.blocked.empty()) continue;
    std::sort(instance.blocked.begin(), instance.blocked.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    std::vector<Interval> merged;
    for (const auto& interval : instance.blocked) {
      if (!merged.empty() && interval.begin <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, interval.end);
      } else {
        merged.push_back(interval);
      }
    }
    instance.blocked = std::move(merged);
  }
  return trace;
}

const PhaseInstance& ExecutionTrace::instance(InstanceId id) const {
  G10_CHECK(id >= 0 && static_cast<std::size_t>(id) < instances_.size());
  return instances_[static_cast<std::size_t>(id)];
}

InstanceId ExecutionTrace::find(std::string_view path) const {
  const auto it = std::find_if(
      instances_.begin(), instances_.end(),
      [path](const PhaseInstance& instance) { return instance.path == path; });
  return it == instances_.end() ? kNoInstance : it->id;
}

std::size_t ExecutionTrace::degraded_count() const {
  return static_cast<std::size_t>(
      std::count_if(instances_.begin(), instances_.end(),
                    [](const PhaseInstance& i) { return i.degraded; }));
}

}  // namespace g10::core
