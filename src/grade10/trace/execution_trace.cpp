#include "grade10/trace/execution_trace.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "trace/node_log.hpp"

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

namespace {

using trace::PathIndex;
using NodeId = PathIndex::NodeId;
using Response = TraceDefect::Response;

/// One path's events: the instance its BEGIN opened, and what its ENDs did.
struct RawNode {
  InstanceId instance = kNoInstance;
  bool begun = false;   ///< a BEGIN was read, even one of an unknown type
  bool closed = false;  ///< the instance took an END
  /// The first END skipped for lying before the instance's begin.
  std::optional<TimeNs> early_end;
};

std::string span_text(TimeNs begin, TimeNs end) {
  return "[" + std::to_string(begin) + ", " + std::to_string(end) + ")ns";
}

std::string ends_before_text(TimeNs end, TimeNs begin) {
  return "phase instance ends at " + std::to_string(end) +
         "ns, before its begin at " + std::to_string(begin) + "ns";
}

/// A defect under lint rule `rule`, which the build acts on by `response`.
TraceDefect defect(const char* rule, std::string context, std::string message,
                   Response response = Response::kReport,
                   std::string error = {}, std::string repair = {}) {
  return TraceDefect{rule,     std::move(context), std::move(message),
                     response, std::move(error),   std::move(repair)};
}

}  // namespace

/// The single pass behind ExecutionTrace::build_checked: pairs phase events
/// into instances, links and repairs them, attaches blocking events, groups
/// the samples (ResourceTrace::build_checked), and records each defect it
/// meets, in that order. Every check is the build's own: a defect's lint
/// rule is the build's reading of the records, and the report-only rules
/// look at the instances and series as built.
class TraceBuilder {
 public:
  TraceBuilder(const ExecutionModel& model, const ResourceModel& resources,
               const ExecutionTrace::Options& options)
      : model_(model), resources_(resources), options_(options) {}

  /// The build of `log`'s events, whose nodes it reads from `log.paths`,
  /// and of `samples`.
  TraceBuild run(const trace::NodeLog& log,
                 std::span<const trace::MonitoringSampleRecord> samples) {
    try {
      model_.validate();
    } catch (const CheckError& e) {
      out_.error = e.what();
      return std::move(out_);
    }
    paths_ = &log.paths;
    resource_names_ = &log.resources;
    nodes_.resize(paths().size());
    const std::span<const trace::PhaseEvent> phase_events = log.phase_events;
    const std::span<const trace::BlockingEvent> blocking_events =
        log.blocking_events;
    // A well-formed log holds one BEGIN and one END per instance.
    instances().reserve(phase_events.size() / 2);
    for (const auto& event : phase_events) phase_event(event);
    sort_unique(out_.phase_machines);
    // A BEGIN without an END is the signature of a crashed worker's log.
    std::vector<InstanceId> unended;
    const std::size_t first_unended = out_.defects.size();
    for (const PhaseInstance& instance : instances()) {
      if (instance.end >= 0) continue;
      unended.push_back(instance.id);
      add(never_ended(instance));
    }
    link();
    close_unended(unended, first_unended, blocking_events);
    contain();
    check_siblings();
    ExecutionTrace& trace = out_.trace;
    for (const auto& instance : instances()) {
      if (instance.is_leaf()) trace.leaves_.push_back(instance.id);
      if (instance.machine != trace::kGlobalMachine) {
        trace.machines_.push_back(instance.machine);
      }
    }
    sort_unique(trace.machines_);
    for (const auto& event : blocking_events) attach(event);
    merge_blocked();
    ResourceTrace::Options monitor;
    monitor.ignore_unknown_resources = options_.ignore_unknown_blocking;
    out_.monitored = ResourceTrace::build_checked(
        resources_, samples, monitor, &out_.phase_machines, out_.defects);
    decide();
    return std::move(out_);
  }

 private:
  static void sort_unique(std::vector<trace::MachineId>& machines) {
    std::sort(machines.begin(), machines.end());
    machines.erase(std::unique(machines.begin(), machines.end()),
                   machines.end());
  }

  std::vector<PhaseInstance>& instances() { return out_.trace.instances_; }
  PhaseInstance& instance(InstanceId id) {
    return instances()[static_cast<std::size_t>(id)];
  }
  RawNode& raw(NodeId node) { return nodes_[static_cast<std::size_t>(node)]; }
  const PathIndex& paths() const { return *paths_; }
  const std::string& type_name(PhaseTypeId type) const {
    return model_.type(type).name;
  }

  void add(TraceDefect&& defect) { out_.defects.push_back(std::move(defect)); }

  PhaseTypeId model_type(NodeId node) {
    const PathIndex::TypeId type = paths().type_id(node);
    while (model_types_.size() <= type) {
      model_types_.push_back(model_.find(paths().type_name(
          static_cast<PathIndex::TypeId>(model_types_.size()))));
    }
    return model_types_[type];
  }

  void phase_event(const trace::PhaseEvent& event) {
    const bool is_begin = event.kind == trace::PhaseEventRecord::Kind::Begin;
    // Only an interned record can name the root: a reader rejects an empty
    // path.
    if (is_begin && event.node == PathIndex::kRoot) {
      add(defect("trace-syntax", "", "phase begin with an empty path",
                 Response::kReject, "phase begin with an empty path"));
      return;
    }
    // Consecutive events mostly share a machine; phase_machines is sorted
    // and deduplicated once the events are read.
    std::vector<trace::MachineId>& machines = out_.phase_machines;
    if (machines.empty() || machines.back() != event.machine) {
      machines.push_back(event.machine);
    }
    if (is_begin) {
      begin(event);
    } else {
      end(event);
    }
  }

  void begin(const trace::PhaseEvent& event) {
    const NodeId node = event.node;
    RawNode& r = raw(node);
    r.begun = true;
    const PhaseTypeId type = model_type(node);
    if (type == kNoPhaseType) {
      const std::string& name = paths().type_name(paths().type_id(node));
      add(defect("trace-unknown-phase-type", name,
                 "phase type '" + name + "' is not in the model",
                 Response::kRepair, "unknown phase type in log: " + name,
                 "skipped phase of unknown type: " + paths().path(node)));
      return;
    }
    if (r.instance != kNoInstance) {
      const std::string& key = instance(r.instance).path;
      add(defect("trace-duplicate-begin", key,
                 "phase instance begins more than once", Response::kRepair,
                 "duplicate phase begin: " + key,
                 "skipped duplicate begin: " + key));
      return;
    }
    PhaseInstance instance;
    instance.id = static_cast<InstanceId>(instances().size());
    instance.type = type;
    instance.index = paths().index(node);
    instance.begin = event.time;
    instance.end = -1;
    instance.machine = event.machine;
    instance.path = paths().path(node);
    r.instance = instance.id;
    node_of_.push_back(node);
    instances().push_back(std::move(instance));
  }

  void end(const trace::PhaseEvent& event) {
    RawNode& r = raw(event.node);
    if (r.instance == kNoInstance) {
      if (r.begun) return;  // an unknown type, which begin() skipped
      const std::string key = paths().path(event.node);
      add(defect("trace-unbalanced-end", key,
                 "phase instance ends without ever beginning",
                 Response::kRepair, "phase end without begin: " + key,
                 "skipped end without begin: " + key));
      return;
    }
    PhaseInstance& inst = instance(r.instance);
    if (r.closed) {
      add(defect("trace-duplicate-end", inst.path,
                 "phase instance ends more than once", Response::kRepair,
                 "duplicate phase end: " + inst.path,
                 "skipped duplicate end: " + inst.path));
    } else if (event.time < inst.begin) {
      // Leave the instance open; close_unended repairs it.
      if (!r.early_end) r.early_end = event.time;
      add(defect("trace-nonmonotonic-time", inst.path,
                 ends_before_text(event.time, inst.begin), Response::kRepair,
                 "phase " + inst.path + " ends before it begins",
                 "skipped end before begin: " + inst.path));
    } else {
      r.closed = true;
      inst.end = event.time;
      out_.trace.end_time_ = std::max(out_.trace.end_time_, event.time);
      if (event.machine != inst.machine) {
        add(defect("trace-machine-mismatch", inst.path,
                   "BEGIN reports machine " + std::to_string(inst.machine) +
                       " but END reports machine " +
                       std::to_string(event.machine)));
      }
    }
  }

  /// The defect of an instance no END closed: a truncated log, or an END
  /// that came before the begin (whose finding this one repeats).
  TraceDefect never_ended(const PhaseInstance& inst) {
    const RawNode& r = raw(node_of_[static_cast<std::size_t>(inst.id)]);
    const std::string error = "phase never ended: " + inst.path;
    if (r.early_end) {
      return defect("trace-nonmonotonic-time", inst.path,
                    ends_before_text(*r.early_end, inst.begin),
                    Response::kRepair, error);
    }
    return defect("trace-unbalanced-begin", inst.path,
                  "phase instance begins but never ends (truncated log?)",
                  Response::kRepair, error);
  }

  /// Resolves parents and verifies model linkage. Violations are rejected
  /// in every mode: they mean the wrong model, not a damaged log.
  void link() {
    for (PhaseInstance& inst : instances()) {
      const NodeId parent_node =
          paths().parent(node_of_[static_cast<std::size_t>(inst.id)]);
      const std::string& name = type_name(inst.type);
      if (parent_node == PathIndex::kRoot) {
        if (inst.type != model_.root()) {
          add(defect("trace-hierarchy-mismatch", name,
                     "phase type '" + name +
                         "' appears at the top of a path but is not the "
                         "model's root",
                     Response::kReject,
                     "non-root type at top level: " + inst.path));
        }
        continue;
      }
      const InstanceId parent_id = raw(parent_node).instance;
      if (parent_id == kNoInstance) {
        add(defect("trace-missing-parent", inst.path,
                   "parent instance '" + paths().path(parent_node) +
                       "' never appears in the log",
                   Response::kReject,
                   "parent instance missing for " + inst.path));
      } else if (const PhaseTypeId parent_type = instance(parent_id).type;
                 model_.type(inst.type).parent != parent_type) {
        const std::string& parent_name = type_name(parent_type);
        add(defect("trace-hierarchy-mismatch", parent_name + "/" + name,
                   "the model does not declare '" + parent_name +
                       "' as the parent of '" + name + "'",
                   Response::kReject,
                   "instance " + inst.path + " violates the model hierarchy"));
      } else {
        inst.parent = parent_id;
        instance(parent_id).children.push_back(inst.id);
      }
    }
  }
  /// Synthesizes closure for truncated phases, whose "phase never ended"
  /// defects start at defects[first_defect]. Bottom-up (deepest first):
  /// an unended phase ends no earlier than anything recorded inside it —
  /// its children's ends and its own blocking events — which pins the
  /// deepest truncated subtree to the last time its worker was heard from
  /// (the crash time). Top-down afterwards: a truncated child of a
  /// truncated parent is stretched to the parent's synthesized end, so a
  /// whole abandoned subtree closes at one consistent instant.
  void close_unended(
      const std::vector<InstanceId>& unended, std::size_t first_defect,
      std::span<const trace::BlockingEvent> blocking_events) {
    if (unended.empty()) return;
    std::vector<TimeNs> block_max(instances().size(),
                                  std::numeric_limits<TimeNs>::min());
    for (const auto& event : blocking_events) {
      const InstanceId id = raw(event.node).instance;
      if (id == kNoInstance) continue;
      auto& latest = block_max[static_cast<std::size_t>(id)];
      latest = std::max(latest, event.end);
    }
    const auto depth_of = [&](InstanceId id) {
      return paths().depth(node_of_[static_cast<std::size_t>(id)]);
    };
    std::vector<InstanceId> by_depth = unended;
    std::sort(by_depth.begin(), by_depth.end(),
              [&](InstanceId a, InstanceId b) {
                const auto da = depth_of(a);
                const auto db = depth_of(b);
                return da != db ? da > db : a < b;
              });
    for (const InstanceId id : by_depth) {
      PhaseInstance& inst = instance(id);
      TimeNs end =
          std::max(inst.begin, block_max[static_cast<std::size_t>(id)]);
      for (const InstanceId child : inst.children) {
        const PhaseInstance& c = instance(child);
        if (c.end >= 0) end = std::max(end, c.end);
      }
      inst.end = end;
      inst.degraded = true;
    }
    std::reverse(by_depth.begin(), by_depth.end());  // now shallowest first
    for (const InstanceId id : by_depth) {
      PhaseInstance& inst = instance(id);
      if (inst.parent == kNoInstance) continue;
      const PhaseInstance& parent = instance(inst.parent);
      if (parent.degraded) {
        inst.end = std::max(inst.end, parent.end);
      } else {
        inst.end = std::max(inst.begin, std::min(inst.end, parent.end));
      }
    }
    for (std::size_t i = 0; i < unended.size(); ++i) {
      const PhaseInstance& inst = instance(unended[i]);
      out_.trace.end_time_ = std::max(out_.trace.end_time_, inst.end);
      out_.defects[first_defect + i].repair =
          "phase never ended; synthesized closure at " +
          std::to_string(inst.end) + " ns: " + inst.path;
    }
  }

  /// Temporal containment: a child must run inside its parent.
  void contain() {
    for (PhaseInstance& inst : instances()) {
      if (inst.parent == kNoInstance) continue;
      const PhaseInstance& parent = instance(inst.parent);
      if (inst.begin >= parent.begin && inst.end <= parent.end) continue;
      add(defect("trace-child-escapes-parent", inst.path,
                 "instance runs " + span_text(inst.begin, inst.end) +
                     ", outside its parent's " +
                     span_text(parent.begin, parent.end),
                 Response::kRepair,
                 "instance " + inst.path + " escapes its parent's interval",
                 "clamped " + inst.path + " into its parent's interval"));
      inst.begin = std::max(inst.begin, parent.begin);
      inst.end = std::min(inst.end, parent.end);
      if (inst.end < inst.begin) inst.end = inst.begin;
      inst.degraded = true;
    }
  }

  /// Instances of a REPEATED type under one parent must run one after
  /// another (paper: supersteps); concurrent instances of non-repeated types
  /// (one worker per machine) are expected. Only lint reports an overlap.
  void check_siblings() {
    std::vector<InstanceId> repeated;
    for (const PhaseInstance& parent : instances()) {
      repeated.clear();
      for (const InstanceId child : parent.children) {
        if (model_.type(instance(child).type).repeated) {
          repeated.push_back(child);
        }
      }
      std::stable_sort(repeated.begin(), repeated.end(),
                       [this](InstanceId a, InstanceId b) {
                         const PhaseInstance& x = instance(a);
                         const PhaseInstance& y = instance(b);
                         return std::tie(x.type, x.begin) <
                                std::tie(y.type, y.begin);
                       });
      for (std::size_t i = 1; i < repeated.size(); ++i) {
        const PhaseInstance& prev = instance(repeated[i - 1]);
        const PhaseInstance& next = instance(repeated[i]);
        if (next.type != prev.type || next.begin >= prev.end) continue;
        add(defect("trace-overlapping-siblings", next.path,
                   "repeated instance overlaps sibling '" + prev.path +
                       "' (begins at " + std::to_string(next.begin) +
                       "ns, before its end at " + std::to_string(prev.end) +
                       "ns)"));
      }
    }
  }

  void attach(const trace::BlockingEvent& event) {
    const std::string& name = (*resource_names_)[event.resource];
    const ResourceId resource = resources_.find(name);
    const bool blocking =
        resource != kNoResource &&
        resources_.resource(resource).kind == ResourceKind::kBlocking;
    if (resource == kNoResource) {
      add(defect("trace-blocking-unknown-resource", name,
                 "blocking resource '" + name + "' is not in the model",
                 options_.ignore_unknown_blocking ? Response::kReport
                                                  : Response::kRepair,
                 "unknown blocking resource: " + name,
                 "skipped blocking event on unknown resource: " + name));
    } else if (!blocking) {
      add(defect("trace-blocking-consumable-resource", name,
                 "resource '" + name +
                     "' is CONSUMABLE; blocked time is only accounted for "
                     "blocking resources",
                 Response::kRepair,
                 "blocking event on consumable resource: " + name,
                 "skipped blocking event on consumable resource: " + name));
    }
    const std::vector<trace::MachineId>& machines = out_.phase_machines;
    if (event.machine != trace::kGlobalMachine &&
        !std::binary_search(machines.begin(), machines.end(), event.machine)) {
      const std::string machine = "machine " + std::to_string(event.machine);
      add(defect("trace-orphan-machine", machine,
                 machine + " appears in a blocking event but in no phase "
                           "event"));
    }

    // The build acts only on events of blocking resources.
    const Response response = blocking ? Response::kRepair : Response::kReport;
    const InstanceId id = raw(event.node).instance;
    if (id == kNoInstance) {
      const std::string key = paths().path(event.node);
      add(defect("trace-blocking-unknown-phase", key,
                 "blocking event names phase instance '" + key +
                     "', which never appears in the log",
                 response, "blocking event for unknown phase: " + key,
                 "skipped blocking event for unknown phase: " + key));
      return;
    }
    PhaseInstance& inst = instance(id);
    Interval interval{event.begin, event.end};
    if (interval.begin < inst.begin || interval.end > inst.end) {
      interval.begin = std::max(interval.begin, inst.begin);
      interval.end = std::min(interval.end, inst.end);
      add(defect("trace-blocking-outside-phase", inst.path,
                 "blocking interval " + span_text(event.begin, event.end) +
                     " escapes the phase's " +
                     span_text(inst.begin, inst.end),
                 response,
                 "blocking event escapes phase interval: " + inst.path,
                 (interval.empty()
                      ? "dropped blocking event outside phase interval: "
                      : "clamped blocking event into phase interval: ") +
                     inst.path));
    }
    if (blocking && !interval.empty()) {
      inst.blocked.push_back(interval);
      out_.trace.blocking_.push_back(BlockingSpan{resource, id, interval});
    }
  }

  /// Sorts and merges each instance's blocked intervals.
  void merge_blocked() {
    for (PhaseInstance& inst : instances()) {
      std::sort(inst.blocked.begin(), inst.blocked.end(),
                [](const Interval& a, const Interval& b) {
                  return a.begin < b.begin;
                });
      std::vector<Interval> merged;
      for (const auto& interval : inst.blocked) {
        if (!merged.empty() && interval.begin <= merged.back().end) {
          merged.back().end = std::max(merged.back().end, interval.end);
        } else {
          merged.push_back(interval);
        }
      }
      inst.blocked = std::move(merged);
    }
  }

  /// The one verdict: the first defect the options do not accept rejects
  /// the build; otherwise each repair leaves a (capped) warning.
  void decide() {
    constexpr std::size_t kMaxWarnings = 24;
    std::vector<std::string>& warnings = out_.trace.warnings_;
    std::size_t repairs = 0;
    for (const TraceDefect& defect : out_.defects) {
      if (defect.response == Response::kReport) continue;
      if (defect.response == Response::kRepair && options_.lenient) {
        if (++repairs <= kMaxWarnings) warnings.push_back(defect.repair);
        continue;
      }
      out_.error = defect.response == Response::kReject
                       ? defect.error
                       : "damaged trace: " + defect.error +
                             " (lenient ingestion repairs this)";
      out_.trace = ExecutionTrace{};
      out_.monitored = ResourceTrace{};
      return;
    }
    if (repairs > kMaxWarnings) {
      warnings.push_back("(+" + std::to_string(repairs - kMaxWarnings) +
                         " more warnings suppressed)");
    }
  }

  const ExecutionModel& model_;
  const ResourceModel& resources_;
  const ExecutionTrace::Options& options_;
  TraceBuild out_;
  const PathIndex* paths_ = nullptr;  ///< the node log's table, adopted
  const std::vector<std::string>* resource_names_ = nullptr;
  std::vector<RawNode> nodes_;            ///< by path node
  std::vector<NodeId> node_of_;           ///< by instance
  std::vector<PhaseTypeId> model_types_;  ///< by index type, filled lazily
};

TraceBuild ExecutionTrace::build_checked(const ExecutionModel& model,
                                         const ResourceModel& resources,
                                         const trace::NodeLog& log,
                                         const Options& options) {
  return TraceBuilder(model, resources, options).run(log, log.samples);
}

TraceBuild ExecutionTrace::build_checked(
    const ExecutionModel& model, const ResourceModel& resources,
    std::span<const trace::PhaseEventRecord> phase_events,
    std::span<const trace::BlockingEventRecord> blocking_events,
    std::span<const trace::MonitoringSampleRecord> samples,
    const Options& options) {
  return TraceBuilder(model, resources, options)
      .run(trace::intern_events(phase_events, blocking_events), samples);
}

ExecutionTrace ExecutionTrace::build(
    const ExecutionModel& model, const ResourceModel& resources,
    std::span<const trace::PhaseEventRecord> phase_events,
    std::span<const trace::BlockingEventRecord> blocking_events,
    const Options& options) {
  TraceBuild built = build_checked(model, resources, phase_events,
                                   blocking_events, {}, options);
  if (built.error) throw CheckError(*built.error);
  return std::move(built.trace);
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
