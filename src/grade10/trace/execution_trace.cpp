#include "grade10/trace/execution_trace.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <string_view>
#include <utility>

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

namespace {

using NodeId = PathIndex::NodeId;
using Response = TraceDefect::Response;

/// A path's first BEGIN or first END as the log records it.
struct Stamp {
  TimeNs time = 0;
  trace::MachineId machine = trace::kGlobalMachine;
  bool seen = false;
};

/// One path's raw events, before any repair, and the instance its BEGIN
/// opened.
struct RawNode {
  Stamp begin;
  Stamp end;
  InstanceId instance = kNoInstance;
  bool closed = false;  ///< the instance took an END

  bool seen() const { return begin.seen || end.seen; }
  bool complete() const { return begin.seen && end.seen; }
};

/// True when `a` renders before `b` as decimal text ("10" < "2"): sibling
/// paths differ only in their last index, so this is their path order.
bool renders_before(std::int64_t a, std::int64_t b) {
  char da[24];
  char db[24];
  const auto ea = std::to_chars(da, da + sizeof da, a).ptr;
  const auto eb = std::to_chars(db, db + sizeof db, b).ptr;
  return std::string_view(da, static_cast<std::size_t>(ea - da)) <
         std::string_view(db, static_cast<std::size_t>(eb - db));
}

std::string span_text(TimeNs begin, TimeNs end) {
  return "[" + std::to_string(begin) + ", " + std::to_string(end) + ")ns";
}

TraceDefect finding(const char* rule, std::string context,
                    std::string message) {
  TraceDefect defect;
  defect.rule_id = rule;
  defect.context = std::move(context);
  defect.message = std::move(message);
  return defect;
}

/// `defect`, which the build acts on by `response`.
TraceDefect respond(TraceDefect defect, Response response, std::string error,
                    std::string repair = {}) {
  defect.response = response;
  defect.error = std::move(error);
  defect.repair = std::move(repair);
  return defect;
}

}  // namespace

/// The single pass behind ExecutionTrace::build_checked: pairs phase events
/// into instances, links and repairs them, attaches blocking events, and
/// records each defect it meets. Lint's findings on the raw events join the
/// same list in lint's order: duplicate events as met, per-path rules by
/// rendered path, REPEATED-sibling overlaps by (parent path, type), then
/// blocking events as met.
class TraceBuilder {
 public:
  TraceBuilder(const ExecutionModel& model, const ResourceModel& resources,
               const ExecutionTrace::Options& options)
      : model_(model), resources_(resources), options_(options) {}

  TraceBuild run(std::span<const trace::PhaseEventRecord> phase_events,
                 std::span<const trace::BlockingEventRecord> blocking_events) {
    try {
      model_.validate();
    } catch (const CheckError& e) {
      out_.error = e.what();
      return std::move(out_);
    }
    // A well-formed log holds one BEGIN and one END per instance.
    instances().reserve(phase_events.size() / 2);
    for (const auto& event : phase_events) phase_event(event);
    sort_unique(out_.phase_machines);
    check_paths();
    // A BEGIN without an END is the signature of a crashed worker's log.
    std::vector<InstanceId> unended;
    const std::size_t first_unended = out_.defects.size();
    for (const PhaseInstance& instance : instances()) {
      if (instance.end >= 0) continue;
      unended.push_back(instance.id);
      add(respond({}, Response::kRepair,
                  "phase never ended: " + instance.path));
    }
    link();
    close_unended(unended, first_unended, blocking_events);
    contain();
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
  const RawNode* find(const trace::PhasePath& path) {
    const NodeId node = index_.find(path);
    return node == PathIndex::kNoNode ? nullptr : &raw(node);
  }

  /// Records `defect` unless neither lint nor the build has a part in it.
  void add(TraceDefect&& defect) {
    if (defect.rule_id.empty() && defect.response == Response::kReport) return;
    out_.defects.push_back(std::move(defect));
  }

  PhaseTypeId model_type(NodeId node) {
    const PathIndex::TypeId type = index_.type_id(node);
    while (model_types_.size() <= type) {
      model_types_.push_back(model_.find(index_.type_name(
          static_cast<PathIndex::TypeId>(model_types_.size()))));
    }
    return model_types_[type];
  }

  void phase_event(const trace::PhaseEventRecord& event) {
    const bool is_begin = event.kind == trace::PhaseEventRecord::Kind::Begin;
    if (is_begin && event.path.empty()) {
      add(respond({}, Response::kReject, "phase begin with an empty path"));
      return;
    }
    const NodeId node = index_.insert(event.path);
    nodes_.resize(index_.size());
    RawNode& r = raw(node);
    TraceDefect defect;
    Stamp& stamp = is_begin ? r.begin : r.end;
    if (stamp.seen) {
      defect = finding(
          is_begin ? "trace-duplicate-begin" : "trace-duplicate-end",
          event.path.to_string(),
          is_begin ? "phase instance begins more than once"
                   : "phase instance ends more than once");
    } else {
      stamp = {event.time, event.machine, true};
      // Consecutive events mostly share a machine; phase_machines is sorted
      // and deduplicated once the events are read.
      std::vector<trace::MachineId>& machines = out_.phase_machines;
      if (machines.empty() || machines.back() != event.machine) {
        machines.push_back(event.machine);
      }
    }
    if (is_begin) {
      begin(event, node, defect);
    } else {
      end(event, r, defect);
    }
  }

  /// `duplicate` holds the finding on a repeated BEGIN, else nothing.
  void begin(const trace::PhaseEventRecord& event, NodeId node,
             TraceDefect& duplicate) {
    const PhaseTypeId type = model_type(node);
    if (type == kNoPhaseType) {
      add(std::move(duplicate));
      add(respond({}, Response::kRepair,
                  "unknown phase type in log: " + event.path.leaf().type,
                  "skipped phase of unknown type: " + event.path.to_string()));
      return;
    }
    RawNode& r = raw(node);
    if (r.instance != kNoInstance) {
      const std::string key = duplicate.context;
      add(respond(std::move(duplicate), Response::kRepair,
                  "duplicate phase begin: " + key,
                  "skipped duplicate begin: " + key));
      return;
    }
    PhaseInstance instance;
    instance.id = static_cast<InstanceId>(instances().size());
    instance.type = type;
    instance.index = event.path.leaf().index;
    instance.begin = event.time;
    instance.end = -1;
    instance.machine = event.machine;
    instance.path = index_.path(node);
    r.instance = instance.id;
    node_of_.push_back(node);
    instances().push_back(std::move(instance));
  }

  /// `defect` holds the finding on a repeated END, else nothing.
  void end(const trace::PhaseEventRecord& event, RawNode& r,
           TraceDefect& defect) {
    if (r.instance == kNoInstance) {
      const std::string key = event.path.to_string();
      defect = respond(std::move(defect), Response::kRepair,
                       "phase end without begin: " + key,
                       "skipped end without begin: " + key);
    } else if (PhaseInstance& inst = instance(r.instance); r.closed) {
      defect = respond(std::move(defect), Response::kRepair,
                       "duplicate phase end: " + inst.path,
                       "skipped duplicate end: " + inst.path);
    } else if (event.time < inst.begin) {
      // Leave the instance open; close_unended repairs it.
      defect = respond(std::move(defect), Response::kRepair,
                       "phase " + inst.path + " ends before it begins",
                       "skipped end before begin: " + inst.path);
    } else {
      r.closed = true;
      inst.end = event.time;
      out_.trace.end_time_ = std::max(out_.trace.end_time_, event.time);
    }
    add(std::move(defect));
  }

  /// Lint's rules on each path's raw events, then on REPEATED siblings.
  void check_paths() {
    std::vector<NodeId> repeated;
    for (NodeId node = 0; node < static_cast<NodeId>(nodes_.size()); ++node) {
      const RawNode& r = raw(node);
      if (!r.seen()) continue;
      const std::size_t first = pending_.size();
      if (!r.end.seen) {
        flag("trace-unbalanced-begin",
             "phase instance begins but never ends (truncated log?)");
      } else if (!r.begin.seen) {
        flag("trace-unbalanced-end",
             "phase instance ends without ever beginning");
      }
      if (r.complete() && r.end.time < r.begin.time) {
        flag("trace-nonmonotonic-time",
             "phase instance ends at " + std::to_string(r.end.time) +
                 "ns, before its begin at " + std::to_string(r.begin.time) +
                 "ns");
      }
      if (r.complete() && r.begin.machine != r.end.machine) {
        flag("trace-machine-mismatch",
             "BEGIN reports machine " + std::to_string(r.begin.machine) +
                 " but END reports machine " +
                 std::to_string(r.end.machine));
      }
      if (node != PathIndex::kRoot) check_model(node, r, repeated);
      if (pending_.size() == first) continue;
      const std::string path = index_.path(node);
      for (std::size_t i = first; i < pending_.size(); ++i) {
        pending_[i].first = path;
        if (pending_[i].second.context.empty()) {
          pending_[i].second.context = path;
        }
      }
    }
    add_pending();
    check_overlaps(repeated);
  }

  /// The path's rules against the model; collects complete instances of
  /// REPEATED types into `repeated`.
  void check_model(NodeId node, const RawNode& r,
                   std::vector<NodeId>& repeated) {
    const std::string& leaf_type = index_.type_name(index_.type_id(node));
    const PhaseTypeId type = model_type(node);
    if (type == kNoPhaseType) {
      flag("trace-unknown-phase-type",
           "phase type '" + leaf_type + "' is not in the model", leaf_type);
      return;
    }
    if (r.complete() && model_.type(type).repeated) repeated.push_back(node);
    const NodeId parent_node = index_.parent(node);
    if (parent_node == PathIndex::kRoot) {
      if (type != model_.root()) {
        flag("trace-hierarchy-mismatch",
             "phase type '" + leaf_type +
                 "' appears at the top of a path but is not the model's root",
             leaf_type);
      }
      return;
    }
    const std::string& parent_type =
        index_.type_name(index_.type_id(parent_node));
    const PhaseTypeId parent_id = model_type(parent_node);
    if (parent_id != kNoPhaseType && model_.type(type).parent != parent_id) {
      flag("trace-hierarchy-mismatch",
           "the model does not declare '" + parent_type +
               "' as the parent of '" + leaf_type + "'",
           parent_type + "/" + leaf_type);
    }
    const RawNode& parent = raw(parent_node);
    if (!parent.seen()) {
      flag("trace-missing-parent", "parent instance '" +
                                       index_.path(parent_node) +
                                       "' never appears in the log");
    } else if (r.complete() && parent.complete() &&
               (r.begin.time < parent.begin.time ||
                r.end.time > parent.end.time)) {
      flag("trace-child-escapes-parent",
           "instance runs " + span_text(r.begin.time, r.end.time) +
               ", outside its parent's " +
               span_text(parent.begin.time, parent.end.time));
    }
  }

  /// Instances of a REPEATED type under one parent must run one after
  /// another (paper: supersteps); concurrent instances of non-repeated
  /// types (one worker per machine) are expected. Members of a group enter
  /// the begin-time sort in path order, which fixes how ties fall.
  void check_overlaps(std::vector<NodeId>& members) {
    const auto group_of = [this](NodeId n) {
      return std::pair(index_.parent(n), index_.type_id(n));
    };
    std::sort(members.begin(), members.end(), [&](NodeId a, NodeId b) {
      if (group_of(a) != group_of(b)) return group_of(a) < group_of(b);
      return renders_before(index_.index(a), index_.index(b));
    });
    for (auto group = members.begin(); group != members.end();) {
      const auto group_end = std::find_if(group, members.end(), [&](NodeId n) {
        return group_of(n) != group_of(*group);
      });
      std::sort(group, group_end, [&](NodeId a, NodeId b) {
        return raw(a).begin.time < raw(b).begin.time;
      });
      std::string key;
      for (auto it = group + 1; it < group_end; ++it) {
        const RawNode& prev = raw(it[-1]);
        const RawNode& next = raw(*it);
        if (next.begin.time >= prev.end.time) continue;
        // '\0' sorts first: the key orders as the (parent path, type) pair.
        if (key.empty()) {
          key = index_.path(index_.parent(*group)) + '\0' +
                index_.type_name(index_.type_id(*group));
        }
        pending_.emplace_back(
            key, finding("trace-overlapping-siblings", index_.path(*it),
                         "repeated instance overlaps sibling '" +
                             index_.path(it[-1]) + "' (begins at " +
                             std::to_string(next.begin.time) +
                             "ns, before its end at " +
                             std::to_string(prev.end.time) + "ns)"));
      }
      group = group_end;
    }
    add_pending();
  }

  /// Holds back a lint finding on the path being checked.
  void flag(const char* rule, std::string message, std::string context = {}) {
    pending_.emplace_back(
        std::string(), finding(rule, std::move(context), std::move(message)));
  }

  /// Adds the held-back findings in the order of their keys.
  void add_pending() {
    std::stable_sort(
        pending_.begin(), pending_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& entry : pending_) add(std::move(entry.second));
    pending_.clear();
  }

  /// Resolves parents and verifies model linkage. Violations are rejected
  /// in every mode: they mean the wrong model, not a damaged log.
  void link() {
    for (PhaseInstance& inst : instances()) {
      const NodeId parent_node =
          index_.parent(node_of_[static_cast<std::size_t>(inst.id)]);
      if (parent_node == PathIndex::kRoot) {
        if (inst.type != model_.root()) {
          add(respond({}, Response::kReject,
                      "non-root type at top level: " + inst.path));
        }
        continue;
      }
      const InstanceId parent_id = raw(parent_node).instance;
      if (parent_id == kNoInstance) {
        add(respond({}, Response::kReject,
                    "parent instance missing for " + inst.path));
      } else if (model_.type(inst.type).parent != instance(parent_id).type) {
        add(respond({}, Response::kReject,
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
      std::span<const trace::BlockingEventRecord> blocking_events) {
    if (unended.empty()) return;
    std::vector<TimeNs> block_max(instances().size(),
                                  std::numeric_limits<TimeNs>::min());
    for (const auto& event : blocking_events) {
      const RawNode* r = find(event.path);
      if (r == nullptr || r->instance == kNoInstance) continue;
      auto& latest = block_max[static_cast<std::size_t>(r->instance)];
      latest = std::max(latest, event.end);
    }
    const auto depth_of = [&](InstanceId id) {
      return index_.depth(node_of_[static_cast<std::size_t>(id)]);
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
      add(respond({}, Response::kRepair,
                  "instance " + inst.path + " escapes its parent's interval",
                  "clamped " + inst.path + " into its parent's interval"));
      inst.begin = std::max(inst.begin, parent.begin);
      inst.end = std::min(inst.end, parent.end);
      if (inst.end < inst.begin) inst.end = inst.begin;
      inst.degraded = true;
    }
  }

  void attach(const trace::BlockingEventRecord& event) {
    const std::string& name = event.resource;
    const ResourceId resource = resources_.find(name);
    const bool blocking =
        resource != kNoResource &&
        resources_.resource(resource).kind == ResourceKind::kBlocking;
    if (resource == kNoResource) {
      TraceDefect defect =
          finding("trace-blocking-unknown-resource", name,
                  "blocking resource '" + name + "' is not in the model");
      add(options_.ignore_unknown_blocking
              ? std::move(defect)
              : respond(std::move(defect), Response::kRepair,
                        "unknown blocking resource: " + name,
                        "skipped blocking event on unknown resource: " + name));
    } else if (!blocking) {
      add(respond(finding("trace-blocking-consumable-resource", name,
                          "resource '" + name +
                              "' is CONSUMABLE; blocked time is only "
                              "accounted for blocking resources"),
                  Response::kRepair,
                  "blocking event on consumable resource: " + name,
                  "skipped blocking event on consumable resource: " + name));
    }
    const std::vector<trace::MachineId>& machines = out_.phase_machines;
    if (event.machine != trace::kGlobalMachine &&
        !std::binary_search(machines.begin(), machines.end(), event.machine)) {
      const std::string machine = "machine " + std::to_string(event.machine);
      add(finding("trace-orphan-machine", machine,
                  machine + " appears in a blocking event but in no phase "
                            "event"));
    }

    const RawNode* r = find(event.path);
    const std::string key = event.path.to_string();
    TraceDefect defect;
    if (r == nullptr || !r->seen()) {
      defect = finding("trace-blocking-unknown-phase", key,
                       "blocking event names phase instance '" + key +
                           "', which never appears in the log");
    } else if (r->complete() &&
               (event.begin < r->begin.time || event.end > r->end.time)) {
      defect = finding("trace-blocking-outside-phase", key,
                       "blocking interval " +
                           span_text(event.begin, event.end) +
                           " escapes the phase's " +
                           span_text(r->begin.time, r->end.time));
    }
    const InstanceId id = r == nullptr ? kNoInstance : r->instance;
    if (blocking && id == kNoInstance) {
      defect = respond(std::move(defect), Response::kRepair,
                       "blocking event for unknown phase: " + key,
                       "skipped blocking event for unknown phase: " + key);
    } else if (blocking) {
      PhaseInstance& inst = instance(id);
      Interval interval{event.begin, event.end};
      if (interval.begin < inst.begin || interval.end > inst.end) {
        interval.begin = std::max(interval.begin, inst.begin);
        interval.end = std::min(interval.end, inst.end);
        defect = respond(
            std::move(defect), Response::kRepair,
            "blocking event escapes phase interval: " + inst.path,
            (interval.empty()
                 ? "dropped blocking event outside phase interval: "
                 : "clamped blocking event into phase interval: ") +
                inst.path);
      }
      if (!interval.empty()) {
        inst.blocked.push_back(interval);
        out_.trace.blocking_.push_back(BlockingSpan{resource, id, interval});
      }
    }
    add(std::move(defect));
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
  PathIndex index_;
  std::vector<RawNode> nodes_;            ///< by index node
  std::vector<NodeId> node_of_;           ///< by instance
  std::vector<PhaseTypeId> model_types_;  ///< by index type, filled lazily
  /// Lint findings held back under the key lint orders them by.
  std::vector<std::pair<std::string, TraceDefect>> pending_;
};

TraceBuild ExecutionTrace::build_checked(
    const ExecutionModel& model, const ResourceModel& resources,
    std::span<const trace::PhaseEventRecord> phase_events,
    std::span<const trace::BlockingEventRecord> blocking_events,
    const Options& options) {
  return TraceBuilder(model, resources, options)
      .run(phase_events, blocking_events);
}

ExecutionTrace ExecutionTrace::build(
    const ExecutionModel& model, const ResourceModel& resources,
    std::span<const trace::PhaseEventRecord> phase_events,
    std::span<const trace::BlockingEventRecord> blocking_events,
    const Options& options) {
  TraceBuild built =
      build_checked(model, resources, phase_events, blocking_events, options);
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
