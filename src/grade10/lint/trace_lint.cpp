#include "grade10/lint/trace_lint.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "grade10/trace/path_index.hpp"

namespace g10::lint {

namespace {

using trace::kGlobalMachine;
using trace::MachineId;

using NodeId = core::PathIndex::NodeId;

/// One phase instance reassembled from its BEGIN/END events.
struct Instance {
  bool has_begin = false;
  bool has_end = false;
  TimeNs begin = 0;
  TimeNs end = 0;
  MachineId begin_machine = kGlobalMachine;
  MachineId end_machine = kGlobalMachine;

  bool seen() const { return has_begin || has_end; }
  bool complete() const { return has_begin && has_end; }
};

/// A finding held back until the findings are put in rendered-path order.
struct Deferred {
  std::string rule_id;
  Severity severity;
  std::string context;  ///< empty: the instance's path, rendered later
  std::string message;
};

/// Deferred findings under the rendered key a path-keyed map would have
/// visited them by: (path, "") for one instance, (parent path, type) for
/// one group of REPEATED siblings.
struct DeferredBatch {
  std::pair<std::string, std::string> order;
  std::vector<Deferred> findings;
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

class TraceLinter {
 public:
  TraceLinter(const core::ModelDescription& model,
              const trace::ParsedLog& log, const TraceLintOptions& options,
              std::string_view filename)
      : model_(model), log_(log), options_(options), file_(filename) {}

  LintReport run() {
    collect_instances();
    check_instances();
    check_sibling_overlap();
    check_blocking_events();
    check_fault_provenance();
    check_samples();
    return std::move(report_);
  }

 private:
  Location at(std::string context) const {
    return Location{file_, 0, std::move(context)};
  }

  /// Adds a finding once per (rule, context); repeat offenders of the same
  /// kind (e.g. every instance of one unknown type) would otherwise flood
  /// the report.
  void add_once(std::string rule_id, Severity severity, std::string context,
                std::string message) {
    if (!reported_.insert(rule_id + "\x1f" + context).second) return;
    report_.add(std::move(rule_id), severity, at(std::move(context)),
                std::move(message));
  }

  /// Emits deferred findings in the order of their batches' keys. All go
  /// through add_once: findings whose context is an instance path are
  /// unique per (rule, context) anyway.
  void emit(std::vector<DeferredBatch> batches) {
    std::sort(batches.begin(), batches.end(),
              [](const DeferredBatch& a, const DeferredBatch& b) {
                return a.order < b.order;
              });
    for (DeferredBatch& batch : batches) {
      for (Deferred& d : batch.findings) {
        add_once(std::move(d.rule_id), d.severity, std::move(d.context),
                 std::move(d.message));
      }
    }
  }

  Instance* instance_of(NodeId node) {
    if (node < 0 || static_cast<std::size_t>(node) >= instances_.size()) {
      return nullptr;
    }
    Instance& inst = instances_[static_cast<std::size_t>(node)];
    return inst.seen() ? &inst : nullptr;
  }

  void collect_instances() {
    for (const trace::PhaseEventRecord& event : log_.phase_events) {
      const NodeId node = index_.insert(event.path);
      instances_.resize(index_.size());
      Instance& inst = instances_[static_cast<std::size_t>(node)];
      if (event.kind == trace::PhaseEventRecord::Kind::Begin) {
        if (inst.has_begin) {
          report_.add("trace-duplicate-begin", Severity::kError,
                      at(event.path.to_string()),
                      "phase instance begins more than once");
          continue;
        }
        inst.has_begin = true;
        inst.begin = event.time;
        inst.begin_machine = event.machine;
      } else {
        if (inst.has_end) {
          report_.add("trace-duplicate-end", Severity::kError,
                      at(event.path.to_string()),
                      "phase instance ends more than once");
          continue;
        }
        inst.has_end = true;
        inst.end = event.time;
        inst.end_machine = event.machine;
      }
      machines_.insert(event.machine);
    }
    // Model ids of the index's types, resolved once per type.
    for (core::PathIndex::TypeId t = 0; t < index_.type_count(); ++t) {
      model_types_.push_back(model_.execution.find(index_.type_name(t)));
    }
  }

  core::PhaseTypeId model_type(NodeId node) const {
    return model_types_[index_.type_id(node)];
  }

  void check_instances() {
    std::vector<DeferredBatch> batches;
    std::vector<Deferred> found;
    for (NodeId node = 0; node < static_cast<NodeId>(instances_.size());
         ++node) {
      const Instance& inst = instances_[static_cast<std::size_t>(node)];
      if (!inst.seen()) continue;
      if (inst.has_begin && !inst.has_end) {
        found.push_back({"trace-unbalanced-begin", Severity::kError, {},
                         "phase instance begins but never ends (truncated "
                         "log?)"});
      } else if (inst.has_end && !inst.has_begin) {
        found.push_back({"trace-unbalanced-end", Severity::kError, {},
                         "phase instance ends without ever beginning"});
      }
      if (inst.complete() && inst.end < inst.begin) {
        found.push_back({"trace-nonmonotonic-time", Severity::kError, {},
                         "phase instance ends at " + std::to_string(inst.end) +
                             "ns, before its begin at " +
                             std::to_string(inst.begin) + "ns"});
      }
      if (inst.complete() && inst.begin_machine != inst.end_machine) {
        found.push_back({"trace-machine-mismatch", Severity::kWarning, {},
                         "BEGIN reports machine " +
                             std::to_string(inst.begin_machine) +
                             " but END reports machine " +
                             std::to_string(inst.end_machine)});
      }
      check_against_model(node, inst, found);
      if (found.empty()) continue;
      std::string path = index_.path(node);
      for (Deferred& d : found) {
        if (d.context.empty()) d.context = path;
      }
      batches.push_back({{std::move(path), {}}, std::move(found)});
      found.clear();
    }
    emit(std::move(batches));
  }

  void check_against_model(NodeId node, const Instance& inst,
                           std::vector<Deferred>& found) {
    if (node == core::PathIndex::kRoot) return;
    const std::string& leaf_type = index_.type_name(index_.type_id(node));
    const core::PhaseTypeId type_id = model_type(node);
    if (type_id == core::kNoPhaseType) {
      found.push_back({"trace-unknown-phase-type", Severity::kError, leaf_type,
                       "phase type '" + leaf_type + "' is not in the model"});
      return;
    }
    const NodeId parent_node = index_.parent(node);
    if (parent_node == core::PathIndex::kRoot) {
      if (type_id != model_.execution.root()) {
        found.push_back({"trace-hierarchy-mismatch", Severity::kError,
                         leaf_type,
                         "phase type '" + leaf_type +
                             "' appears at the top of a path but is not the "
                             "model's root"});
      }
      return;
    }
    const std::string& parent_type =
        index_.type_name(index_.type_id(parent_node));
    const core::PhaseTypeId parent_id = model_type(parent_node);
    if (parent_id != core::kNoPhaseType &&
        model_.execution.type(type_id).parent != parent_id) {
      found.push_back({"trace-hierarchy-mismatch", Severity::kError,
                       parent_type + "/" + leaf_type,
                       "the model does not declare '" + parent_type +
                           "' as the parent of '" + leaf_type + "'"});
    }
    const Instance* parent = instance_of(parent_node);
    if (parent == nullptr) {
      found.push_back({"trace-missing-parent", Severity::kError, {},
                       "parent instance '" + index_.path(parent_node) +
                           "' never appears in the log"});
      return;
    }
    if (inst.complete() && parent->complete() &&
        (inst.begin < parent->begin || inst.end > parent->end)) {
      found.push_back({"trace-child-escapes-parent", Severity::kError, {},
                       "instance runs [" + std::to_string(inst.begin) + ", " +
                           std::to_string(inst.end) +
                           ")ns, outside its parent's [" +
                           std::to_string(parent->begin) + ", " +
                           std::to_string(parent->end) + ")ns"});
    }
  }

  void check_sibling_overlap() {
    // Instances of a REPEATED type under one parent must run sequentially
    // (paper: supersteps); concurrent instances of non-repeated types
    // (one worker per machine) are expected. Members of a group enter the
    // begin-time sort in path order, which fixes how ties fall.
    std::vector<NodeId> members;
    for (NodeId node = 1; node < static_cast<NodeId>(instances_.size());
         ++node) {
      if (!instances_[static_cast<std::size_t>(node)].complete()) continue;
      const core::PhaseTypeId id = model_type(node);
      if (id == core::kNoPhaseType || !model_.execution.type(id).repeated) {
        continue;
      }
      members.push_back(node);
    }
    std::sort(members.begin(), members.end(), [&](NodeId a, NodeId b) {
      const NodeId pa = index_.parent(a);
      const NodeId pb = index_.parent(b);
      if (pa != pb) return pa < pb;
      const auto ta = index_.type_id(a);
      const auto tb = index_.type_id(b);
      if (ta != tb) return ta < tb;
      return renders_before(index_.index(a), index_.index(b));
    });
    const auto begin_of = [&](NodeId node) {
      return instances_[static_cast<std::size_t>(node)].begin;
    };
    std::vector<DeferredBatch> batches;
    for (auto group = members.begin(); group != members.end();) {
      const auto group_end = std::find_if(group, members.end(), [&](NodeId n) {
        return index_.parent(n) != index_.parent(*group) ||
               index_.type_id(n) != index_.type_id(*group);
      });
      std::sort(group, group_end, [&](NodeId a, NodeId b) {
        return begin_of(a) < begin_of(b);
      });
      DeferredBatch batch;
      for (auto it = group + 1; it < group_end; ++it) {
        const Instance& prev = instances_[static_cast<std::size_t>(it[-1])];
        const Instance& next = instances_[static_cast<std::size_t>(*it)];
        if (next.begin >= prev.end) continue;
        batch.findings.push_back(
            {"trace-overlapping-siblings", Severity::kError,
             index_.path(*it),
             "repeated instance overlaps sibling '" + index_.path(it[-1]) +
                 "' (begins at " + std::to_string(next.begin) +
                 "ns, before its end at " + std::to_string(prev.end) + "ns)"});
      }
      if (!batch.findings.empty()) {
        batch.order = {index_.path(index_.parent(*group)),
                       index_.type_name(index_.type_id(*group))};
        batches.push_back(std::move(batch));
      }
      group = group_end;
    }
    emit(std::move(batches));
  }

  void check_machine(MachineId machine, const std::string& context) {
    if (machine == kGlobalMachine || machines_.count(machine) > 0) return;
    add_once("trace-orphan-machine", Severity::kWarning,
             "machine " + std::to_string(machine),
             "machine " + std::to_string(machine) +
                 " appears in " + context +
                 " but in no phase event");
  }

  void check_blocking_events() {
    for (const trace::BlockingEventRecord& event : log_.blocking_events) {
      const core::ResourceId resource = model_.resources.find(event.resource);
      if (resource == core::kNoResource) {
        add_once("trace-blocking-unknown-resource", Severity::kError,
                 event.resource,
                 "blocking resource '" + event.resource +
                     "' is not in the model");
      } else if (model_.resources.resource(resource).kind ==
                 core::ResourceKind::kConsumable) {
        add_once("trace-blocking-consumable-resource", Severity::kWarning,
                 event.resource,
                 "resource '" + event.resource +
                     "' is CONSUMABLE; blocked time is only accounted for "
                     "blocking resources");
      }
      check_machine(event.machine, "a blocking event");
      const Instance* inst = instance_of(index_.find(event.path));
      if (inst == nullptr) {
        const std::string key = event.path.to_string();
        add_once("trace-blocking-unknown-phase", Severity::kError, key,
                 "blocking event names phase instance '" + key +
                     "', which never appears in the log");
        continue;
      }
      if (inst->complete() &&
          (event.begin < inst->begin || event.end > inst->end)) {
        report_.add("trace-blocking-outside-phase", Severity::kError,
                    at(event.path.to_string()),
                    "blocking interval [" + std::to_string(event.begin) +
                        ", " + std::to_string(event.end) +
                        ")ns escapes the phase's [" +
                        std::to_string(inst->begin) + ", " +
                        std::to_string(inst->end) + ")ns");
      }
    }
  }

  void check_fault_provenance() {
    // Retry/Recovery blocked time only appears in runs that had faults
    // injected, and those runs stamp the spec into a META "faults" record.
    // Blocked fault time without that provenance usually means a stripped
    // or hand-assembled log whose fault attribution can't be cross-checked.
    const auto spec = log_.meta_value("faults");
    if (spec.has_value() && !trim(*spec).empty()) return;
    for (const trace::BlockingEventRecord& event : log_.blocking_events) {
      if (event.resource != "Retry" && event.resource != "Recovery") continue;
      add_once("trace-fault-blocking-without-spec", Severity::kWarning,
               event.resource,
               "log records '" + event.resource +
                   "' blocked time but no 'faults' META record names the "
                   "injected fault spec");
    }
  }

  void check_samples() {
    std::map<std::pair<std::string, MachineId>,
             std::vector<const trace::MonitoringSampleRecord*>>
        series;
    for (const trace::MonitoringSampleRecord& sample : log_.samples) {
      const std::string context =
          sample.resource + "@" + std::to_string(sample.machine);
      const core::ResourceId resource = model_.resources.find(sample.resource);
      if (resource == core::kNoResource) {
        add_once("trace-sample-unknown-resource", Severity::kError,
                 sample.resource,
                 "monitored resource '" + sample.resource +
                     "' is not in the model");
      } else if (model_.resources.resource(resource).kind ==
                 core::ResourceKind::kBlocking) {
        add_once("trace-sample-blocking-resource", Severity::kError,
                 sample.resource,
                 "resource '" + sample.resource +
                     "' is BLOCKING and has no consumption rate to sample");
      } else {
        const double capacity = model_.resources.resource(resource).capacity;
        if (sample.value > capacity * options_.capacity_slack) {
          add_once("trace-sample-over-capacity", Severity::kWarning, context,
                   "sample value " + format_fixed(sample.value, 3) +
                       " exceeds the capacity " + format_fixed(capacity, 3) +
                       " of '" + sample.resource + "' (unit mismatch?)");
        }
      }
      if (sample.value < 0.0) {
        add_once("trace-sample-negative", Severity::kError, context,
                 "sample reports a negative rate " +
                     format_fixed(sample.value, 3));
      }
      check_machine(sample.machine, "a monitoring sample");
      series[{sample.resource, sample.machine}].push_back(&sample);
    }
    for (const auto& [key, samples] : series) {
      const std::string context =
          key.first + "@" + std::to_string(key.second);
      for (std::size_t i = 1; i < samples.size(); ++i) {
        if (samples[i]->time <= samples[i - 1]->time) {
          add_once("trace-sample-nonmonotonic", Severity::kError, context,
                   "series repeats or decreases its sample time at " +
                       std::to_string(samples[i]->time) + "ns");
          break;
        }
      }
      check_sample_gaps(context, samples);
    }
  }

  void check_sample_gaps(
      const std::string& context,
      const std::vector<const trace::MonitoringSampleRecord*>& samples) {
    if (samples.size() < options_.min_gap_samples) return;
    std::vector<TimeNs> periods;
    periods.reserve(samples.size() - 1);
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const TimeNs gap = samples[i]->time - samples[i - 1]->time;
      if (gap <= 0) return;  // non-monotonic series, reported above
      periods.push_back(gap);
    }
    std::vector<TimeNs> sorted = periods;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const TimeNs median = sorted[sorted.size() / 2];
    const auto threshold = static_cast<double>(median) *
                           options_.sample_gap_factor;
    const TimeNs worst = *std::max_element(periods.begin(), periods.end());
    if (static_cast<double>(worst) > threshold) {
      add_once("trace-sample-gap", Severity::kWarning, context,
               "series has a " + std::to_string(worst) +
                   "ns gap against a median period of " +
                   std::to_string(median) + "ns (dropped samples?)");
    }
  }

  const core::ModelDescription& model_;
  const trace::ParsedLog& log_;
  TraceLintOptions options_;
  std::string file_;
  LintReport report_;
  core::PathIndex index_;
  std::vector<Instance> instances_;  ///< by index node
  std::vector<core::PhaseTypeId> model_types_;  ///< by index type id
  std::set<MachineId> machines_;
  std::set<std::string> reported_;
};

}  // namespace

LintReport lint_trace(const core::ModelDescription& model,
                      const trace::ParsedLog& log,
                      const TraceLintOptions& options,
                      std::string_view filename) {
  return TraceLinter(model, log, options, filename).run();
}

LintReport lint_parse_errors(const trace::ParseResult& result,
                             std::string_view filename, bool binary_trace) {
  LintReport report;
  const std::string file(filename);
  const char* rule = binary_trace ? "trace-binary-corrupt-block"
                                  : "trace-syntax";
  for (const trace::ParseError& error : result.errors) {
    report.add(rule, Severity::kError,
               Location{file, error.line_number, error.line}, error.message);
  }
  if (result.errors.empty() && result.error) {
    report.add(rule, Severity::kError,
               Location{file, result.error->line_number, result.error->line},
               result.error->message);
  }
  if (result.error_count > result.errors.size()) {
    report.add(rule, Severity::kError, Location{file, 0, ""},
               std::to_string(result.error_count - result.errors.size()) +
                   (binary_trace
                        ? " additional corrupt block(s) beyond the error cap"
                        : " additional malformed line(s) beyond the error "
                          "cap"));
  }
  return report;
}

}  // namespace g10::lint
