#include "grade10/lint/trace_lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"

namespace g10::lint {

namespace {

using trace::kGlobalMachine;
using trace::MachineId;

/// Rules raised once per offending event; every other trace rule is raised
/// once per (rule, context), or it would flood the report with e.g. every
/// instance of one unknown type.
bool per_event(std::string_view rule_id) {
  return rule_id == "trace-duplicate-begin" ||
         rule_id == "trace-duplicate-end" ||
         rule_id == "trace-blocking-outside-phase";
}

class TraceLinter {
 public:
  TraceLinter(const core::ModelDescription& model,
              const trace::ParsedLog& log, const core::TraceBuild& built,
              const TraceLintOptions& options, std::string_view filename)
      : model_(model),
        log_(log),
        built_(built),
        options_(options),
        file_(filename) {}

  LintReport run() {
    for (const core::TraceDefect& defect : built_.defects) {
      const Severity severity = find_rule(defect.rule_id)->severity;
      if (per_event(defect.rule_id)) {
        report_.add(defect.rule_id, severity, at(defect.context),
                    defect.message);
      } else {
        add_once(defect.rule_id, severity, defect.context, defect.message);
      }
    }
    check_fault_provenance();
    check_samples();
    return std::move(report_);
  }

 private:
  Location at(std::string context) const {
    return Location{file_, 0, std::move(context)};
  }

  void add_once(std::string rule_id, Severity severity, std::string context,
                std::string message) {
    if (!reported_.insert(rule_id + "\x1f" + context).second) return;
    report_.add(std::move(rule_id), severity, at(std::move(context)),
                std::move(message));
  }

  void check_machine(MachineId machine) {
    const std::vector<MachineId>& machines = built_.phase_machines;
    if (machine == kGlobalMachine ||
        std::binary_search(machines.begin(), machines.end(), machine)) {
      return;
    }
    add_once("trace-orphan-machine", Severity::kWarning,
             "machine " + std::to_string(machine),
             "machine " + std::to_string(machine) +
                 " appears in a monitoring sample but in no phase event");
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
      check_machine(sample.machine);
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
  const core::TraceBuild& built_;
  TraceLintOptions options_;
  std::string file_;
  LintReport report_;
  std::set<std::string> reported_;
};

}  // namespace

LintReport lint_trace(const core::ModelDescription& model,
                      const trace::ParsedLog& log,
                      const TraceLintOptions& options,
                      std::string_view filename,
                      const core::TraceBuild* built) {
  if (built != nullptr) {
    return TraceLinter(model, log, *built, options, filename).run();
  }
  const core::TraceBuild own = core::ExecutionTrace::build_checked(
      model.execution, model.resources, log.phase_events, log.blocking_events,
      {});
  return TraceLinter(model, log, own, options, filename).run();
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
