#include "grade10/trace/resource_trace.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "grade10/trace/execution_trace.hpp"

namespace g10::core {

namespace {

using Response = TraceDefect::Response;

constexpr double kCapacitySlack = 1.05;    ///< more over capacity: reported
constexpr double kGapFactor = 2.5;         ///< longer gaps, in median periods
constexpr std::size_t kMinGapSamples = 4;  ///< fewer: no period to estimate

/// One series as read, with the first offending sample of each rule.
struct Scan {
  ResourceSeries series;
  double capacity = 0.0;
  std::optional<TimeNs> stale;  ///< first time at or before its predecessor
  std::optional<double> over;   ///< first rate over capacity
  double negative = 0.0;        ///< first negative rate, of `negatives`
  std::size_t negatives = 0;
};

/// Stably sorts `m` by sample time and drops the samples that do not
/// advance past their predecessor (the first past 0); returns how many.
std::size_t advance(std::vector<Measurement>& m) {
  std::stable_sort(m.begin(), m.end(),
                   [](const Measurement& a, const Measurement& b) {
                     return a.end < b.end;
                   });
  std::size_t kept = 0;
  for (const Measurement& sample : m) {
    const TimeNs previous = kept == 0 ? 0 : m[kept - 1].end;
    if (sample.end > previous) {
      m[kept++] = Measurement{previous, sample.end, sample.value};
    }
  }
  const std::size_t dropped = m.size() - kept;
  m.resize(kept);
  return dropped;
}

}  // namespace

ResourceTrace ResourceTrace::build_checked(
    const ResourceModel& model,
    std::span<const trace::MonitoringSampleRecord> samples,
    const Options& options,
    const std::vector<trace::MachineId>* phase_machines,
    std::vector<TraceDefect>& defects) {
  // A rejection's error is lint's message, which names the resource; any
  // other defect's is its series' context and lint's message.
  const auto add = [&defects](const char* rule, std::string context,
                              std::string message,
                              Response response = Response::kReport,
                              std::string repair = {}) {
    std::string error = response == Response::kReject
                            ? message
                            : context + ": " + message;
    defects.push_back(TraceDefect{rule, std::move(context), std::move(message),
                                  response, std::move(error),
                                  std::move(repair)});
  };

  // Consecutive samples mostly share a resource and a series, so each is
  // looked up only when it changes.
  std::map<std::pair<ResourceId, trace::MachineId>, Scan> scans;
  std::set<std::string_view> rejected;  ///< unknown or blocking, reported
  const trace::MonitoringSampleRecord* named = nullptr;
  ResourceId resource = kNoResource;
  Scan* scan = nullptr;
  for (const trace::MonitoringSampleRecord& sample : samples) {
    if (named == nullptr || sample.resource != named->resource) {
      const std::string& name = sample.resource;
      resource = model.find(name);
      scan = nullptr;
      const bool blocking = resource != kNoResource &&
                            model.resource(resource).kind !=
                                ResourceKind::kConsumable;
      if ((resource == kNoResource || blocking) &&
          rejected.insert(name).second) {
        if (blocking) {
          add("trace-sample-blocking-resource", name,
              "resource '" + name +
                  "' is BLOCKING and has no consumption rate to sample",
              Response::kReject);
        } else {
          add("trace-sample-unknown-resource", name,
              "monitored resource '" + name + "' is not in the model",
              options.ignore_unknown_resources ? Response::kReport
                                               : Response::kReject);
        }
      }
      if (blocking) resource = kNoResource;
    }
    named = &sample;
    if (resource == kNoResource) continue;
    if (scan == nullptr || scan->series.machine != sample.machine) {
      const auto [it, fresh] = scans.try_emplace({resource, sample.machine});
      scan = &it->second;
      if (fresh) {
        scan->series = ResourceSeries{resource, sample.machine, {}};
        scan->capacity = model.resource(resource).capacity;
      }
    }
    std::vector<Measurement>& m = scan->series.measurements;
    const TimeNs previous = m.empty() ? 0 : m.back().end;
    if (sample.time <= previous && !scan->stale) scan->stale = sample.time;
    if (sample.value > scan->capacity * kCapacitySlack && !scan->over) {
      scan->over = sample.value;
    }
    if (sample.value < 0.0 && scan->negatives++ == 0) {
      scan->negative = sample.value;
    }
    m.push_back(
        Measurement{previous, sample.time, std::max(sample.value, 0.0)});
  }

  // Each series in (resource, machine) order.
  ResourceTrace trace;
  std::vector<TimeNs> periods;
  for (auto& [key, s] : scans) {
    const std::string& name = model.resource(key.first).name;
    const std::string context = name + "@" + std::to_string(key.second);
    std::vector<Measurement>& m = s.series.measurements;
    if (s.stale) {
      const std::size_t dropped = advance(m);
      add("trace-sample-nonmonotonic", context,
          "series repeats or decreases its sample time at " +
              std::to_string(*s.stale) + "ns",
          Response::kRepair,
          "sorted monitoring series " + context + "; dropped " +
              std::to_string(dropped) + " sample(s) that did not advance");
    } else if (m.size() >= kMinGapSamples) {
      // The first window, from 0, is not a sampling period.
      periods.clear();
      for (std::size_t i = 1; i < m.size(); ++i) {
        periods.push_back(m[i].end - m[i].begin);
      }
      const TimeNs worst = *std::max_element(periods.begin(), periods.end());
      const auto median =
          periods.begin() + static_cast<std::ptrdiff_t>(periods.size() / 2);
      std::nth_element(periods.begin(), median, periods.end());
      if (static_cast<double>(worst) >
          static_cast<double>(*median) * kGapFactor) {
        add("trace-sample-gap", context,
            "series has a " + std::to_string(worst) +
                "ns gap against a median period of " +
                std::to_string(*median) + "ns (dropped samples?)");
      }
    }
    if (s.negatives > 0) {
      add("trace-sample-negative", context,
          "sample reports a negative rate " + format_fixed(s.negative, 3),
          Response::kRepair,
          "clamped " + std::to_string(s.negatives) +
              " negative monitoring sample(s) to 0: " + context);
    }
    if (s.over) {
      add("trace-sample-over-capacity", context,
          "sample value " + format_fixed(*s.over, 3) +
              " exceeds the capacity " + format_fixed(s.capacity, 3) +
              " of '" + name + "' (unit mismatch?)");
    }
    if (phase_machines != nullptr && key.second != trace::kGlobalMachine &&
        !std::binary_search(phase_machines->begin(), phase_machines->end(),
                            key.second)) {
      const std::string where = "machine " + std::to_string(key.second);
      add("trace-orphan-machine", where,
          where + " appears in a monitoring sample but in no phase event");
    }
    trace.series_.push_back(std::move(s.series));
  }
  return trace;
}

ResourceTrace ResourceTrace::build(
    const ResourceModel& model,
    std::span<const trace::MonitoringSampleRecord> samples,
    const Options& options) {
  std::vector<TraceDefect> defects;
  ResourceTrace trace =
      build_checked(model, samples, options, nullptr, defects);
  for (const TraceDefect& defect : defects) {
    if (defect.response != Response::kReport) throw CheckError(defect.error);
  }
  return trace;
}

const ResourceSeries* ResourceTrace::find(ResourceId resource,
                                          trace::MachineId machine) const {
  for (const auto& series : series_) {
    if (series.resource == resource && series.machine == machine) {
      return &series;
    }
  }
  return nullptr;
}

}  // namespace g10::core
