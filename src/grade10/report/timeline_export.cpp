#include "grade10/report/timeline_export.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "common/json.hpp"

namespace g10::core {

namespace {

/// Greedy interval packing: the first lane whose last event ended by
/// `begin` hosts the next instance; lanes are per machine.
struct LaneAllocator {
  std::vector<TimeNs> lane_end;

  int assign(TimeNs begin, TimeNs end) {
    for (std::size_t lane = 0; lane < lane_end.size(); ++lane) {
      if (lane_end[lane] <= begin) {
        lane_end[lane] = end;
        return static_cast<int>(lane);
      }
    }
    lane_end.push_back(end);
    return static_cast<int>(lane_end.size()) - 1;
  }
};

void write_event(std::ostream& os, bool& first, const std::string& name,
                 const char* category, TimeNs begin, DurationNs duration,
                 int pid, int tid) {
  if (!first) os << ",\n";
  first = false;
  std::string quoted;
  json_escape(quoted, name);
  // Chrome tracing uses microsecond timestamps.
  os << R"(  {"name": )" << quoted << R"(, "cat": ")" << category
     << R"(", "ph": "X", "ts": )"
     << json_double(static_cast<double>(begin) / 1e3) << R"(, "dur": )"
     << json_double(static_cast<double>(duration) / 1e3) << R"(, "pid": )"
     << pid << R"(, "tid": )" << tid << "}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const ExecutionModel& model,
                        const ExecutionTrace& trace) {
  os << "{\n\"traceEvents\": [\n";
  bool first = true;

  // Sort leaves per machine by begin time for stable lane packing.
  std::map<trace::MachineId, std::vector<InstanceId>> per_machine;
  for (const InstanceId leaf : trace.leaves()) {
    per_machine[trace.instance(leaf).machine].push_back(leaf);
  }
  for (auto& [machine, leaves] : per_machine) {
    std::sort(leaves.begin(), leaves.end(),
              [&](InstanceId a, InstanceId b) {
                return trace.instance(a).begin < trace.instance(b).begin;
              });
    // pid 0 is reserved for global phases (machine = -1).
    const int pid = static_cast<int>(machine) + 1;
    LaneAllocator lanes;
    for (const InstanceId id : leaves) {
      const PhaseInstance& instance = trace.instance(id);
      const int tid = lanes.assign(instance.begin, instance.end);
      write_event(os, first, model.type(instance.type).name, "phase",
                  instance.begin, std::max<DurationNs>(instance.duration(), 1),
                  pid, tid);
      for (const Interval& blocked : instance.blocked) {
        write_event(os, first, model.type(instance.type).name + " (blocked)",
                    "blocked", blocked.begin,
                    std::max<DurationNs>(blocked.length(), 1), pid, tid);
      }
    }
  }
  // Non-leaf phases on a per-depth lane of the global process, giving the
  // superstep/iteration structure as an overview band.
  for (const PhaseInstance& instance : trace.instances()) {
    if (instance.is_leaf() || instance.machine != trace::kGlobalMachine) {
      continue;
    }
    int depth = 0;
    for (InstanceId p = instance.parent; p != kNoInstance;
         p = trace.instance(p).parent) {
      ++depth;
    }
    write_event(os, first, model.type(instance.type).name, "structure",
                instance.begin, std::max<DurationNs>(instance.duration(), 1),
                0, depth);
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
}

}  // namespace g10::core
