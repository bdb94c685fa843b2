// The on-disk record types exchanged between the system under test and
// Grade10 (paper §III-C): execution-log phase events, blocking events, and
// periodic monitoring samples. Engines produce these; the Grade10 trace
// builders consume them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/step_function.hpp"
#include "common/time.hpp"
#include "trace/phase_path.hpp"

namespace g10::trace {

/// Id of the machine a record pertains to; kGlobalMachine for cluster-wide
/// phases (e.g. the job root or a global barrier).
using MachineId = std::int32_t;
inline constexpr MachineId kGlobalMachine = -1;

/// A phase started or ended (from the SUT's execution logs).
struct PhaseEventRecord {
  enum class Kind { Begin, End };
  Kind kind = Kind::Begin;
  PhasePath path;
  TimeNs time = 0;
  MachineId machine = kGlobalMachine;
};

/// A phase was blocked on a blocking resource for [begin, end).
struct BlockingEventRecord {
  std::string resource;  ///< blocking-resource name, e.g. "GC"
  PhasePath path;        ///< the blocked phase instance
  TimeNs begin = 0;
  TimeNs end = 0;
  MachineId machine = kGlobalMachine;
};

/// One periodic monitoring sample: the average consumption rate of
/// `resource` on `machine` over (previous sample time, time].
struct MonitoringSampleRecord {
  std::string resource;
  MachineId machine = kGlobalMachine;
  TimeNs time = 0;   ///< end of the measurement window
  double value = 0;  ///< average rate in the resource's units
};

/// Perfect per-resource usage signal from the simulator. Not visible to
/// Grade10 in a normal run — the monitor samples it — but kept so the
/// Table II experiment can compare against ground truth.
struct GroundTruthSeries {
  std::string resource;
  MachineId machine = kGlobalMachine;
  double capacity = 0;
  StepFunction series;
};

/// Aggregate communication behavior of a run. The counts and byte totals
/// are *logical* workload invariants — tallied where messages are produced,
/// before any coalescing, retransmission, or loss — so they must come out
/// identical regardless of injected message loss. The plan/flush counters,
/// by contrast, describe the transport.
struct CommStats {
  /// Messages produced per executed superstep/iteration *instance* (an
  /// attempt aborted by a crash records nothing; its re-execution does).
  std::vector<std::uint64_t> messages_per_step;
  double remote_bytes_total = 0.0;  ///< logical remote wire bytes
  std::int64_t channel_plans = 0;   ///< ReliableChannel::plan_send calls
  /// Coalesced per-destination frames handed to the NIC or channel. Always
  /// 0 for GAS: its exchange is already one transfer per destination at a
  /// barrier and has no coalescing stage (DESIGN.md §13).
  std::int64_t batch_flushes = 0;
};

/// Everything one engine run produces.
struct RunArtifacts {
  std::vector<PhaseEventRecord> phase_events;
  std::vector<BlockingEventRecord> blocking_events;
  std::vector<GroundTruthSeries> ground_truth;
  TimeNs makespan = 0;
  CommStats comm;

  /// Final per-vertex algorithm values, for correctness validation.
  std::vector<double> vertex_values;
};

}  // namespace g10::trace
