// Spark-like DAG-dataflow engine — the paper's §V extension target
// ("we are in the process of characterizing Spark workloads by extending
// Grade10's methods"). This demonstrates that the Grade10 machinery is not
// graph-specific: the same models, attribution, and issue detection apply
// to a stage/task dataflow.
//
// A job is a sequence of stages; each stage has a number of tasks that run
// on a pool of per-machine executor slots. Task durations follow the stage's
// cost plus optional skew (stragglers). Between stages, each task's shuffle
// output traverses the network. Phase hierarchy emitted:
//   Job.0
//   ├── (Stage.s)
//   │   ├── (Task.t)        (machine-pinned leaf)
//   │   └── ShuffleWrite.w  (per machine, drains shuffle output)
// Consumable resources recorded: "cpu", "network" (per machine).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cluster.hpp"
#include "trace/records.hpp"

namespace g10::engine {

struct StageSpec {
  int tasks = 32;
  double work_per_task = 2.0e6;  ///< work units; ~50 ms at 4e7 units/s
  /// Multiplicative straggler skew: each task's work is scaled by
  /// 1 + skew * Z where Z ~ Exp(1); 0 = perfectly uniform.
  double skew = 0.0;
  double shuffle_bytes_per_task = 1.0e6;
};

struct DataflowJobSpec {
  std::vector<StageSpec> stages;
};

struct DataflowConfig {
  sim::ClusterSpec cluster;
  int slots_per_machine = 0;  ///< executor slots; 0 = one per core
  std::uint64_t seed = 42;
  /// Per-task CPU intensity in [min, 1] (same realism knob as the graph
  /// engines).
  double cpu_intensity_min = 0.85;

  int effective_slots() const {
    return slots_per_machine > 0 ? slots_per_machine : cluster.machine.cores;
  }
};

class DataflowEngine {
 public:
  explicit DataflowEngine(DataflowConfig config);

  trace::RunArtifacts run(const DataflowJobSpec& job) const;

  const DataflowConfig& config() const { return config_; }

 private:
  DataflowConfig config_;
};

}  // namespace g10::engine
