// GAS (gather/apply/scatter) engine — the PowerGraph stand-in (DESIGN.md §1).
//
// Synchronous GAS execution over a vertex-cut partitioning: every iteration
// runs four globally-barriered steps — Gather (per-partition partial gathers
// over local edges), Apply (masters compute new values), Scatter (signal
// neighbors over local edges), and Exchange (mirror/master value and
// accumulator traffic over the network). Being a C++ system, there is no
// garbage collector and no bounded-queue stall; its characteristic
// performance issues are *imbalance* (vertex-cut skew) and the §IV-D barrier
// synchronization bug, which this engine reproduces by injection: with a
// configurable probability, one thread per gather step keeps processing a
// late stream of messages while its sibling threads idle at the barrier.
//
// Phase hierarchy emitted:
//   Job.0
//   ├── LoadGraph.0              └── LoadWorker.w
//   ├── Execute.0
//   │   ├── (Iteration.i)
//   │   │   ├── GatherStep.0     └── WorkerGather.w  └── (GatherThread.t)
//   │   │   ├── ApplyStep.0      └── WorkerApply.w   └── (ApplyThread.t)
//   │   │   ├── ScatterStep.0    └── WorkerScatter.w └── (ScatterThread.t)
//   │   │   └── ExchangeStep.0   └── WorkerExchange.w
//   │   ├── (Checkpoint.k)       └── CheckpointWorker.w  (under faults)
//   │   └── (Recovery.r)         └── RecoveryWorker.w    (after a crash)
//   └── StoreResults.0           └── StoreWorker.w
//
// Consumable resources recorded: "cpu", "network" (per machine). Blocking
// resources appear only under fault injection: "Retry" (reliable-channel
// retransmit backoff during Exchange) and "Recovery" (checkpoint-restart
// downtime after a crash).
//
// Fault injection (ClusterSpec::faults): exchange traffic travels through a
// sim::ReliableChannel, so NIC loss windows and `part:` partitions cost
// retransmit time, never correctness. Crashes are detected by heartbeat
// timeout (sim::FailureDetector) and recovered by restoring the last
// snapshot and re-ingesting the victim's edge partition; checkpointing is
// armed only when the spec contains a crash, so fault-free runs stay
// byte-identical. Iteration path indices keep counting across
// re-executions, exactly like the Pregel engine's Superstep indices.
#pragma once

#include "algorithms/gas_program.hpp"
#include "engine/fault_tolerance.hpp"
#include "engine/phase_logger.hpp"
#include "graph/graph.hpp"
#include "trace/records.hpp"

namespace g10::engine {

/// Work-unit costs for the C++ engine; an order of magnitude below the
/// Pregel/JVM engine per edge, per the paper's observation that PowerGraph's
/// compute is lean but never saturates all cores either.
struct GasCostModel {
  double work_per_gather_edge = 26.0;
  double work_per_apply = 70.0;
  double work_per_scatter_edge = 14.0;
  double work_per_exchange_value = 6.0;  ///< serialization CPU per value
  double bytes_per_value = 16.0;         ///< wire bytes per exchanged value
  double work_per_load_edge = 24.0;
  double work_per_store_vertex = 60.0;
  double bytes_per_load_edge = 12.0;
  double step_barrier_seconds = 0.0008;  ///< per-step global barrier cost
  double work_jitter = 0.06;
  /// Per-chunk CPU intensity in [cpu_intensity_min, 1]; native C++ code
  /// runs much closer to a full core than the JVM engine.
  double cpu_intensity_min = 0.85;
};

/// Reproduction of the §IV-D synchronization bug. When a gather step on a
/// worker triggers the bug, one thread receives a message stream right as
/// the others reach the barrier and keeps processing: its duration grows by
/// a factor drawn uniformly from [min_extra, max_extra] of its own gather
/// time, while sibling threads idle.
struct SyncBugConfig {
  bool enabled = false;
  double probability = 0.12;  ///< per (gather step, worker)
  double min_extra = 0.15;    ///< extra duration as a fraction of own time
  double max_extra = 1.5;
};

/// Vertex-cut strategy used to place edges on workers.
enum class VertexCutStrategy {
  kHashSource,   ///< cheap hashing; mildly skewed under power laws
  kRangeSource,  ///< input-file-split placement; strongly skewed (realistic)
  kGreedy,       ///< greedy heuristic; balanced (ablation baseline)
  kRandom,       ///< uniform random edge placement
};

struct GasConfig : RunConfig {
  /// Unmodeled background CPU (OS daemons) is quieter than the JVM
  /// engine's: the constructor lowers the inherited noise defaults.
  GasConfig() {
    noise.max_cores = 0.4;
    noise.sigma = 0.1;
  }

  int chunk_edges = 2048;  ///< gather/scatter work per scheduling chunk
  GasCostModel costs;
  SyncBugConfig sync_bug;
  VertexCutStrategy partitioning = VertexCutStrategy::kHashSource;
};

class GasEngine {
 public:
  explicit GasEngine(GasConfig config);

  trace::RunArtifacts run(const graph::Graph& graph,
                          const algorithms::GasProgram& program) const;
  /// run() with the log left in the logger's compact form.
  LoggedRun run_logged(const graph::Graph& graph,
                       const algorithms::GasProgram& program) const;

  /// Deterministic closed-form makespan estimate, used to resolve
  /// percent-based fault times (see PregelEngine::estimate_horizon).
  TimeNs estimate_horizon(const graph::Graph& graph,
                          const algorithms::GasProgram& program) const;

  const GasConfig& config() const { return config_; }

 private:
  GasConfig config_;
};

}  // namespace g10::engine
