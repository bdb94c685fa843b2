// Pregel-style BSP engine — the Apache Giraph stand-in (DESIGN.md §1).
//
// Executes a PregelProgram on a simulated cluster under the discrete-event
// kernel, producing (a) correct algorithm output and (b) the performance
// artifacts the real Giraph produces for Grade10: hierarchical phase logs,
// blocking events (stop-the-world GC pauses, bounded-message-queue stalls),
// and ground-truth CPU / network usage per machine.
//
// Phase hierarchy emitted (types in parentheses are repeated):
//   Job.0
//   ├── LoadGraph.0                  └── LoadWorker.w
//   ├── Execute.0
//   │   ├── (Superstep.s)
//   │   │   ├── WorkerPrepare.w
//   │   │   ├── WorkerCompute.w      └── (ComputeThread.t)
//   │   │   ├── WorkerCommunicate.w  (concurrent with WorkerCompute)
//   │   │   ├── WorkerBarrier.w
//   │   │   └── (GcPause.k)          (when a collection happens)
//   │   ├── (Checkpoint.k)           └── CheckpointWorker.w  (under faults)
//   │   └── (Recovery.r)             └── RecoveryWorker.w    (after a crash)
//   └── StoreResults.0               └── StoreWorker.w
//
// Consumable resources recorded: "cpu" (cores in use, per machine) and
// "network" (NIC transmit bytes/s, per machine). Blocking resources
// referenced in blocking events: "GC", "MessageQueue", and — under fault
// injection — "Retry" (send retry-timeout backoff) and "Recovery"
// (checkpoint-restart downtime).
//
// Fault injection (ClusterSpec::faults): remote sends travel through a
// sim::ReliableChannel (ack/retransmit with exponential backoff, riding out
// `part:` network partitions), so message loss costs time — never
// correctness. Worker crashes are detected by surviving workers through a
// sim::FailureDetector heartbeat timeout, then handled with
// checkpoint/restart recovery. By default (CrashLogStyle::kReconciled) the
// victim's log shipper flushes closing records at the crash instant so the
// trace stays balanced and strict analysis attributes the lost time to
// Retry/Recovery; CrashLogStyle::kTruncated reproduces a raw crashed JVM's
// log (BEGIN-without-END) instead. Superstep path indices keep counting
// across re-executions (Superstep.3 crashed -> recovery -> Superstep.4
// re-runs the same logical superstep), so every path in the log stays
// unique.
#pragma once

#include "algorithms/pregel_program.hpp"
#include "engine/fault_tolerance.hpp"
#include "engine/phase_logger.hpp"
#include "graph/graph.hpp"
#include "trace/records.hpp"

namespace g10::engine {

/// Work-unit costs of the Giraph stand-in. Values are deliberately high
/// relative to the GAS engine's: Giraph pays managed-runtime overhead per
/// object touched (boxing, reference chasing), which is the root of the
/// paper's observation that Giraph rarely saturates compute.
struct PregelCostModel {
  double work_per_vertex = 400.0;   ///< per active vertex visit
  double work_per_edge = 60.0;      ///< per out-edge scanned / message sent
  double work_per_message = 45.0;   ///< per message received & deserialized
  double bytes_per_message = 24.0;  ///< wire bytes per remote message
  double work_per_load_edge = 90.0;
  double work_per_store_vertex = 120.0;
  double bytes_per_load_edge = 16.0;  ///< ingest traffic during load
  double prepare_seconds = 0.004;     ///< per-worker superstep setup
  double barrier_sync_seconds = 0.002;
  /// Multiplicative jitter on chunk durations, uniform in [1-j, 1+j].
  double work_jitter = 0.05;
  /// Per-chunk CPU intensity is uniform in [cpu_intensity_min, 1]: a JVM
  /// compute thread rarely retires a full core's worth of work (memory
  /// stalls, reference chasing, JIT). Lower intensity stretches the chunk
  /// while its recorded CPU usage drops below one core — exactly the
  /// model-vs-reality gap the paper's tuned Exact(1 core) rule papers over.
  double cpu_intensity_min = 0.80;
};

/// Stop-the-world generational GC model.
struct GcConfig {
  bool enabled = true;
  double young_gen_bytes = 192e6;          ///< collection trigger threshold
  double bytes_per_message = 96.0;         ///< allocation per message object
  double bytes_per_vertex_update = 48.0;
  double pause_base_seconds = 0.035;
  double pause_per_byte = 4.0e-10;         ///< pause growth with heap churn
  double pause_jitter = 0.25;              ///< uniform +- fraction
};

/// Bounded outgoing message buffer (Giraph's flow control): a compute
/// thread that finds the buffer above capacity blocks until it drains.
struct QueueConfig {
  double capacity_bytes = 4e6;
  double resume_fraction = 0.5;  ///< unblock when level <= fraction*capacity
};

struct PregelConfig : RunConfig {
  int partitions_per_thread = 4;  ///< dynamic load-balancing granularity
  int chunk_vertices = 192;       ///< vertices processed per scheduling chunk
  PregelCostModel costs;
  GcConfig gc;
  QueueConfig queue;
};

/// Blocking-resource names only Pregel logs, beside resource_names'.
namespace pregel_names {
inline constexpr const char* kGc = "GC";
inline constexpr const char* kMessageQueue = "MessageQueue";
}  // namespace pregel_names

class PregelEngine {
 public:
  explicit PregelEngine(PregelConfig config);

  /// Runs the program to completion; deterministic for a fixed config.
  trace::RunArtifacts run(const graph::Graph& graph,
                          const algorithms::PregelProgram& program) const;
  /// run() with the log left in the logger's compact form.
  LoggedRun run_logged(const graph::Graph& graph,
                       const algorithms::PregelProgram& program) const;

  /// Deterministic closed-form estimate of the run's makespan, used to
  /// resolve percent-based fault times ("crash:w2@40%"). Intentionally
  /// crude: total modeled work over aggregate cluster throughput, capped at
  /// 64 supersteps for convergence-bounded programs.
  TimeNs estimate_horizon(const graph::Graph& graph,
                          const algorithms::PregelProgram& program) const;

  const PregelConfig& config() const { return config_; }

 private:
  PregelConfig config_;
};

}  // namespace g10::engine
