// Fault-tolerance scaffold shared by both simulated engines (DESIGN.md §10).
//
// The Pregel and the GAS engine recover from injected worker crashes the
// same way — periodic snapshots, heartbeat failure detection, restart from
// the last complete checkpoint — and both carry remote traffic over a
// sim::ReliableChannel. FaultHarness is that machinery, written once: the
// simulated cluster (per-machine CPU, NIC and background noise), the run
// skeleton around the engine's steps (Job, LoadGraph, Execute,
// StoreResults), the logical step count and step path index, every step
// transition with its failure guard, crash and NIC-rate scheduling, the
// checkpoint write/complete/abort lifecycle, the crash -> detect -> recover
// state machine with its epoch-guarded event scheduling, and the assembly of
// the run's artifacts. An engine run derives from it and supplies only the
// hooks below — snapshot, restore, tear down a worker, close the aborted
// step's own phases, start the next step — plus per-worker sizes as data.
// The hooks run once per step at most; the per-chunk hot path never goes
// through a virtual call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/step_function.hpp"
#include "common/time.hpp"
#include "engine/phase_logger.hpp"
#include "sim/cluster.hpp"
#include "sim/failure_detector.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fluid_queue.hpp"
#include "sim/reliable_channel.hpp"
#include "sim/simulation.hpp"
#include "sim/usage_recorder.hpp"
#include "trace/records.hpp"

namespace g10::engine {

/// Checkpoint/restart fault tolerance. Checkpointing is armed only when the
/// fault spec contains a crash event, so fault-free runs stay byte-identical
/// to runs produced before this feature existed.
struct CheckpointConfig {
  int interval_steps = 1;               ///< checkpoint every k supersteps
                                        ///< (Pregel) / iterations (GAS)
  double base_seconds = 0.010;          ///< fixed per-checkpoint barrier cost
  double work_per_vertex = 30.0;        ///< serialization work per vertex
  double restart_seconds = 0.25;        ///< master detects + reschedules
  double reload_work_per_vertex = 60.0; ///< deserialize state during recovery
};

/// Unmodeled background CPU activity per machine (OS daemons, JIT compiler
/// threads): a clamped random walk added to the ground-truth CPU signal.
/// Grade10's models do not describe it, which contributes realistic
/// attribution error (paper §IV-B). The defaults are the JVM engine's; the
/// GAS engine's config lowers them for a quieter native process.
struct NoiseConfig {
  bool enabled = true;
  DurationNs interval = 25 * kMillisecond;
  double max_cores = 1.2;
  double sigma = 0.3;  ///< random-walk step (cores)
};

/// Per-worker costs of the load and store phases, in the engine's work units.
struct IoCosts {
  double work_per_load_edge = 0.0;
  double bytes_per_load_edge = 0.0;
  double work_per_store_vertex = 0.0;
};

/// The fields both engine configs share: the simulated cluster and the
/// fault-tolerance substrates FaultHarness runs.
struct RunConfig {
  sim::ClusterSpec cluster;
  int threads_per_worker = 0;  ///< 0 = one per core
  NoiseConfig noise;
  CheckpointConfig checkpoint;
  /// Retransmission policy of the reliable channel carrying remote sends:
  /// a lost message blocks the sender ("Retry" blocking event) for an
  /// exponentially growing, deterministically jittered timeout before the
  /// attempt is repeated. Partitioned links are ridden out past the budget;
  /// plain loss is forced through once the budget ends.
  sim::ReliableChannelConfig retry;
  /// Heartbeat failure detection; its seed is folded with `seed` so two runs
  /// differing only in the engine seed also shift their detection latency.
  sim::FailureDetectorConfig heartbeat;
  CrashLogStyle crash_log = CrashLogStyle::kReconciled;
  std::uint64_t seed = 42;
  /// Host threads the engines' per-step passes (Pregel's superstep, GAS's
  /// iteration) fan out on (0 = G10_THREADS, else the hardware count).
  /// Never changes a result.
  std::size_t host_threads = 0;

  int effective_threads() const {
    return threads_per_worker > 0 ? threads_per_worker
                                  : cluster.machine.cores;
  }
};

/// Base of one engine run: owns the simulated cluster, the run skeleton and
/// its fault handling, as the engine config's RunConfig base describes.
class FaultHarness {
 public:
  FaultHarness(const FaultHarness&) = delete;
  FaultHarness& operator=(const FaultHarness&) = delete;

 protected:
  /// `io` prices the load and store phases; `nominal_horizon` anchors
  /// percent-based fault times (the engine's closed-form makespan estimate);
  /// `step_type` names the engine's repeated step phase (Superstep,
  /// Iteration).
  FaultHarness(const RunConfig& cfg, const IoCosts& io,
               TimeNs nominal_horizon, trace::Symbol step_type);
  virtual ~FaultHarness() = default;

  /// Machine w's NIC transmit queue and CPU usage recorder.
  sim::FluidQueue& nic(int w) {
    return *machines_[static_cast<std::size_t>(w)].nic;
  }
  sim::UsageRecorder& cpu(int w) {
    return *machines_[static_cast<std::size_t>(w)].cpu;
  }

  // ---- time helpers ---------------------------------------------------------
  DurationNs ns_for_work(double work) const {
    return static_cast<DurationNs>(work / machine_.core_work_per_sec *
                                   static_cast<double>(kSecond));
  }
  static DurationNs ns_from_seconds(double s) {
    return static_cast<DurationNs>(s * static_cast<double>(kSecond));
  }
  /// Multiplicative jitter, uniform in [1 - magnitude, 1 + magnitude].
  double jitter(double magnitude) {
    return 1.0 + magnitude * (2.0 * rng_.next_double() - 1.0);
  }

  /// Schedules `fn` at `t`, cancelled implicitly when a crash bumps the
  /// epoch: every event belonging to the aborted execution attempt carries
  /// the epoch it was scheduled in and becomes a no-op once stale.
  template <typename Fn>
  void schedule_epoch(TimeNs t, Fn fn) {
    sim_.schedule_at(t, [this, e = epoch_, fn = std::move(fn)]() mutable {
      if (e == epoch_) fn();
    });
  }

  /// Schedules a step transition — a barrier that starts the next step or
  /// the next stage of this one — at `t`. Like schedule_epoch, and also
  /// dropped while a failure is pending: from a crash until its recovery,
  /// recovery owns the timeline, so no step may start or retire and no stage
  /// may open phases on the dead worker.
  template <typename Fn>
  void schedule_transition(TimeNs t, Fn fn) {
    sim_.schedule_at(t, [this, e = epoch_, fn = std::move(fn)]() mutable {
      if (e == epoch_ && !any_dead_) fn();
    });
  }

  /// Sends `bytes` from worker w to `dst` through the reliable channel.
  /// Every planned attempt, retransmits included, costs the payload on w's
  /// NIC at its own time. Returns when the sender holds the ack.
  TimeNs send_reliable(int w, int dst, double bytes, TimeNs now);

  /// Records an END logged ahead of simulated time (a drained communication
  /// phase, a step barrier); an aborted step closes no earlier than this.
  void note_logged_end(TimeNs t) {
    logged_end_floor_ = std::max(logged_end_floor_, t);
  }

  /// Called once the graph is partitioned. Logs Job, LoadGraph and one
  /// LoadWorker per worker ingesting `edges[w]` edges, opens Execute and
  /// schedules the first start_step(). `owned_vertices[w]` sizes worker w's
  /// checkpoint write, state reload and result store; `reingest_work[w]` is
  /// the extra recovery work when w itself is the restarted victim. Also
  /// starts the noise walk and arms crashes and NIC-rate changes.
  void start_job(const std::vector<double>& edges,
                 std::vector<double> owned_vertices,
                 std::vector<double> reingest_work);

  /// Steps retired so far: the logical step the program runs next. Restored
  /// from the snapshot on recovery.
  int logical_step() const { return logical_step_; }

  /// Path of the current step instance. The index counts instances, not
  /// logical steps: a step re-executed after a crash gets a fresh index, so
  /// every path in the log stays unique. The two coincide fault-free.
  trace::PathRef step_path() const {
    return exec_path_.child(step_type_, step_instance_);
  }

  /// Retires the current step at its barrier `t`: advances both counters,
  /// then writes a checkpoint when one is due (start_step() follows once the
  /// write completes) or starts the next step at once.
  void retire_step(TimeNs t);

  /// Closes Execute at `t`, logs StoreResults with one StoreWorker per
  /// worker and marks the job complete: the noise walk and NIC-rate changes
  /// stop, and simulate() may return.
  void finish_job(TimeNs t);

  /// Closes `path` at max(now, its begin) or, truncating, abandons it; a
  /// no-op when the path is not open.
  void close_or_abandon(const trace::PathRef& path, bool truncate,
                        TimeNs now, trace::MachineId machine);

  /// Runs the simulation to completion and assembles the run: the log
  /// (moved out, unrendered), communication counters, per-machine
  /// CPU/network ground truth, and the engine's final `vertex_values`
  /// (moved out).
  LoggedRun simulate(std::vector<double>& vertex_values);

  Rng rng_;
  sim::FaultInjector faults_;
  const sim::MachineSpec machine_;  ///< every machine's hardware
  const int workers_;
  sim::Simulation sim_;
  PhaseLogger log_;
  const trace::PathRef job_path_;
  const trace::PathRef exec_path_;
  std::vector<char> dead_;  ///< per worker: crashed, not yet recovered
  sim::ReliableChannel channel_;
  // The run's communication counters reported through RunArtifacts::comm.
  trace::CommStats comm_;

 private:
  /// One simulated machine's resources.
  struct Machine {
    std::unique_ptr<sim::FluidQueue> nic;
    std::unique_ptr<sim::UsageRecorder> cpu;
    StepFunction noise;  ///< unmodeled background CPU
    double noise_level = 0.0;
  };

  // ---- engine hooks ---------------------------------------------------------
  /// Snapshot and restore the engine's program state; the harness keeps the
  /// logical step beside it.
  virtual void save_snapshot() = 0;
  virtual void restore_snapshot() = 0;
  /// Stops worker w at `now`: releases its in-flight CPU and closes (or,
  /// truncating, abandons) its open phases. The harness then drops the
  /// worker's queued NIC traffic.
  virtual void teardown_worker(int w, TimeNs now, bool truncate) = 0;
  /// Closes the aborted step's still-open global phases below the step path
  /// at `close` (or abandons them); the harness then closes the step itself
  /// and retires its path index.
  virtual void abort_step(TimeNs /*close*/, bool /*truncate*/) {}
  /// Starts the next step at `t`, or calls finish_job(t) when none is left.
  virtual void start_step(TimeNs t) = 0;

  void noise_tick(int w);
  void schedule_next_crash(TimeNs floor);
  void schedule_nic_changes();
  TimeNs write_checkpoint(TimeNs t);
  void complete_checkpoint();
  void abort_checkpoint(int victim, TimeNs now);
  void stop_worker(int w, TimeNs now, bool truncate);
  void fire_crash();
  void detect_and_recover();

  std::vector<Machine> machines_;
  const NoiseConfig noise_;
  const CheckpointConfig checkpoint_;
  const CrashLogStyle crash_log_;
  const IoCosts io_;
  const trace::Symbol step_type_;
  sim::FailureDetector detector_;
  bool checkpointing_ = false;  ///< armed iff the spec contains a crash
  bool execute_finished_ = false;
  TimeNs makespan_ = 0;
  std::vector<double> owned_vertices_;
  std::vector<double> reingest_work_;
  int logical_step_ = 0;
  int snapshot_step_ = 0;   ///< logical_step_ at the last saved snapshot
  int step_instance_ = 0;   ///< step path index, never reused

  std::uint64_t epoch_ = 0;  ///< bumped when recovery aborts an attempt
  bool any_dead_ = false;
  int crash_victim_ = -1;
  TimeNs crash_time_ = 0;
  /// Latest END logged ahead of time. Never reset: every such END of an
  /// earlier step precedes the current step's start, so only the max counts.
  TimeNs logged_end_floor_ = 0;
  int recovery_seq_ = 0;
  int checkpoint_seq_ = 0;
  bool checkpoint_active_ = false;  ///< a checkpoint write is in flight
  trace::PathRef checkpoint_path_;
  std::vector<TimeNs> checkpoint_wend_;  ///< per-worker write-finish times
};

}  // namespace g10::engine
