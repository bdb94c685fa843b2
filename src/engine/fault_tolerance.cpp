#include "engine/fault_tolerance.hpp"

#include "common/check.hpp"
#include "engine/resource_names.hpp"

namespace g10::engine {

namespace {

using trace::PathRef;

// Seed offset for the fault injector's forked RNG stream: fault decisions
// must not perturb the engine's own draw sequence.
constexpr std::uint64_t kFaultSeedSalt = 0x9e3779b97f4a7c15ULL;

using resource_names::kCpu;
using resource_names::kNetwork;
using resource_names::kRecovery;

struct FaultSymbols {
  trace::Symbol job, load_graph, load_worker, execute, checkpoint,
      checkpoint_worker, recovery, recovery_worker, store_results,
      store_worker;
};

const FaultSymbols& fault_symbols() {
  static const FaultSymbols symbols = [] {
    auto& table = trace::SymbolTable::global();
    FaultSymbols s;
    s.job = table.intern("Job");
    s.load_graph = table.intern("LoadGraph");
    s.load_worker = table.intern("LoadWorker");
    s.execute = table.intern("Execute");
    s.checkpoint = table.intern("Checkpoint");
    s.checkpoint_worker = table.intern("CheckpointWorker");
    s.recovery = table.intern("Recovery");
    s.recovery_worker = table.intern("RecoveryWorker");
    s.store_results = table.intern("StoreResults");
    s.store_worker = table.intern("StoreWorker");
    return s;
  }();
  return symbols;
}

}  // namespace

FaultHarness::FaultHarness(const RunConfig& cfg, const IoCosts& io,
                           TimeNs nominal_horizon, trace::Symbol step_type)
    : rng_(cfg.seed),
      faults_(cfg.cluster.faults, cfg.seed ^ kFaultSeedSalt),
      machine_(cfg.cluster.machine),
      workers_(cfg.cluster.machine_count),
      job_path_(PathRef{}.child(fault_symbols().job, 0)),
      exec_path_(job_path_.child(fault_symbols().execute, 0)),
      dead_(static_cast<std::size_t>(cfg.cluster.machine_count), 0),
      machines_(static_cast<std::size_t>(cfg.cluster.machine_count)),
      noise_(cfg.noise),
      checkpoint_(cfg.checkpoint),
      crash_log_(cfg.crash_log),
      io_(io),
      step_type_(step_type) {
  cfg.cluster.validate();
  G10_CHECK(checkpoint_.interval_steps > 0);
  G10_CHECK(cfg.retry.max_attempts >= 0);
  if (!faults_.empty()) {
    faults_.resolve(nominal_horizon);
    checkpointing_ = faults_.has_kind(sim::FaultKind::kCrash);
  }
  // The detector's seed is folded with the run seed so two runs differing
  // only in the engine seed also shift their detection latency.
  sim::FailureDetectorConfig heartbeat = cfg.heartbeat;
  heartbeat.seed ^= cfg.seed;
  detector_ = sim::FailureDetector(heartbeat, &faults_);
  sim::ReliableChannelConfig channel = cfg.retry;
  channel.max_attempts = std::max(1, channel.max_attempts);
  channel_ = sim::ReliableChannel(channel, &faults_, workers_);
  for (Machine& m : machines_) {
    m.nic = std::make_unique<sim::FluidQueue>(machine_.nic_bytes_per_sec());
    m.cpu = std::make_unique<sim::UsageRecorder>(
        kCpu, static_cast<double>(machine_.cores));
  }
}

void FaultHarness::start_job(const std::vector<double>& edges,
                             std::vector<double> owned_vertices,
                             std::vector<double> reingest_work) {
  G10_CHECK(edges.size() == static_cast<std::size_t>(workers_));
  owned_vertices_ = std::move(owned_vertices);
  reingest_work_ = std::move(reingest_work);
  const FaultSymbols& sym = fault_symbols();
  const PathRef load = job_path_.child(sym.load_graph, 0);
  log_.begin(job_path_, 0, trace::kGlobalMachine);
  log_.begin(load, 0, trace::kGlobalMachine);
  const double cores = static_cast<double>(machine_.cores);
  TimeNs load_end = 0;
  for (int w = 0; w < workers_; ++w) {
    const double worker_edges = edges[static_cast<std::size_t>(w)];
    const DurationNs duration = ns_for_work(
        worker_edges * io_.work_per_load_edge / cores * jitter(0.05) /
        faults_.speed_factor(w, 0));
    nic(w).enqueue(0, worker_edges * io_.bytes_per_load_edge);
    cpu(w).add(0, cores);
    cpu(w).add(duration, -cores);
    const PathRef worker_load = load.child(sym.load_worker, w);
    log_.begin(worker_load, 0, w);
    const TimeNs done = std::max(duration, nic(w).time_empty(duration));
    log_.end(worker_load, done, w);
    load_end = std::max(load_end, done);
  }
  log_.end(load, load_end, trace::kGlobalMachine);
  log_.begin(exec_path_, load_end, trace::kGlobalMachine);

  if (noise_.enabled) {
    for (int w = 0; w < workers_; ++w) {
      sim_.schedule_at(0, [this, w] { noise_tick(w); });
    }
  }
  schedule_transition(load_end, [this] { start_step(sim_.now()); });
  if (checkpointing_) save_snapshot();
  schedule_next_crash(load_end);
  schedule_nic_changes();
}

void FaultHarness::finish_job(TimeNs t) {
  const FaultSymbols& sym = fault_symbols();
  log_.end(exec_path_, t, trace::kGlobalMachine);
  const PathRef store = job_path_.child(sym.store_results, 0);
  log_.begin(store, t, trace::kGlobalMachine);
  const double cores = static_cast<double>(machine_.cores);
  TimeNs store_end = t;
  for (int w = 0; w < workers_; ++w) {
    const DurationNs duration = ns_for_work(
        owned_vertices_[static_cast<std::size_t>(w)] *
        io_.work_per_store_vertex / cores * jitter(0.05) /
        faults_.speed_factor(w, t));
    cpu(w).add(t, cores);
    cpu(w).add(t + duration, -cores);
    const PathRef worker_store = store.child(sym.store_worker, w);
    log_.begin(worker_store, t, w);
    log_.end(worker_store, t + duration, w);
    store_end = std::max(store_end, t + duration);
  }
  log_.end(store, store_end, trace::kGlobalMachine);
  log_.end(job_path_, store_end, trace::kGlobalMachine);
  makespan_ = store_end;
  execute_finished_ = true;
}

void FaultHarness::noise_tick(int w) {
  if (execute_finished_) return;
  Machine& m = machines_[static_cast<std::size_t>(w)];
  m.noise_level = std::clamp(
      m.noise_level + rng_.next_normal(0.0, noise_.sigma), 0.0,
      noise_.max_cores);
  // The walk keeps advancing (fixed RNG draw schedule) but a crashed
  // machine reports zero background CPU until it rejoins.
  m.noise.set(sim_.now(),
              dead_[static_cast<std::size_t>(w)] != 0 ? 0.0 : m.noise_level);
  sim_.schedule_after(noise_.interval, [this, w] { noise_tick(w); });
}

void FaultHarness::schedule_next_crash(TimeNs floor) {
  if (!checkpointing_) return;
  const auto t = faults_.next_crash_time();
  if (!t) return;
  // Not epoch-guarded: a crash belongs to the run, not to one execution
  // attempt. A crash falling inside a recovery window fires right after it.
  sim_.schedule_at(std::max(*t, floor), [this] { fire_crash(); });
}

void FaultHarness::schedule_nic_changes() {
  if (faults_.empty()) return;
  const double base_rate = machine_.nic_bytes_per_sec();
  for (const TimeNs t : faults_.nic_change_times()) {
    // Boundaries may predate the point where scheduling happens (a window
    // opening at t=0 while the graph is still loading): apply them now.
    sim_.schedule_at(std::max(t, sim_.now()), [this, base_rate] {
      if (execute_finished_) return;
      const TimeNs now = sim_.now();
      for (int w = 0; w < workers_; ++w) {
        nic(w).set_rate(now, base_rate * faults_.nic_factor(w, now));
      }
    });
  }
}

TimeNs FaultHarness::send_reliable(int w, int dst, double bytes,
                                   TimeNs now) {
  const auto plan = channel_.plan_send(w, dst, now);
  ++comm_.channel_plans;
  for (const auto& attempt : plan.attempts) {
    if (attempt.at <= now) {
      nic(w).enqueue(now, bytes);
    } else {
      schedule_epoch(attempt.at, [this, w, bytes] {
        if (dead_[static_cast<std::size_t>(w)] != 0) return;
        nic(w).enqueue(sim_.now(), bytes);
      });
    }
  }
  return plan.complete;
}

void FaultHarness::retire_step(TimeNs t) {
  ++logical_step_;
  ++step_instance_;
  if (!checkpointing_ || logical_step_ % checkpoint_.interval_steps != 0) {
    start_step(t);
    return;
  }
  // A crash inside the write window leaves the checkpoint to be aborted by
  // the recovery path instead of completed here.
  schedule_transition(write_checkpoint(t), [this] {
    complete_checkpoint();
    start_step(sim_.now());
  });
}

TimeNs FaultHarness::write_checkpoint(TimeNs t) {
  // Open the checkpoint phases now; closure is deferred until the write
  // completes (complete_checkpoint), so a crash landing inside the window
  // truncates them — the log shows an interrupted checkpoint, and the
  // snapshot falls back to the previous complete one.
  checkpoint_path_ =
      exec_path_.child(fault_symbols().checkpoint, checkpoint_seq_++);
  log_.begin(checkpoint_path_, t, trace::kGlobalMachine);
  checkpoint_wend_.assign(static_cast<std::size_t>(workers_), t);
  TimeNs cp_end = t;
  for (int w = 0; w < workers_; ++w) {
    const DurationNs duration =
        ns_from_seconds(checkpoint_.base_seconds) +
        ns_for_work(owned_vertices_[static_cast<std::size_t>(w)] *
                    checkpoint_.work_per_vertex);
    const TimeNs wend = t + duration;
    checkpoint_wend_[static_cast<std::size_t>(w)] = wend;
    log_.begin(checkpoint_path_.child(fault_symbols().checkpoint_worker, w), t,
               w);
    // Serialization is single-threaded per worker.
    cpu(w).add(t, 1.0);
    cp_end = std::max(cp_end, wend);
  }
  checkpoint_active_ = true;
  return cp_end;
}

void FaultHarness::complete_checkpoint() {
  TimeNs cp_end = 0;
  for (int w = 0; w < workers_; ++w) {
    const TimeNs wend = checkpoint_wend_[static_cast<std::size_t>(w)];
    log_.end(checkpoint_path_.child(fault_symbols().checkpoint_worker, w),
             wend, w);
    cpu(w).add(wend, -1.0);
    cp_end = std::max(cp_end, wend);
  }
  log_.end(checkpoint_path_, cp_end, trace::kGlobalMachine);
  checkpoint_active_ = false;
  save_snapshot();
  snapshot_step_ = logical_step_;
}

void FaultHarness::abort_checkpoint(int victim, TimeNs now) {
  // Survivors stop writing when the failure is detected (`now`); the victim
  // stopped at the crash instant itself.
  const bool truncated = crash_log_ == CrashLogStyle::kTruncated;
  TimeNs cp_close = 0;
  for (int w = 0; w < workers_; ++w) {
    const PathRef worker_cp =
        checkpoint_path_.child(fault_symbols().checkpoint_worker, w);
    const TimeNs wend = checkpoint_wend_[static_cast<std::size_t>(w)];
    const TimeNs stop =
        w == victim ? std::min(crash_time_, wend) : std::min(now, wend);
    if (w == victim && truncated) {
      log_.abandon(worker_cp);
    } else {
      log_.end(worker_cp, stop, w);
      cp_close = std::max(cp_close, stop);
    }
    cpu(w).add(stop, -1.0);
  }
  if (truncated) {
    log_.abandon(checkpoint_path_);
  } else {
    log_.end(checkpoint_path_, cp_close, trace::kGlobalMachine);
  }
  checkpoint_active_ = false;
  // The snapshot was not saved: recovery falls back to the previous one.
}

void FaultHarness::close_or_abandon(const PathRef& path, bool truncate,
                                    TimeNs now, trace::MachineId machine) {
  const auto begin = log_.open_begin(path);
  if (!begin) return;
  if (truncate) {
    log_.abandon(path);
  } else {
    // Some phase begins are logged ahead of simulated time (WorkerCompute
    // opens at t+prep); never end a phase before its begin.
    log_.end(path, std::max(now, *begin), machine);
  }
}

void FaultHarness::stop_worker(int w, TimeNs now, bool truncate) {
  teardown_worker(w, now, truncate);
  // In-flight traffic of the aborted step is gone; the re-execution
  // regenerates it.
  nic(w).clear(now);
}

void FaultHarness::fire_crash() {
  if (execute_finished_) return;
  // A second failure while one is still being handled is picked up by
  // schedule_next_crash() after the in-flight recovery completes.
  if (any_dead_) return;
  const TimeNs now = sim_.now();
  const auto victim = faults_.take_crash(now);
  if (!victim) return;
  const int v = *victim;
  crash_victim_ = v;
  crash_time_ = now;
  any_dead_ = true;
  dead_[static_cast<std::size_t>(v)] = 1;
  channel_.set_dead(v, true);

  // The victim dies silently: its compute stops, its queued traffic is
  // gone, its open phases close (log shipper flush) or truncate. Survivors
  // keep running — their sends to the victim fail deterministically and
  // give up after the retry budget — until the failure detector times out
  // the victim's heartbeats; nobody here consults the injector about the
  // future.
  stop_worker(v, now, crash_log_ == CrashLogStyle::kTruncated);
  sim_.schedule_at(detector_.detect_time(v, now),
                   [this] { detect_and_recover(); });
}

void FaultHarness::detect_and_recover() {
  const TimeNs now = sim_.now();  // heartbeat-timeout detection instant
  const int victim = crash_victim_;
  // A new epoch invalidates every event of the aborted execution attempt.
  ++epoch_;
  const bool truncated = crash_log_ == CrashLogStyle::kTruncated;
  for (int w = 0; w < workers_; ++w) {
    if (w != victim) stop_worker(w, now, false);
  }
  // Some child ENDs were logged ahead of time; the aborted step must close
  // at or after every one of them.
  const TimeNs step_close = std::max(now, logged_end_floor_);
  abort_step(step_close, truncated);
  close_or_abandon(step_path(), truncated, step_close, trace::kGlobalMachine);
  ++step_instance_;
  if (checkpoint_active_) abort_checkpoint(victim, now);

  // Checkpoint-restart recovery: the master restarts the victim and every
  // worker reloads the last checkpoint; the restarted victim also redoes
  // its re-ingest work. The whole window is dead time, reported as
  // "Recovery" blocking events.
  const PathRef rec =
      exec_path_.child(fault_symbols().recovery, recovery_seq_++);
  log_.begin(rec, now, trace::kGlobalMachine);
  const DurationNs restart = ns_from_seconds(checkpoint_.restart_seconds);
  const double cores = static_cast<double>(machine_.cores);
  TimeNs rec_end = now + restart;
  for (int w = 0; w < workers_; ++w) {
    double reload_work = owned_vertices_[static_cast<std::size_t>(w)] *
                         checkpoint_.reload_work_per_vertex;
    if (w == victim) reload_work += reingest_work_[static_cast<std::size_t>(w)];
    const TimeNs wend = now + restart + ns_for_work(reload_work / cores);
    const PathRef worker_rec =
        rec.child(fault_symbols().recovery_worker, w);
    log_.begin(worker_rec, now, w);
    log_.end(worker_rec, wend, w);
    log_.block(kRecovery, worker_rec, now, wend, w);
    rec_end = std::max(rec_end, wend);
  }
  log_.end(rec, rec_end, trace::kGlobalMachine);
  restore_snapshot();
  logical_step_ = snapshot_step_;
  dead_[static_cast<std::size_t>(victim)] = 0;
  channel_.set_dead(victim, false);
  any_dead_ = false;
  crash_victim_ = -1;
  // Resume after both the recovery window and the last logged END of the
  // aborted step, so repeated step instances never overlap.
  const TimeNs resume_at = std::max(rec_end, step_close);
  schedule_transition(resume_at, [this] { start_step(sim_.now()); });
  schedule_next_crash(resume_at);
}

LoggedRun FaultHarness::simulate(std::vector<double>& vertex_values) {
  sim_.run();
  G10_CHECK_MSG(execute_finished_, "simulation ended before the job finished");

  LoggedRun run{std::move(log_), {}};
  trace::RunArtifacts& artifacts = run.artifacts;
  artifacts.makespan = makespan_;
  artifacts.vertex_values = std::move(vertex_values);
  artifacts.comm = std::move(comm_);
  for (int w = 0; w < workers_; ++w) {
    Machine& m = machines_[static_cast<std::size_t>(w)];
    trace::GroundTruthSeries cpu;
    cpu.resource = kCpu;
    cpu.machine = w;
    cpu.capacity = static_cast<double>(machine_.cores);
    cpu.series =
        StepFunction::clamped_sum(m.cpu->series(), m.noise, cpu.capacity);
    artifacts.ground_truth.push_back(std::move(cpu));

    trace::GroundTruthSeries net;
    net.resource = kNetwork;
    net.machine = w;
    net.capacity = machine_.nic_bytes_per_sec();
    net.series = m.nic->finalize_rate_series(makespan_);
    artifacts.ground_truth.push_back(std::move(net));
  }
  return run;
}

}  // namespace g10::engine
