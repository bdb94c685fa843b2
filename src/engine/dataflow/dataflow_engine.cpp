#include "engine/dataflow/dataflow_engine.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "engine/phase_logger.hpp"
#include "engine/resource_names.hpp"
#include "sim/fluid_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/usage_recorder.hpp"

namespace g10::engine {

namespace {

using trace::PathRef;

/// Phase-type names interned once per process; the engine then builds paths
/// from symbols without touching the symbol table's mutex.
struct DataflowSymbols {
  trace::Symbol job, stage, task, shuffle_write;
};

const DataflowSymbols& dataflow_symbols() {
  static const DataflowSymbols symbols = [] {
    auto& table = trace::SymbolTable::global();
    DataflowSymbols s;
    s.job = table.intern("Job");
    s.stage = table.intern("Stage");
    s.task = table.intern("Task");
    s.shuffle_write = table.intern("ShuffleWrite");
    return s;
  }();
  return symbols;
}

class DataflowRun {
 public:
  DataflowRun(const DataflowConfig& cfg, const DataflowJobSpec& job)
      : cfg_(cfg), job_(job), rng_(cfg.seed) {
    cfg_.cluster.validate();
    G10_CHECK_MSG(!job.stages.empty(), "dataflow job needs stages");
    G10_CHECK(cfg_.effective_slots() <= cfg_.cluster.machine.cores);
  }

  trace::RunArtifacts execute();

 private:
  struct Machine {
    std::unique_ptr<sim::UsageRecorder> cpu;
    std::unique_ptr<sim::FluidQueue> nic;
  };

  void start_stage(int stage, TimeNs t);
  void schedule_next_task(int machine, int slot);
  void finish_stage_compute(int stage);

  PathRef stage_path(int stage) const {
    return job_path_.child(dataflow_symbols().stage, stage);
  }

  DataflowConfig cfg_;
  const DataflowJobSpec& job_;
  Rng rng_;
  sim::Simulation sim_;
  PhaseLogger log_;
  const PathRef job_path_ = PathRef{}.child(dataflow_symbols().job, 0);
  std::vector<Machine> machines_;

  // Current stage scheduling state.
  int stage_ = -1;
  PathRef stage_path_;  ///< cached stage_path(stage_)
  int next_task_ = 0;
  int running_tasks_ = 0;
  bool stage_compute_done_ = false;
  TimeNs stage_begin_ = 0;
  bool finished_ = false;
  TimeNs makespan_ = 0;
};

void DataflowRun::schedule_next_task(int machine, int slot) {
  (void)slot;
  const StageSpec& spec = job_.stages[static_cast<std::size_t>(stage_)];
  if (next_task_ >= spec.tasks) {
    if (running_tasks_ == 0 && !stage_compute_done_) {
      stage_compute_done_ = true;
      finish_stage_compute(stage_);
    }
    return;
  }
  const int task = next_task_++;
  ++running_tasks_;
  auto& m = machines_[static_cast<std::size_t>(machine)];
  const TimeNs now = sim_.now();
  const double skewed_work =
      spec.work_per_task *
      (1.0 + spec.skew * rng_.next_exponential(1.0));
  const double intensity = rng_.next_double(cfg_.cpu_intensity_min, 1.0);
  const auto duration = static_cast<DurationNs>(
      skewed_work / (cfg_.cluster.machine.core_work_per_sec * intensity) *
      static_cast<double>(kSecond));
  const PathRef path = stage_path_.child(dataflow_symbols().task, task);
  log_.begin(path, now, machine);
  m.cpu->add(now, intensity);
  sim_.schedule_after(std::max<DurationNs>(duration, 1), [this, machine, slot,
                                                          path, intensity,
                                                          &spec] {
    auto& mm = machines_[static_cast<std::size_t>(machine)];
    const TimeNs end = sim_.now();
    mm.cpu->add(end, -intensity);
    mm.nic->enqueue(end, spec.shuffle_bytes_per_task);
    log_.end(path, end, machine);
    --running_tasks_;
    schedule_next_task(machine, slot);
  });
}

void DataflowRun::start_stage(int stage, TimeNs t) {
  if (stage >= static_cast<int>(job_.stages.size())) {
    log_.end(job_path_, t, trace::kGlobalMachine);
    makespan_ = t;
    finished_ = true;
    return;
  }
  stage_ = stage;
  stage_path_ = stage_path(stage);
  next_task_ = 0;
  running_tasks_ = 0;
  stage_compute_done_ = false;
  stage_begin_ = t;
  log_.begin(stage_path_, t, trace::kGlobalMachine);
  for (int machine = 0; machine < cfg_.cluster.machine_count; ++machine) {
    for (int slot = 0; slot < cfg_.effective_slots(); ++slot) {
      sim_.schedule_at(t, [this, machine, slot] {
        schedule_next_task(machine, slot);
      });
    }
  }
}

void DataflowRun::finish_stage_compute(int stage) {
  // The stage completes when every machine's shuffle output has drained.
  const TimeNs now = sim_.now();
  TimeNs done = now;
  for (int machine = 0; machine < cfg_.cluster.machine_count; ++machine) {
    auto& m = machines_[static_cast<std::size_t>(machine)];
    const TimeNs drained = m.nic->time_empty(now);
    const PathRef shuffle =
        stage_path(stage).child(dataflow_symbols().shuffle_write, machine);
    log_.begin(shuffle, stage_begin_, machine);
    log_.end(shuffle, drained, machine);
    done = std::max(done, drained);
  }
  log_.end(stage_path(stage), done, trace::kGlobalMachine);
  sim_.schedule_at(done, [this, stage] { start_stage(stage + 1, sim_.now()); });
}

trace::RunArtifacts DataflowRun::execute() {
  machines_.resize(static_cast<std::size_t>(cfg_.cluster.machine_count));
  for (auto& m : machines_) {
    m.cpu = std::make_unique<sim::UsageRecorder>(
        resource_names::kCpu,
        static_cast<double>(cfg_.cluster.machine.cores));
    m.nic = std::make_unique<sim::FluidQueue>(
        cfg_.cluster.machine.nic_bytes_per_sec());
  }
  log_.begin(job_path_, 0, trace::kGlobalMachine);
  start_stage(0, 0);
  sim_.run();
  G10_CHECK_MSG(finished_, "dataflow job did not finish");

  trace::RunArtifacts artifacts = LoggedRun{std::move(log_), {}}.render();
  artifacts.makespan = makespan_;
  for (int machine = 0; machine < cfg_.cluster.machine_count; ++machine) {
    auto& m = machines_[static_cast<std::size_t>(machine)];
    trace::GroundTruthSeries cpu;
    cpu.resource = resource_names::kCpu;
    cpu.machine = machine;
    cpu.capacity = static_cast<double>(cfg_.cluster.machine.cores);
    cpu.series = m.cpu->series();
    artifacts.ground_truth.push_back(std::move(cpu));
    trace::GroundTruthSeries net;
    net.resource = resource_names::kNetwork;
    net.machine = machine;
    net.capacity = cfg_.cluster.machine.nic_bytes_per_sec();
    net.series = m.nic->finalize_rate_series(makespan_);
    artifacts.ground_truth.push_back(std::move(net));
  }
  return artifacts;
}

}  // namespace

DataflowEngine::DataflowEngine(DataflowConfig config)
    : config_(std::move(config)) {
  config_.cluster.validate();
}

trace::RunArtifacts DataflowEngine::run(const DataflowJobSpec& job) const {
  DataflowRun run(config_, job);
  return run.execute();
}

}  // namespace g10::engine
