// Micro-benchmarks of the simulation substrate: the discrete-event kernel
// (schedule/run and schedule/cancel throughput, which bounds how fast the
// engines can generate traces) and the trace-replay simulator (§III-F,
// which bounds how many candidate performance issues Grade10 can evaluate
// per second).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "algorithms/programs.hpp"
#include "grade10/issues/replay_simulator.hpp"
#include "graph/generators.hpp"
#include "sim/simulation.hpp"
#include "workload/workload.hpp"

namespace g10::sim {
namespace {

// Capture shape representative of the engines' events: an owner pointer
// plus a few scalar fields (worker/thread ids, a time, an intensity).
struct KernelFixture {
  Simulation sim;
  std::uint64_t fired = 0;
  double accum = 0.0;
};

void BM_KernelScheduleRun(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    KernelFixture fx;
    for (int i = 0; i < events; ++i) {
      const int w = i & 7;
      const double intensity = 0.5 + 0.001 * static_cast<double>(w);
      fx.sim.schedule_at(static_cast<TimeNs>(i % 97) * 10 + w,
                         [&fx, w, intensity] {
                           ++fx.fired;
                           fx.accum += intensity * static_cast<double>(w);
                         });
    }
    fx.sim.run();
    benchmark::DoNotOptimize(fx.fired);
    benchmark::DoNotOptimize(fx.accum);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_KernelScheduleRun)->Arg(1 << 12)->Arg(1 << 16);

// Events reschedule their successors from inside callbacks (the engines'
// dominant pattern: thread_continue -> finish_chunk -> thread_continue).
// The capture mirrors an engine continuation — owner pointer, remaining
// budget, worker id, intensity — ~32 bytes, larger than std::function's
// inline buffer.
void cascade_step(KernelFixture* fx, std::uint64_t remaining, int worker,
                  double intensity) {
  ++fx->fired;
  fx->accum += intensity;
  if (remaining > 0) {
    fx->sim.schedule_after(5, [fx, remaining, worker, intensity] {
      cascade_step(fx, remaining - 1, worker ^ 1, intensity);
    });
  }
}

void BM_KernelCascade(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    KernelFixture fx;
    fx.sim.schedule_at(0, [&fx, events] {
      cascade_step(&fx, events - 1, 0, 0.75);
    });
    fx.sim.run();
    benchmark::DoNotOptimize(fx.fired);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_KernelCascade)->Arg(1 << 12)->Arg(1 << 16);

// Heartbeat-style timer churn: every timer is armed and then cancelled
// before it can fire (the failure_detector / reliable_channel pattern).
void BM_KernelScheduleCancel(benchmark::State& state) {
  const auto timers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    KernelFixture fx;
    for (int i = 0; i < timers; ++i) {
      const EventId timeout =
          fx.sim.schedule_at(1000 + i, [&fx] { ++fx.fired; });
      if (i % 16 != 0) fx.sim.cancel(timeout);
    }
    fx.sim.run();
    benchmark::DoNotOptimize(fx.fired);
  }
  state.SetItemsProcessed(state.iterations() * timers);
}
BENCHMARK(BM_KernelScheduleCancel)->Arg(1 << 12)->Arg(1 << 14);

}  // namespace
}  // namespace g10::sim

namespace g10::core {
namespace {

struct Fixture {
  trace::RunArtifacts artifacts;
  FrameworkModel model;
  std::unique_ptr<ExecutionTrace> trace;

  explicit Fixture(int scale) {
    graph::RmatParams params;
    params.scale = scale;
    params.edge_factor = 8;
    params.seed = 5;
    const auto graph = generate_rmat(params);
    engine::PregelConfig cfg;
    cfg.cluster.machine_count = 4;
    cfg.cluster.machine.cores = 8;
    artifacts =
        engine::PregelEngine(cfg).run(graph, algorithms::PageRank(10));
    model = workload::framework_model(cfg);
    trace = std::make_unique<ExecutionTrace>(ExecutionTrace::build(
        model.execution, model.resources, artifacts.phase_events,
        artifacts.blocking_events));
  }
};

void BM_ReplaySimulate(benchmark::State& state) {
  const Fixture fixture(static_cast<int>(state.range(0)));
  const ReplaySimulator sim(fixture.model.execution, *fixture.trace);
  const auto durations = sim.recorded_durations();
  for (auto _ : state) {
    auto schedule = sim.simulate(durations);
    benchmark::DoNotOptimize(schedule);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(fixture.trace->instances().size()));
  state.counters["instances"] =
      static_cast<double>(fixture.trace->instances().size());
}
BENCHMARK(BM_ReplaySimulate)->Arg(10)->Arg(12)->Arg(14);

void BM_SimulatorConstruction(benchmark::State& state) {
  const Fixture fixture(12);
  for (auto _ : state) {
    ReplaySimulator sim(fixture.model.execution, *fixture.trace);
    benchmark::DoNotOptimize(sim);
  }
}
BENCHMARK(BM_SimulatorConstruction);

}  // namespace
}  // namespace g10::core

BENCHMARK_MAIN();
