// Figure 6 (paper §IV-D): discovery of the PowerGraph synchronization bug.
//
// Runs CDLP on the GAS engine with the §IV-D bug reproduction enabled and,
// like the paper, (1) prints the per-thread durations of every worker in
// the first Gather step — showing both the inter-worker spread caused by
// the hash-source vertex-cut and the intra-worker outlier thread caused by
// the bug — and (2) scans every gather step for outlier threads, reporting
// what fraction of non-trivial steps is affected and the induced slowdown.
//
// Paper shape targets: median thread durations differ strongly across
// workers (6.4-20.5 s there); one thread can take ~2.9x its worker's mean;
// outliers affect ~20% of non-trivial steps with slowdowns of 1.10-2.50x.
#include <algorithm>
#include <iostream>
#include <map>

#include "algorithms/programs.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "engine/gas/gas_engine.hpp"
#include "grade10/trace/execution_trace.hpp"
#include "support/experiment.hpp"
#include "support/workloads.hpp"

namespace g10::bench {
namespace {

/// Thread durations of one (iteration, worker) gather phase.
struct GatherGroup {
  int iteration = 0;
  int worker = 0;
  std::vector<double> thread_seconds;
};

std::vector<GatherGroup> collect_gather_groups(
    const core::ExecutionTrace& trace, const core::ExecutionModel& model) {
  const core::PhaseTypeId thread_type = model.find("GatherThread");
  std::map<std::pair<int, int>, GatherGroup> groups;
  for (const auto& instance : trace.instances()) {
    if (instance.type != thread_type) continue;
    // Path: Job.0/Execute.0/Iteration.i/GatherStep.0/WorkerGather.w/...
    const auto path = *trace::parse_phase_path(instance.path);
    const int iteration = static_cast<int>(path.elements[2].index);
    const int worker = static_cast<int>(path.elements[4].index);
    auto& group = groups[{iteration, worker}];
    group.iteration = iteration;
    group.worker = worker;
    group.thread_seconds.push_back(to_seconds(instance.duration()));
  }
  std::vector<GatherGroup> out;
  for (auto& [key, group] : groups) out.push_back(std::move(group));
  return out;
}

int run() {
  std::cout << "Figure 6: per-thread durations in CDLP Gather steps "
               "(PowerGraph-sim with the sync bug)\n\n";
  const Dataset dataset = make_datagen_dataset(65536, 16.0);
  const algorithms::Cdlp cdlp(10);

  auto cfg = default_gas_config();
  // Slow cores bring per-step durations to the multi-second scale of the
  // paper's testbed (absolute numbers are calibration, not reproduction
  // targets — see DESIGN.md).
  cfg.cluster.machine.core_work_per_sec = 2.0e5;
  cfg.sync_bug.enabled = true;
  cfg.sync_bug.probability = 0.12;  // ~20% of steps hit on 4 workers
  cfg.seed = 77;

  // The paper scans many jobs (the bug is sporadic); we run 8 and pool the
  // gather steps, printing the first job's first step in detail.
  const auto model = workload::framework_model(cfg);
  std::vector<GatherGroup> groups;           // first job only (Fig. 6 proper)
  std::vector<GatherGroup> pooled;           // all jobs, for the outlier scan
  for (int job = 0; job < 8; ++job) {
    auto job_cfg = cfg;
    job_cfg.seed = cfg.seed + static_cast<std::uint64_t>(job);
    const engine::GasEngine engine(job_cfg);
    const auto artifacts = engine.run(dataset.graph, cdlp);
    const auto trace = core::ExecutionTrace::build(
        model.execution, model.resources, artifacts.phase_events,
        artifacts.blocking_events);
    auto job_groups = collect_gather_groups(trace, model.execution);
    for (auto& group : job_groups) {
      group.iteration += job * 1000;  // keep steps from different jobs apart
      pooled.push_back(group);
      if (job == 0) {
        group.iteration -= job * 1000;
        groups.push_back(std::move(group));
      }
    }
  }

  // --- (1) first iteration: per-worker thread durations -------------------
  std::cout << "First Gather step (iteration 0):\n";
  TextTable table({"worker", "threads [s]", "median [s]", "max [s]",
                   "max/mean"});
  CsvWriter csv(results_dir() + "/fig6_first_gather_threads.csv");
  csv.write_row(
      std::vector<std::string>{"worker", "thread", "duration_s"});
  double worst_ratio = 0.0;
  double min_median = 1e18;
  double max_median = 0.0;
  for (const auto& group : groups) {
    if (group.iteration != 0) continue;
    RunningStats stats;
    std::string list;
    for (std::size_t t = 0; t < group.thread_seconds.size(); ++t) {
      stats.add(group.thread_seconds[t]);
      if (!list.empty()) list += " ";
      list += format_fixed(group.thread_seconds[t], 2);
      csv.write_row(std::vector<double>{static_cast<double>(group.worker),
                                        static_cast<double>(t),
                                        group.thread_seconds[t]});
    }
    const double med = median(group.thread_seconds);
    min_median = std::min(min_median, med);
    max_median = std::max(max_median, med);
    const double ratio = stats.mean() > 0 ? stats.max() / stats.mean() : 0.0;
    worst_ratio = std::max(worst_ratio, ratio);
    table.add_row({std::to_string(group.worker), list, format_fixed(med, 2),
                   format_fixed(stats.max(), 2), format_fixed(ratio, 2)});
  }
  table.render(std::cout);
  std::cout << "\nInter-worker median spread: " << format_fixed(min_median, 2)
            << " - " << format_fixed(max_median, 2)
            << " s (paper: 6.4 - 20.5 s)\n";
  std::cout << "Worst outlier thread vs worker mean: "
            << format_fixed(worst_ratio, 2) << "x (paper: 2.88x)\n";

  // --- (2) outlier scan over the gather steps of all 8 jobs ----------------
  std::map<int, std::vector<const GatherGroup*>> by_iteration;
  for (const auto& group : pooled) {
    by_iteration[group.iteration].push_back(&group);
  }
  int non_trivial = 0;
  int affected = 0;
  double min_slowdown = 1e18;
  double max_slowdown = 0.0;
  const double trivial_threshold = 0.5;  // seconds; paper uses 1 s
  for (const auto& [iteration, workers] : by_iteration) {
    double actual = 0.0;
    double without_outliers = 0.0;
    bool has_outlier = false;
    for (const GatherGroup* group : workers) {
      const double med = median(group->thread_seconds);
      double worker_actual = 0.0;
      double worker_clean = 0.0;
      for (const double d : group->thread_seconds) {
        worker_actual = std::max(worker_actual, d);
        if (med > 0 && d > 1.5 * med) {
          has_outlier = true;
          worker_clean = std::max(worker_clean, med);
        } else {
          worker_clean = std::max(worker_clean, d);
        }
      }
      actual = std::max(actual, worker_actual);
      without_outliers = std::max(without_outliers, worker_clean);
    }
    if (actual < trivial_threshold) continue;
    ++non_trivial;
    if (has_outlier && without_outliers > 0.0) {
      const double slowdown = actual / without_outliers;
      if (slowdown > 1.02) {
        ++affected;
        min_slowdown = std::min(min_slowdown, slowdown);
        max_slowdown = std::max(max_slowdown, slowdown);
      }
    }
  }
  std::cout << "\nOutlier scan over all Gather steps:\n";
  std::cout << "  non-trivial steps (> " << trivial_threshold
            << " s): " << non_trivial << "\n";
  std::cout << "  steps slowed by an outlier thread: " << affected << " ("
            << format_percent(non_trivial > 0
                                  ? static_cast<double>(affected) /
                                        non_trivial
                                  : 0.0)
            << "; paper: ~20%)\n";
  if (affected > 0) {
    std::cout << "  slowdown range: " << format_fixed(min_slowdown, 2)
              << "x - " << format_fixed(max_slowdown, 2)
              << "x (paper: 1.10x - 2.50x)\n";
  }
  return 0;
}

}  // namespace
}  // namespace g10::bench

int main() { return g10::bench::run(); }
