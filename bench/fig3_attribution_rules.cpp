// Figure 3 (paper §IV-B): impact of attribution rules on resource
// attribution — PageRank on the Giraph stand-in, one worker's Compute
// phase, analyzed (a) without rules (implicit Variable 1x) and (b) with the
// tuned rules ("an active compute thread uses exactly one CPU core").
//
// The harness prints, for both configurations: the estimated CPU demand and
// attributed CPU usage of worker 0's Compute subtree over time, plus the
// fraction of slices flagged CPU-bottlenecked, and exports the full series
// to CSV. Paper shape targets:
//   (1) untuned demand exceeds the thread count; tuned demand never does;
//   (2) with rules, whenever compute threads are not blocked they are
//       CPU-bottlenecked; without rules, those bottlenecks are missed;
//   (3) GC regions show blocking (demand collapses), queue-bound regions
//       show bursty sub-core attributed usage.
//
// `--check` also asserts targets (1) and (2) as EXPERIMENTS.md states them:
// untuned demand exceeds the thread count and tuned demand does not; with
// rules at least 95% of the compute slices are flagged CPU-bottlenecked,
// without rules fewer than 50%. A failed predicate is named on stderr and
// the harness exits 1; stdout is the same with or without the flag.
#include <algorithm>
#include <iostream>
#include <string_view>

#include "algorithms/programs.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "support/experiment.hpp"
#include "support/workloads.hpp"

namespace g10::bench {
namespace {

struct Series {
  /// Machine-0 CPU demand estimate (exact + variable weights), the curve of
  /// Fig. 3's upper plots.
  std::vector<double> demand;
  /// CPU usage attributed to worker 0's compute threads.
  std::vector<double> usage;
  std::vector<char> bottlenecked;  ///< any worker-0 compute thread
  std::vector<char> gc_active;    ///< a GcPause covers this slice (mach. 0)
  double max_demand_outside_gc = 0.0;
  double bottleneck_fraction = 0.0;  ///< of slices with active compute
};

Series analyze(const CharacterizedRun& run,
               const core::AttributionRuleSet& rules) {
  const auto& result = run.result;
  Series out;
  const core::ResourceId cpu = run.model.cpu;
  // The pipeline keeps no tables: rebuild machine 0's from the trace.
  const std::vector<core::DemandMatrix> matrices = core::estimate_demand(
      run.model.resources, rules, result.trace, result.grid);
  const core::AttributedUsage usage =
      core::attribute_usage(matrices, result.monitored, result.grid);
  const core::AttributedResource* attributed = usage.find(cpu, 0);
  const core::DemandMatrix* demand = nullptr;
  for (const auto& m : matrices) {
    if (m.resource == cpu && m.machine == 0) demand = &m;
  }
  if (attributed == nullptr || demand == nullptr) return out;

  const core::PhaseTypeId thread_type =
      run.model.execution.find("ComputeThread");
  const core::PhaseTypeId gc_type = run.model.execution.find("GcPause");
  std::vector<char> is_compute_leaf(result.trace.instances().size(), 0);
  const auto slices = static_cast<std::size_t>(attributed->slice_count());
  out.gc_active.assign(slices, 0);
  const TimesliceGrid grid(50 * kMillisecond);
  for (const auto& instance : result.trace.instances()) {
    if (instance.type == thread_type && instance.machine == 0) {
      is_compute_leaf[static_cast<std::size_t>(instance.id)] = 1;
    }
    if (instance.type == gc_type && instance.machine == 0) {
      for (TimesliceIndex s = grid.slice_of(instance.begin);
           s * grid.slice_duration() < instance.end; ++s) {
        if (static_cast<std::size_t>(s) < slices) {
          out.gc_active[static_cast<std::size_t>(s)] = 1;
        }
      }
    }
  }

  out.demand.assign(slices, 0.0);
  out.usage.assign(slices, 0.0);
  out.bottlenecked.assign(slices, 0);
  for (std::size_t s = 0; s < slices; ++s) {
    out.demand[s] = demand->exact[s] + demand->variable[s];
    if (!out.gc_active[s]) {
      out.max_demand_outside_gc =
          std::max(out.max_demand_outside_gc, out.demand[s]);
    }
  }
  const core::ResourceSaturation* saturation =
      result.bottlenecks.find_saturation(cpu, 0);
  std::vector<double> compute_demand(slices, 0.0);
  for (std::size_t s = 0; s < slices; ++s) {
    for (const auto& entry :
         attributed->slice_entries(static_cast<TimesliceIndex>(s))) {
      if (!is_compute_leaf[static_cast<std::size_t>(entry.instance)]) continue;
      out.usage[s] += entry.usage;
      compute_demand[s] += entry.fraction;
      const bool saturated =
          saturation != nullptr && saturation->saturated[s] != 0;
      const bool self_limited =
          entry.exact && entry.demand > 0.0 &&
          entry.usage >= core::kExactCapThreshold * entry.demand;
      if (saturated || self_limited) out.bottlenecked[s] = 1;
    }
  }
  std::size_t active = 0;
  std::size_t bottlenecked = 0;
  for (std::size_t s = 0; s < slices; ++s) {
    // Only slices where compute threads are mostly runnable (not blocked
    // on GC or the message queue) count toward the paper's claim.
    if (compute_demand[s] > 3.0) {
      ++active;
      if (out.bottlenecked[s]) ++bottlenecked;
    }
  }
  out.bottleneck_fraction =
      active > 0 ? static_cast<double>(bottlenecked) /
                       static_cast<double>(active)
                 : 0.0;
  return out;
}

int run(bool check) {
  std::cout << "Figure 3: impact of attribution rules (PageRank on "
               "Giraph-sim, worker 0 Compute phase)\n\n";
  const Dataset dataset = make_rmat_dataset(15);
  const algorithms::PageRank pagerank(20);
  auto cfg = default_pregel_config();

  CharacterizeOptions tuned_options;
  tuned_options.timeslice = 50 * kMillisecond;
  tuned_options.monitoring_interval = 400 * kMillisecond;
  tuned_options.tuned_rules = true;
  const CharacterizedRun tuned =
      characterize_pregel(cfg, dataset.graph, pagerank, tuned_options);

  CharacterizeOptions untuned_options = tuned_options;
  untuned_options.tuned_rules = false;
  const CharacterizedRun untuned =
      characterize_pregel(cfg, dataset.graph, pagerank, untuned_options);

  const Series with_rules = analyze(tuned, tuned.model.tuned_rules);
  const Series without_rules = analyze(untuned, untuned.model.untuned_rules);
  const int threads = cfg.effective_threads();

  TextTable table({"configuration", "max est. demand (non-GC)",
                   "demand > #threads?", "CPU-bottlenecked compute slices"});
  table.add_row({"(a) no rules (Variable 1x)",
                 format_fixed(without_rules.max_demand_outside_gc, 2),
                 without_rules.max_demand_outside_gc >
                         static_cast<double>(threads) + 0.01
                     ? "yes (wrong)"
                     : "no",
                 format_percent(without_rules.bottleneck_fraction)});
  table.add_row({"(b) tuned rules (Exact 1 core/thread)",
                 format_fixed(with_rules.max_demand_outside_gc, 2),
                 with_rules.max_demand_outside_gc >
                         static_cast<double>(threads) + 0.01
                     ? "yes (wrong)"
                     : "no",
                 format_percent(with_rules.bottleneck_fraction)});
  table.render(std::cout);

  std::cout << "\ncompute threads per worker: " << threads << "\n";
  std::cout << "GC blocking events in run: "
            << tuned.artifacts.blocking_events.size() << " (GC + queue)\n";

  // Export the full time series for both configurations.
  CsvWriter csv(results_dir() + "/fig3_attribution_rules.csv");
  csv.write_row(std::vector<std::string>{
      "slice", "t_ms", "untuned_demand", "untuned_usage",
      "untuned_bottleneck", "tuned_demand", "tuned_usage",
      "tuned_bottleneck"});
  const std::size_t slices =
      std::min(with_rules.demand.size(), without_rules.demand.size());
  for (std::size_t s = 0; s < slices; ++s) {
    csv.write_row(std::vector<double>{
        static_cast<double>(s), static_cast<double>(s) * 50.0,
        without_rules.demand[s], without_rules.usage[s],
        static_cast<double>(without_rules.bottlenecked[s]),
        with_rules.demand[s], with_rules.usage[s],
        static_cast<double>(with_rules.bottlenecked[s])});
  }

  std::cout
      << "\nPaper shape targets: (1) untuned demand exceeds the number of\n"
         "compute threads while tuned demand never does; (2) with rules,\n"
         "non-blocked compute is (almost always) CPU-bottlenecked, without\n"
         "rules those bottlenecks are mostly missed.\n";
  if (!check) return 0;
  const double thread_count = static_cast<double>(threads);
  bool ok = true;
  const auto expect = [&ok](bool holds, const char* claim) {
    if (!holds) std::cerr << "fig3 check failed: " << claim << '\n';
    ok &= holds;
  };
  expect(without_rules.max_demand_outside_gc > thread_count,
         "untuned demand exceeds the compute thread count");
  expect(with_rules.max_demand_outside_gc <= thread_count,
         "tuned demand stays within the compute thread count");
  expect(with_rules.bottleneck_fraction >= 0.95,
         "with rules >= 95% of compute slices are CPU-bottlenecked");
  expect(without_rules.bottleneck_fraction < 0.50,
         "without rules < 50% of compute slices are CPU-bottlenecked");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace g10::bench

int main(int argc, char** argv) {
  const bool check = argc == 2 && std::string_view(argv[1]) == "--check";
  if (argc > 1 && !check) {
    std::cerr << "usage: fig3_attribution_rules [--check]\n";
    return 2;
  }
  return g10::bench::run(check);
}
