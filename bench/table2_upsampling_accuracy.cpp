// Table II (paper §IV-B): accuracy of the upsampling process.
//
// Methodology, mirroring the paper: run a PageRank job on each engine,
// collect per-machine CPU monitoring at 50 ms as ground truth, downsample
// the trace by 2x..64x, upsample back with (a) the constant-rate strawman,
// (b) Grade10 with the untuned model (implicit Variable rules, no GC
// modeling), and (c) Grade10 with the tuned model; report the relative
// sampling error sum|upsampled - truth| / sum(truth) over all machines.
//
// Paper reference numbers (CPU, 64x/3200 ms row): constant 82.97-98.71%,
// Giraph untuned 91.02%, Giraph tuned 56.71%, PowerGraph tuned <= 15.28%;
// at 8x/400 ms the tuned models reach <= 18.83%.
//
// `--check` also asserts EXPERIMENTS.md's shape claims on every row: the
// Giraph errors order constant >= untuned > tuned, and every column's error
// is monotone (non-decreasing) in the interval. A failed predicate is named
// on stderr and the harness exits 1; stdout is the same with or without the
// flag.
#include <array>
#include <iostream>
#include <optional>
#include <string_view>
#include <vector>

#include "algorithms/programs.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "support/experiment.hpp"
#include "support/workloads.hpp"

namespace g10::bench {
namespace {

constexpr DurationNs kGroundTruthInterval = 50 * kMillisecond;

struct EngineRun {
  trace::RunArtifacts artifacts;
  std::vector<trace::MonitoringSampleRecord> fine_samples;
  core::FrameworkModel model;
  bool has_gc_records = false;
};

/// Per-machine ground-truth CPU usage per 50 ms slice (last partial slice
/// dropped).
std::vector<std::vector<double>> ground_truth_cpu(const EngineRun& run,
                                                  int machines,
                                                  std::size_t slices) {
  std::vector<std::vector<double>> truth(
      static_cast<std::size_t>(machines), std::vector<double>(slices, 0.0));
  for (const auto& sample : run.fine_samples) {
    if (sample.resource != "cpu") continue;
    const auto slice =
        static_cast<std::size_t>(sample.time / kGroundTruthInterval) - 1;
    if (slice < slices) {
      truth[static_cast<std::size_t>(sample.machine)][slice] = sample.value;
    }
  }
  return truth;
}

enum class Variant { kConstant, kUntuned, kTuned };

double upsampling_error(const EngineRun& run, int factor, Variant variant,
                        int machines) {
  const TimesliceGrid grid(kGroundTruthInterval);
  // Trace view: the untuned analyst has not modeled GC phases or blocking.
  core::ExecutionTrace::Options trace_options;
  std::vector<trace::PhaseEventRecord> events;
  std::span<const trace::PhaseEventRecord> event_span =
      run.artifacts.phase_events;
  std::span<const trace::BlockingEventRecord> block_span =
      run.artifacts.blocking_events;
  if (variant == Variant::kUntuned) {
    for (const auto& event : run.artifacts.phase_events) {
      if (event.path.leaf().type != "GcPause") events.push_back(event);
    }
    event_span = events;
    block_span = {};
  }
  const auto trace = core::ExecutionTrace::build(
      run.model.execution, run.model.resources, event_span, block_span,
      trace_options);
  const auto& rules = variant == Variant::kTuned ? run.model.tuned_rules
                                                 : run.model.untuned_rules;
  const auto demand =
      core::estimate_demand(run.model.resources, rules, trace, grid);

  const auto coarse = monitor::downsample(run.fine_samples, factor);
  const auto monitored =
      core::ResourceTrace::build(run.model.resources, coarse);
  const auto usage = core::attribute_usage(
      demand, monitored, grid, variant == Variant::kConstant);

  const auto slices = static_cast<std::size_t>(
      run.artifacts.makespan / kGroundTruthInterval);  // full slices only
  const auto truth = ground_truth_cpu(run, machines, slices);

  const core::ResourceId cpu = run.model.cpu;
  double num = 0.0;
  double den = 0.0;
  for (int machine = 0; machine < machines; ++machine) {
    const core::AttributedResource* r = usage.find(cpu, machine);
    if (r == nullptr) continue;
    for (std::size_t s = 0; s < slices; ++s) {
      const double up =
          s < r->upsampled.usage.size() ? r->upsampled.usage[s] : 0.0;
      num += std::abs(up - truth[static_cast<std::size_t>(machine)][s]);
      den += truth[static_cast<std::size_t>(machine)][s];
    }
  }
  return den > 0.0 ? num / den : 0.0;
}

int run(bool check) {
  std::cout << "Table II: relative upsampling error of CPU usage "
               "(PageRank, 50 ms ground truth)\n\n";

  const Dataset dataset = make_rmat_dataset(16);
  const algorithms::PageRank pagerank(120);

  EngineRun giraph;
  {
    const auto cfg = default_pregel_config();
    giraph.artifacts =
        engine::PregelEngine(cfg).run(dataset.graph, pagerank);
    giraph.fine_samples = monitor::sample_ground_truth(
        giraph.artifacts.ground_truth, kGroundTruthInterval,
        giraph.artifacts.makespan);
    giraph.model = workload::framework_model(cfg);
  }
  EngineRun powergraph;
  {
    auto cfg = default_gas_config();
    powergraph.artifacts =
        engine::GasEngine(cfg).run(dataset.graph, pagerank);
    powergraph.fine_samples = monitor::sample_ground_truth(
        powergraph.artifacts.ground_truth, kGroundTruthInterval,
        powergraph.artifacts.makespan);
    powergraph.model = workload::framework_model(cfg);
  }
  const int machines = testbed_cluster().machine_count;
  std::cout << "dataset: " << dataset.name << " ("
            << dataset.graph.vertex_count() << " vertices, "
            << dataset.graph.edge_count() << " edges)\n";
  std::cout << "Giraph-sim makespan:     "
            << format_fixed(to_seconds(giraph.artifacts.makespan), 2)
            << " s\n";
  std::cout << "PowerGraph-sim makespan: "
            << format_fixed(to_seconds(powergraph.artifacts.makespan), 2)
            << " s\n\n";

  TextTable table({"interval", "ratio", "giraph const", "giraph untuned",
                   "giraph tuned", "pgraph const", "pgraph tuned"});
  CsvWriter csv(results_dir() + "/table2_upsampling_accuracy.csv");
  csv.write_row(std::vector<std::string>{
      "interval_ms", "ratio", "giraph_constant", "giraph_untuned",
      "giraph_tuned", "powergraph_constant", "powergraph_tuned"});
  std::vector<std::array<double, 5>> rows;
  for (const int factor : {2, 4, 8, 16, 32, 64}) {
    const double gc = upsampling_error(giraph, factor, Variant::kConstant,
                                       machines);
    const double gu = upsampling_error(giraph, factor, Variant::kUntuned,
                                       machines);
    const double gt =
        upsampling_error(giraph, factor, Variant::kTuned, machines);
    const double pc = upsampling_error(powergraph, factor,
                                       Variant::kConstant, machines);
    const double pt =
        upsampling_error(powergraph, factor, Variant::kTuned, machines);
    table.add_row({std::to_string(50 * factor) + " ms",
                   std::to_string(factor) + "x", format_percent(gc),
                   format_percent(gu), format_percent(gt), format_percent(pc),
                   format_percent(pt)});
    csv.write_row(std::vector<double>{50.0 * factor, static_cast<double>(factor),
                                      gc, gu, gt, pc, pt});
    rows.push_back({gc, gu, gt, pc, pt});
  }
  table.render(std::cout);

  std::cout
      << "\nPaper shape targets: error grows with the interval; the constant\n"
         "strawman reaches ~83-99% at 64x; untuned Giraph is comparable to\n"
         "the strawman (91.02%), tuned Giraph materially better (56.71%);\n"
         "tuned PowerGraph stays lowest (<=15.28% at 64x); tuned models are\n"
         "<=~19% at the recommended 8x.\n";
  if (!check) return 0;
  bool ok = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [gc, gu, gt, pc, pt] = rows[i];
    if (!(gc >= gu && gu > gt)) {
      std::cerr << "table2 check failed: row " << i
                << ": giraph constant >= untuned > tuned\n";
      ok = false;
    }
    for (std::size_t column = 0; i > 0 && column < rows[i].size();
         ++column) {
      if (rows[i][column] < rows[i - 1][column]) {
        std::cerr << "table2 check failed: row " << i << ", column "
                  << column << ": error is monotone in the interval\n";
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace g10::bench

int main(int argc, char** argv) {
  const bool check = argc == 2 && std::string_view(argv[1]) == "--check";
  if (argc > 1 && !check) {
    std::cerr << "usage: table2_upsampling_accuracy [--check]\n";
    return 2;
  }
  return g10::bench::run(check);
}
