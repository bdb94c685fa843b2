// Figure 2 (paper §III-D): the worked resource-attribution example.
//
// Reconstructs the concrete instance documented in DESIGN.md §4, runs the
// full attribution pipeline on it, and prints the figure's matrices:
//   (a) execution trace, (b) attribution rules, (c) demand estimation,
//   (d) coarse monitoring data, (e) upsampled consumption,
//   (f) per-phase attribution,
// followed by the §III-E bottleneck classifications. The numeric anchors of
// the running text (15%/65% upsampling split, 50%/15% attribution at the
// third timeslice) are asserted at the end.
#include <iostream>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "grade10/pipeline.hpp"

namespace g10 {
namespace {

using namespace g10::core;

trace::PhasePath path_of(const std::string& text) {
  return *trace::parse_phase_path(text);
}

void add_phase(std::vector<trace::PhaseEventRecord>& events,
               const std::string& path, TimeNs begin, TimeNs end) {
  events.push_back(
      {trace::PhaseEventRecord::Kind::Begin, path_of(path), begin, 0});
  events.push_back(
      {trace::PhaseEventRecord::Kind::End, path_of(path), end, 0});
}

int run() {
  ExecutionModel execution;
  const PhaseTypeId root = execution.add_root("Workload");
  const PhaseTypeId p1 = execution.add_child(root, "P1");
  const PhaseTypeId p2 = execution.add_child(root, "P2");
  const PhaseTypeId p3 = execution.add_child(root, "P3");
  const PhaseTypeId p4 = execution.add_child(root, "P4");
  ResourceModel resources;
  const ResourceId r1 = resources.add_consumable("R1", 100.0);
  const ResourceId r2 = resources.add_consumable("R2", 100.0);
  const ResourceId r3 = resources.add_consumable("R3", 100.0);

  AttributionRuleSet rules(AttributionRule::none());
  rules.set(p1, r1, AttributionRule::variable(1.0));
  rules.set(p2, r1, AttributionRule::variable(2.0));
  rules.set(p2, r2, AttributionRule::variable(1.0));
  rules.set(p2, r3, AttributionRule::exact(80.0));
  rules.set(p3, r2, AttributionRule::exact(50.0));
  rules.set(p3, r3, AttributionRule::variable(1.0));
  rules.set(p4, r1, AttributionRule::variable(1.0));

  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Workload.0", 0, 60);
  add_phase(events, "Workload.0/P1.0", 0, 20);
  add_phase(events, "Workload.0/P2.0", 10, 50);
  add_phase(events, "Workload.0/P3.0", 20, 40);
  add_phase(events, "Workload.0/P4.0", 40, 60);

  std::vector<trace::MonitoringSampleRecord> samples;
  const auto sample = [&](const std::string& r, TimeNs t, double v) {
    samples.push_back({r, 0, t, v});
  };
  sample("R1", 10, 60.0);
  sample("R1", 30, 95.0);
  sample("R1", 50, 70.0);
  sample("R1", 60, 40.0);
  sample("R2", 10, 0.0);
  sample("R2", 30, 40.0);
  sample("R2", 50, 30.0);
  sample("R2", 60, 0.0);
  sample("R3", 10, 0.0);
  sample("R3", 30, 90.0);
  sample("R3", 50, 40.0);
  sample("R3", 60, 0.0);

  CharacterizationInput input;
  input.model = &execution;
  input.resources = &resources;
  input.rules = &rules;
  input.phase_events = events;
  input.samples = samples;
  input.config.timeslice = 10;
  input.config.min_issue_impact = 0.0;
  const CharacterizationResult result = characterize(input);
  // The pipeline keeps no tables; (c) and (f) print the whole-table stages.
  const std::vector<DemandMatrix> demand =
      estimate_demand(resources, rules, result.trace, result.grid);
  const AttributedUsage usage =
      attribute_usage(demand, result.monitored, result.grid);

  std::cout << "Figure 2 worked example (paper timeslices 1..6 are columns)\n\n";

  // (a) execution trace.
  std::cout << "(a) execution trace\n";
  TextTable trace_table({"phase", "slices"});
  for (const char* name : {"P1", "P2", "P3", "P4"}) {
    const InstanceId id =
        result.trace.find(std::string("Workload.0/") + name + ".0");
    const PhaseInstance& instance = result.trace.instance(id);
    trace_table.add_row({name, std::to_string(instance.begin / 10 + 1) + "-" +
                                   std::to_string(instance.end / 10)});
  }
  trace_table.render(std::cout);

  // (b) rules.
  std::cout << "\n(b) attribution rules\n";
  TextTable rule_table({"", "P1", "P2", "P3", "P4"});
  const auto rule_text = [&](PhaseTypeId p, ResourceId r) -> std::string {
    const AttributionRule rule = rules.get(p, r);
    if (rule.is_none()) return "-";
    if (rule.is_exact()) return format_fixed(rule.amount, 0) + "%";
    return format_fixed(rule.amount, 0) + "x";
  };
  for (const auto& [rname, rid] :
       {std::pair{"R1", r1}, std::pair{"R2", r2}, std::pair{"R3", r3}}) {
    rule_table.add_row({rname, rule_text(p1, rid), rule_text(p2, rid),
                        rule_text(p3, rid), rule_text(p4, rid)});
  }
  rule_table.render(std::cout);

  // (c) demand estimation matrix.
  std::cout << "\n(c) timeslice demand (exact + variable weight)\n";
  TextTable demand_table({"", "t1", "t2", "t3", "t4", "t5", "t6"});
  for (const auto& matrix : demand) {
    std::vector<std::string> row{
        resources.resource(matrix.resource).name};
    for (int s = 0; s < 6; ++s) {
      row.push_back(format_fixed(matrix.exact[s], 0) + "+" +
                    format_fixed(matrix.variable[s], 0) + "v");
    }
    demand_table.add_row(row);
  }
  demand_table.render(std::cout);

  // (d) monitoring data.
  std::cout << "\n(d) coarse monitoring (avg rate per window)\n";
  TextTable monitor_table({"resource", "window [ts]", "avg"});
  for (const auto& series : result.monitored.series()) {
    for (const auto& m : series.measurements) {
      monitor_table.add_row(
          {resources.resource(series.resource).name,
           std::to_string(m.begin / 10 + 1) + "-" + std::to_string(m.end / 10),
           format_fixed(m.value, 0) + "%"});
    }
  }
  monitor_table.render(std::cout);

  // (e) upsampled consumption.
  std::cout << "\n(e) upsampled consumption per timeslice\n";
  TextTable up_table({"", "t1", "t2", "t3", "t4", "t5", "t6"});
  for (const auto& r : result.usage.resources) {
    std::vector<std::string> row{resources.resource(r.resource).name};
    for (int s = 0; s < 6; ++s) {
      row.push_back(format_fixed(r.upsampled.usage[s], 0) + "%");
    }
    up_table.add_row(row);
  }
  up_table.render(std::cout);

  // (f) attribution to phases.
  std::cout << "\n(f) per-phase attribution (resource:usage at each slice)\n";
  for (const auto& r : usage.resources) {
    std::cout << resources.resource(r.resource).name << ":";
    for (TimesliceIndex s = 0; s < 6; ++s) {
      std::cout << "  t" << (s + 1) << "[";
      bool first = true;
      for (const auto& entry : r.slice_entries(s)) {
        if (!first) std::cout << " ";
        first = false;
        std::cout << result.trace.instance(entry.instance).path.substr(11, 2)
                  << "=" << format_fixed(entry.usage, 0);
      }
      std::cout << "]";
    }
    std::cout << "\n";
  }

  std::cout << "\nBottlenecks (paper §III-E):\n";
  const InstanceId p2i = result.trace.find("Workload.0/P2.0");
  const InstanceId p3i = result.trace.find("Workload.0/P3.0");
  std::cout << "  P2 self-limited on R3 (80% Exact cap met): "
            << result.bottlenecks.self_limited.at({p2i, r3}) << " ns\n";
  std::cout << "  P2 saturated on R3: "
            << result.bottlenecks.saturated.at({p2i, r3}) << " ns\n";
  std::cout << "  P3 saturated on R3: "
            << result.bottlenecks.saturated.at({p3i, r3}) << " ns\n";

  std::cout << "\nPerformance issues (optimistic makespan reduction):\n";
  for (const auto& issue : result.issues) {
    std::cout << "  " << issue.description << ": "
              << format_percent(issue.impact) << "\n";
  }

  // Numeric anchors from the running text.
  const AttributedResource* r2a = result.usage.find(r2, 0);
  G10_CHECK(std::abs(r2a->upsampled.usage[1] - 15.0) < 1e-9);
  G10_CHECK(std::abs(r2a->upsampled.usage[2] - 65.0) < 1e-9);
  std::cout << "\nPaper anchors hold: R2 upsampled 15%/65% at paper "
               "timeslices 2/3; attribution P3=50%, P2=15% at timeslice 3.\n";
  return 0;
}

}  // namespace
}  // namespace g10

int main() { return g10::run(); }
