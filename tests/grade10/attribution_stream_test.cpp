// Windowed attribution: characterize_trace builds each matrix's table one
// window of slices at a time, folds it and frees it. Its result must equal,
// bit for bit, the whole-table stages (estimate_demand, attribute_usage and
// the adapters over its tables) at every timeslice, thread count and window
// size: bottleneck maps and saturation, issues, profile rows, diagnostics,
// the rendered report and the determinism digest, overall hash included.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "grade10/det_fold.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/pipeline.hpp"
#include "grade10/report/diagnostics.hpp"
#include "grade10/report/report.hpp"
#include "test_util.hpp"
#include "trace/trace_reader.hpp"

namespace g10::core {
namespace {

using testing::add_phase;
using testing::make_block;
using testing::make_sample;

/// One trace with the model it is characterized under.
struct Case {
  std::string name;
  ModelDescription model;
  std::vector<trace::PhaseEventRecord> phases;
  std::vector<trace::BlockingEventRecord> blocking;
  std::vector<trace::MonitoringSampleRecord> samples;
};

Case golden(const std::string& model_stem, const std::string& log_name) {
  Case c;
  c.name = log_name;
  std::ifstream file(std::string(G10_EXAMPLE_MODEL_DIR) + "/" + model_stem +
                     ".g10");
  ModelParseResult parsed = parse_model(file);
  EXPECT_TRUE(parsed.ok()) << model_stem;
  c.model = std::move(parsed.model);
  trace::ParseResult log = trace::read_trace_file(
      std::string(G10_GOLDEN_TRACE_DIR) + "/" + log_name);
  c.phases = std::move(log.log.phase_events);
  c.blocking = std::move(log.log.blocking_events);
  c.samples = std::move(log.log.samples);
  return c;
}

/// A small random trace over three machines. `cpu` is monitored per
/// machine, `lock` is a global-scope resource monitored once, and `net`
/// has rules but no samples, so its matrices get no series. No leaf runs in
/// the middle third of the run, so those slices hold no entries.
Case random_case(std::uint64_t seed) {
  Case c;
  c.name = "random seed " + std::to_string(seed);
  ExecutionModel& execution = c.model.execution;
  const PhaseTypeId root = execution.add_root("Job");
  const PhaseTypeId a = execution.add_child(root, "A");
  const PhaseTypeId b = execution.add_child(root, "B");
  const PhaseTypeId d = execution.add_child(root, "D");
  ResourceModel& resources = c.model.resources;
  const ResourceId cpu = resources.add_consumable("cpu", 4.0);
  const ResourceId net = resources.add_consumable("net", 100.0);
  const ResourceId lock =
      resources.add_consumable("lock", 2.0, ResourceScope::kGlobal);
  resources.add_blocking("GC");
  AttributionRuleSet& rules = c.model.rules;
  rules = AttributionRuleSet(AttributionRule::none());
  rules.set(a, cpu, AttributionRule::exact(1.0));
  rules.set(b, cpu, AttributionRule::variable(1.0));
  rules.set(d, cpu, AttributionRule::variable(2.0));
  rules.set(a, lock, AttributionRule::variable(1.0));
  rules.set(b, lock, AttributionRule::exact(0.5));
  rules.set(d, net, AttributionRule::variable(1.0));

  Rng rng(seed);
  const TimeNs end = 90 * kMillisecond;
  add_phase(c.phases, "Job.0", 0, end);
  const char* names[] = {"A", "B", "D"};
  for (int i = 0; i < 40; ++i) {
    // Leaves start in the first or the last third and stay inside it.
    const TimeNs third = end / 3;
    const TimeNs base = rng.next_bool(0.5) ? 0 : 2 * third;
    const TimeNs begin =
        base + static_cast<TimeNs>(rng.next_double(0.0, 0.8) *
                                   static_cast<double>(third));
    const double room = static_cast<double>(base + third - begin - 1);
    const TimeNs length =
        1 + static_cast<TimeNs>(rng.next_double(0.0, 1.0) * room);
    const auto machine = static_cast<trace::MachineId>(rng.next_int(0, 2));
    const std::string path = "Job.0/" + std::string(names[i % 3]) + "." +
                             std::to_string(i);
    add_phase(c.phases, path, begin, begin + length, machine);
    if (length > 4 && rng.next_bool(0.3)) {
      c.blocking.push_back(make_block("GC", path, begin + length / 4,
                                      begin + length / 2, machine));
    }
  }
  // Samples every 3 ms (cpu, per machine) and 7 ms (lock, global).
  for (TimeNs t = 3 * kMillisecond; t <= end; t += 3 * kMillisecond) {
    for (trace::MachineId m = 0; m < 3; ++m) {
      c.samples.push_back(
          make_sample("cpu", m, t, rng.next_double(0.0, 4.0)));
    }
  }
  for (TimeNs t = 7 * kMillisecond; t <= end; t += 7 * kMillisecond) {
    c.samples.push_back(make_sample("lock", trace::kGlobalMachine, t,
                                    rng.next_double(0.0, 2.0)));
  }
  return c;
}

const std::vector<Case>& cases() {
  static const std::vector<Case> all = [] {
    std::vector<Case> out;
    out.push_back(golden("dataflow", "dataflow_3stage_s99.log"));
    for (const char* log :
         {"gas_pagerank_d512_s99_batched.log",
          "gas_pagerank_d512_s99_crash_between_steps.log",
          "gas_pagerank_d512_s99_faulted.log",
          "gas_pagerank_d512_s99_faulted_truncated.log"}) {
      out.push_back(golden("gas", log));
    }
    for (const char* log :
         {"pregel_pagerank_d512_s99_batched.log",
          "pregel_pagerank_d512_s99_faulted.log",
          "pregel_pagerank_d512_s99_faulted_lossy.log",
          "pregel_pagerank_d512_s99_faulted_truncated.log",
          "pregel_sssp_d512_s99.log"}) {
      out.push_back(golden("pregel", log));
    }
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      out.push_back(random_case(seed));
    }
    return out;
  }();
  return all;
}

CharacterizationInput input_for(const Case& c, DurationNs timeslice,
                                int threads) {
  CharacterizationInput input;
  input.model = &c.model.execution;
  input.resources = &c.model.resources;
  input.rules = &c.model.rules;
  input.config.timeslice = timeslice;
  input.config.min_issue_impact = 0.0;
  input.config.threads = threads;
  input.trace_options.lenient = true;
  return input;
}

TraceBuild build(const Case& c, const CharacterizationInput& input) {
  return ExecutionTrace::build_checked(c.model.execution, c.model.resources,
                                       c.phases, c.blocking, c.samples,
                                       input.trace_options);
}

/// The whole-table stages over a fresh build of the same trace.
CharacterizationResult whole_table(const Case& c,
                                   const CharacterizationInput& input) {
  TraceBuild built = build(c, input);
  EXPECT_FALSE(built.error.has_value()) << c.name;
  CharacterizationResult result;
  result.grid = TimesliceGrid(input.config.timeslice);
  result.trace = std::move(built.trace);
  result.monitored = std::move(built.monitored);
  ThreadPool pool(static_cast<std::size_t>(input.config.threads));
  result.demand = estimate_demand(c.model.resources, c.model.rules,
                                  result.trace, result.grid, &pool);
  result.usage = attribute_usage(result.demand, result.monitored,
                                 result.grid, false, &pool);
  result.bottlenecks = detect_bottlenecks(result.usage, result.trace,
                                          result.grid, input.config, &pool);
  IssueDetector detector(c.model.execution, c.model.resources, result.trace,
                         result.grid, input.config);
  result.issues = detector.detect(result.usage, result.bottlenecks, &pool);
  result.baseline_makespan = detector.baseline_makespan();
  result.critical_path = detector.critical_path();
  return result;
}

/// The report g10_analyze prints, from `profile` and the result's series.
std::string render(const Case& c, const CharacterizationResult& result,
                   const std::vector<PhaseTypeStats>& profile) {
  std::ostringstream os;
  render_profile(os, result.trace, c.model.resources, result.usage,
                 result.grid);
  render_bottlenecks(os, c.model.resources, result.bottlenecks);
  render_issues(os, result.issues);
  render_phase_profile(os, c.model.execution, c.model.resources, profile);
  render_critical_path(os, c.model.execution, result.trace,
                       result.critical_path);
  render_diagnostics(os, c.model.resources,
                     compute_resource_diagnostics(result.usage),
                     compute_machine_skew(result.usage));
  return os.str();
}

void expect_same_bottlenecks(const BottleneckReport& a,
                             const BottleneckReport& b) {
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.self_limited, b.self_limited);
  ASSERT_EQ(a.saturation.size(), b.saturation.size());
  for (std::size_t s = 0; s < a.saturation.size(); ++s) {
    EXPECT_EQ(a.saturation[s].resource, b.saturation[s].resource);
    EXPECT_EQ(a.saturation[s].machine, b.saturation[s].machine);
    EXPECT_EQ(a.saturation[s].saturated, b.saturation[s].saturated);
    EXPECT_EQ(a.saturation[s].total_saturated,
              b.saturation[s].total_saturated);
  }
}

void expect_same_issues(const std::vector<PerformanceIssue>& a,
                        const std::vector<PerformanceIssue>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].resource, b[i].resource);
    EXPECT_EQ(a[i].phase_type, b[i].phase_type);
    EXPECT_EQ(a[i].description, b[i].description);
    EXPECT_EQ(a[i].baseline_makespan, b[i].baseline_makespan);
    EXPECT_EQ(a[i].optimistic_makespan, b[i].optimistic_makespan);
    EXPECT_EQ(a[i].impact, b[i].impact);  // exact double equality
  }
}

void expect_same_profile(const std::vector<PhaseTypeStats>& a,
                         const std::vector<PhaseTypeStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].instances, b[i].instances);
    EXPECT_EQ(a[i].total_duration, b[i].total_duration);
    EXPECT_EQ(a[i].max_duration, b[i].max_duration);
    EXPECT_EQ(a[i].total_blocked, b[i].total_blocked);
    EXPECT_EQ(a[i].usage, b[i].usage);  // exact double equality
    EXPECT_EQ(a[i].bottlenecked, b[i].bottlenecked);
  }
}

void expect_same_diagnostics(const AttributedUsage& a,
                             const AttributedUsage& b) {
  const auto x = compute_resource_diagnostics(a);
  const auto y = compute_resource_diagnostics(b);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].resource, y[i].resource);
    EXPECT_EQ(x[i].machine, y[i].machine);
    EXPECT_EQ(x[i].mean_utilization, y[i].mean_utilization);
    EXPECT_EQ(x[i].burstiness, y[i].burstiness);
    EXPECT_EQ(x[i].idle_fraction, y[i].idle_fraction);
  }
  const auto p = compute_machine_skew(a);
  const auto q = compute_machine_skew(b);
  ASSERT_EQ(p.size(), q.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i].resource, q[i].resource);
    EXPECT_EQ(p[i].max_over_mean, q[i].max_over_mean);
    EXPECT_EQ(p[i].cov, q[i].cov);
  }
}

/// Streams `c` at one timeslice, thread count and window size and compares
/// it with `expected`, the whole-table stages at the same settings.
void expect_stream_matches(const Case& c, const CharacterizationInput& input,
                           TimesliceIndex window,
                           const CharacterizationResult& expected,
                           const DetSummary& expected_digest) {
  SCOPED_TRACE("window " + std::to_string(window));
  DetHasher hasher;
  const CheckedCharacterization checked =
      characterize_trace(input, build(c, input), &hasher, window);
  ASSERT_TRUE(checked.status.ok() && checked.result.has_value());
  const CharacterizationResult& streamed = *checked.result;

  // The result keeps the series and the folded aggregates, no table.
  EXPECT_TRUE(streamed.demand.empty());
  ASSERT_EQ(streamed.usage.resources.size(), expected.usage.resources.size());
  for (std::size_t r = 0; r < streamed.usage.resources.size(); ++r) {
    const AttributedResource& x = streamed.usage.resources[r];
    const AttributedResource& y = expected.usage.resources[r];
    EXPECT_TRUE(x.entries.empty() && x.slice_offsets.empty());
    EXPECT_EQ(x.resource, y.resource);
    EXPECT_EQ(x.machine, y.machine);
    EXPECT_EQ(x.upsampled.usage, y.upsampled.usage);
    EXPECT_EQ(x.upsampled.unallocated, y.upsampled.unallocated);
    EXPECT_EQ(x.unattributed, y.unattributed);
  }

  expect_same_bottlenecks(streamed.bottlenecks, expected.bottlenecks);
  expect_same_issues(streamed.issues, expected.issues);
  EXPECT_EQ(streamed.baseline_makespan, expected.baseline_makespan);
  const std::vector<PhaseTypeStats> profile = build_phase_profile(
      streamed.trace, streamed.phase_usage, streamed.bottlenecks);
  const std::vector<PhaseTypeStats> expected_profile =
      build_phase_profile(expected.trace, expected.usage,
                          expected.bottlenecks, expected.grid);
  expect_same_profile(profile, expected_profile);
  expect_same_diagnostics(streamed.usage, expected.usage);
  EXPECT_EQ(render(c, streamed, profile),
            render(c, expected, expected_profile));

  const DetSummary digest = hasher.summary();
  const auto divergence = first_divergence(expected_digest, digest);
  EXPECT_FALSE(divergence.has_value())
      << "diverged at '" << divergence->path << "': " << divergence->detail;
  EXPECT_EQ(digest.overall, expected_digest.overall);
}

TEST(AttributionStreamTest, StreamedCharacterizationEqualsWholeTables) {
  for (const Case& c : cases()) {
    for (const int ms : {1, 2, 3, 5, 10}) {
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(c.name + " at " + std::to_string(ms) + " ms, " +
                     std::to_string(threads) + " thread(s)");
        const CharacterizationInput input =
            input_for(c, ms * kMillisecond, threads);
        const CharacterizationResult expected = whole_table(c, input);
        const DetSummary expected_digest =
            fold_characterization(expected, c.model.resources);
        for (const TimesliceIndex window :
             {TimesliceIndex{1}, TimesliceIndex{7},
              kAttributionWindowSlices}) {
          expect_stream_matches(c, input, window, expected, expected_digest);
        }
      }
    }
  }
}

TEST(AttributionStreamTest, WindowsConcatenateToTheWholeTable) {
  // A matrix's windows, in order, hold the whole table's entries. The
  // cases include leaves straddling window edges, windows with no entries,
  // matrices with no series and a global-scope resource.
  std::size_t straddling = 0;
  std::size_t empty_windows = 0;
  std::size_t unmonitored = 0;
  std::size_t global = 0;
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const CharacterizationInput input = input_for(c, kMillisecond, 1);
    const CharacterizationResult expected = whole_table(c, input);
    for (const DemandMatrix& matrix : expected.demand) {
      const AttributedResource* table =
          expected.usage.find(matrix.resource, matrix.machine);
      if (table == nullptr) {
        ++unmonitored;
        continue;
      }
      if (matrix.machine == trace::kGlobalMachine) ++global;
      ASSERT_TRUE(table->has_table());
      for (const TimesliceIndex window : {TimesliceIndex{1},
                                          TimesliceIndex{7}}) {
        for (const LeafDemand& leaf : matrix.leaves) {
          const TimesliceIndex last =
              leaf.first_slice +
              static_cast<TimesliceIndex>(leaf.active_fraction.size()) - 1;
          if (leaf.first_slice / window != last / window) ++straddling;
        }
        AttributedResource streamed = *table;
        release_table(streamed);
        AttributionWindows windows(matrix, window);
        std::vector<AttributionEntry> entries;
        TimesliceIndex covered = 0;
        while (windows.next(streamed)) {
          ASSERT_EQ(streamed.first_slice, covered);
          for (TimesliceIndex s = streamed.first_slice;
               s < streamed.table_end(); ++s) {
            const auto slice = streamed.slice_entries(s);
            const auto whole = table->slice_entries(s);
            ASSERT_EQ(slice.size(), whole.size()) << "slice " << s;
          }
          if (streamed.entries.empty()) ++empty_windows;
          entries.insert(entries.end(), streamed.entries.begin(),
                         streamed.entries.end());
          covered = streamed.table_end();
        }
        EXPECT_EQ(covered, matrix.slice_count);
        ASSERT_EQ(entries.size(), table->entries.size());
        for (std::size_t e = 0; e < entries.size(); ++e) {
          EXPECT_EQ(entries[e].instance, table->entries[e].instance);
          EXPECT_EQ(entries[e].usage, table->entries[e].usage);
          EXPECT_EQ(entries[e].demand, table->entries[e].demand);
          EXPECT_EQ(entries[e].fraction, table->entries[e].fraction);
          EXPECT_EQ(entries[e].exact, table->entries[e].exact);
        }
      }
    }
  }
  EXPECT_GT(straddling, 0u);
  EXPECT_GT(empty_windows, 0u);
  EXPECT_GT(unmonitored, 0u);
  EXPECT_GT(global, 0u);
}

TEST(AttributionStreamTest, MatrixOfNoSlicesHasOneEmptyWindow) {
  DemandMatrix matrix;
  AttributedResource out;
  AttributionWindows windows(matrix, kAttributionWindowSlices);
  ASSERT_TRUE(windows.next(out));
  EXPECT_EQ(out.slice_offsets, std::vector<std::uint32_t>{0});
  EXPECT_TRUE(out.entries.empty());
  EXPECT_FALSE(windows.next(out));
}

}  // namespace
}  // namespace g10::core
