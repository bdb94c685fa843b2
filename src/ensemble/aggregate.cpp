#include "ensemble/aggregate.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace g10::ensemble {
namespace {

ValueSummary summarize(std::vector<double> values) {
  ValueSummary out;
  out.count = values.size();
  if (values.empty()) return out;
  RunningStats stats;
  for (const double v : values) stats.add(v);
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  out.min = stats.min();
  out.max = stats.max();
  const auto qs = quantiles(std::move(values), {0.5, 0.95});
  out.p50 = qs[0];
  out.p95 = qs[1];
  return out;
}

RateEstimate rate_of(std::size_t hits, std::size_t trials) {
  RateEstimate rate;
  rate.hits = hits;
  rate.trials = trials;
  rate.ci = wilson_interval(hits, trials);
  return rate;
}

std::string percent(double fraction) { return format_percent(fraction, 1); }

std::string rate_line(const RateEstimate& rate) {
  std::string out = std::to_string(rate.hits) + "/" +
                    std::to_string(rate.trials) + " = " +
                    percent(rate.rate());
  out += " (95% CI " + percent(rate.ci.low) + " - " + percent(rate.ci.high) +
         ")";
  return out;
}

void write_rate(JsonWriter& w, const RateEstimate& rate) {
  w.begin_object();
  w.key("hits").value(rate.hits);
  w.key("trials").value(rate.trials);
  w.key("rate").value(rate.rate());
  w.key("ci_low").value(rate.ci.low);
  w.key("ci_high").value(rate.ci.high);
  w.end_object();
}

void write_summary(JsonWriter& w, const ValueSummary& summary) {
  w.begin_object();
  w.key("count").value(summary.count);
  w.key("mean").value(summary.mean);
  w.key("stddev").value(summary.stddev);
  w.key("min").value(summary.min);
  w.key("p50").value(summary.p50);
  w.key("p95").value(summary.p95);
  w.key("max").value(summary.max);
  w.end_object();
}

}  // namespace

AggregateReport aggregate(const std::vector<Scenario>& scenarios,
                          const JournalReplay& replay) {
  AggregateReport report;
  report.scenario_count = scenarios.size();
  report.dropped_lines = replay.dropped_lines;

  std::unordered_set<std::uint64_t> wanted;
  wanted.reserve(scenarios.size());
  for (const Scenario& s : scenarios) wanted.insert(s.hash());

  // First occurrence wins: a --resume journal may hold a second entry for a
  // scenario whose first entry landed just before the kill.
  std::unordered_map<std::uint64_t, const JournalEntry*> by_key;
  by_key.reserve(replay.entries.size());
  for (const JournalEntry& entry : replay.entries) {
    if (!wanted.contains(entry.key)) {
      ++report.unknown_entries;
      continue;
    }
    if (!by_key.emplace(entry.key, &entry).second) {
      ++report.duplicate_entries;
      continue;
    }
    ++report.matched_entries;
  }

  std::vector<double> makespans;
  struct IssueAccumulator {
    std::size_t runs = 0;
    std::vector<double> impacts;
  };
  std::map<std::string, IssueAccumulator> issues;
  // phase -> resource -> runs where that resource dominated the phase
  std::map<std::string, std::map<std::string, std::size_t>> phases;
  // Rediscovery trials: ok GAS runs that injected the sync bug.
  std::size_t sync_bug_trials = 0;
  std::size_t sync_bug_hits = 0;

  for (const Scenario& scenario : scenarios) {
    const auto it = by_key.find(scenario.hash());
    if (it == by_key.end()) {
      ++report.missing;
      continue;
    }
    const JournalEntry& entry = *it->second;
    switch (entry.outcome) {
      case RunOutcome::kOk:
        ++report.ok;
        break;
      case RunOutcome::kTimeout:
        ++report.timeout;
        continue;
      case RunOutcome::kRunFailed:
        ++report.run_failed;
        continue;
      case RunOutcome::kAnalysisFailed:
        ++report.analysis_failed;
        continue;
      case RunOutcome::kSkipped:
        ++report.skipped;
        continue;
    }

    makespans.push_back(entry.report.makespan_seconds);
    if (scenario.engine == "gas" && scenario.sync_bug) {
      ++sync_bug_trials;
      if (entry.report.sync_bug_rediscovered) ++sync_bug_hits;
    }

    std::unordered_set<std::string_view> seen_labels;
    for (const RunReport::Issue& issue : entry.report.issues) {
      IssueAccumulator& acc = issues[issue.label];
      acc.impacts.push_back(issue.impact);
      if (seen_labels.insert(issue.label).second) ++acc.runs;
    }
    for (const RunReport::PhaseBottleneck& pb :
         entry.report.phase_bottlenecks) {
      ++phases[pb.phase][pb.resource];
    }
  }

  report.coverage =
      report.scenario_count == 0
          ? 0.0
          : static_cast<double>(report.ok) /
                static_cast<double>(report.scenario_count);
  report.sync_bug = rate_of(sync_bug_hits, sync_bug_trials);
  report.makespan_seconds = summarize(std::move(makespans));

  for (auto& [label, acc] : issues) {
    IssueSummary summary;
    summary.label = label;
    summary.rate = rate_of(acc.runs, report.ok);
    summary.impact = summarize(std::move(acc.impacts));
    report.issues.push_back(std::move(summary));
  }
  std::sort(report.issues.begin(), report.issues.end(),
            [](const IssueSummary& a, const IssueSummary& b) {
              if (a.rate.hits != b.rate.hits) return a.rate.hits > b.rate.hits;
              return a.label < b.label;
            });

  for (const auto& [phase, resources] : phases) {
    PhaseBottleneckSummary summary;
    summary.phase = phase;
    for (const auto& [resource, runs] : resources) {
      summary.resources.push_back({resource, runs});
      summary.runs_with_bottleneck += runs;
    }
    std::sort(summary.resources.begin(), summary.resources.end(),
              [](const PhaseBottleneckSummary::ResourceShare& a,
                 const PhaseBottleneckSummary::ResourceShare& b) {
                if (a.runs != b.runs) return a.runs > b.runs;
                return a.resource < b.resource;
              });
    report.phase_bottlenecks.push_back(std::move(summary));
  }

  return report;
}

std::string render_text(const AggregateReport& report) {
  std::ostringstream os;
  os << "=== g10_ensemble aggregate report ===\n";
  os << "scenarios:       " << report.scenario_count << "\n";
  os << "coverage:        " << percent(report.coverage) << " (" << report.ok
     << " ok";
  if (report.coverage < 1.0) os << ", DEGRADED";
  os << ")\n";
  os << "outcomes:        ok=" << report.ok << " timeout=" << report.timeout
     << " run_failed=" << report.run_failed
     << " analysis_failed=" << report.analysis_failed
     << " skipped=" << report.skipped << " missing=" << report.missing
     << "\n";
  if (report.duplicate_entries > 0 || report.unknown_entries > 0 ||
      report.dropped_lines > 0) {
    os << "journal:         duplicates=" << report.duplicate_entries
       << " unknown=" << report.unknown_entries
       << " torn_lines=" << report.dropped_lines << "\n";
  }
  os << "sync-bug rediscovery: " << rate_line(report.sync_bug) << "\n";
  os << "\nmakespan (s): n=" << report.makespan_seconds.count
     << " mean=" << format_fixed(report.makespan_seconds.mean, 3)
     << " sd=" << format_fixed(report.makespan_seconds.stddev, 3)
     << " min=" << format_fixed(report.makespan_seconds.min, 3)
     << " p50=" << format_fixed(report.makespan_seconds.p50, 3)
     << " p95=" << format_fixed(report.makespan_seconds.p95, 3)
     << " max=" << format_fixed(report.makespan_seconds.max, 3) << "\n";

  os << "\nissues (rate over ok runs, impact over occurrences):\n";
  if (report.issues.empty()) os << "  (none detected)\n";
  for (const IssueSummary& issue : report.issues) {
    os << "  " << issue.label << ": " << rate_line(issue.rate)
       << "; impact p50=" << percent(issue.impact.p50)
       << " p95=" << percent(issue.impact.p95)
       << " max=" << percent(issue.impact.max) << "\n";
  }

  os << "\ndominant bottleneck per phase (ok runs):\n";
  if (report.phase_bottlenecks.empty()) os << "  (none recorded)\n";
  for (const PhaseBottleneckSummary& phase : report.phase_bottlenecks) {
    os << "  " << phase.phase << ":";
    for (const auto& share : phase.resources) {
      os << " " << share.resource << "=" << share.runs;
    }
    os << "\n";
  }
  return std::move(os).str();
}

std::string render_json(const AggregateReport& report) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("scenarios").value(report.scenario_count);
  w.key("coverage").value(report.coverage);
  w.key("outcomes").begin_object();
  w.key("ok").value(report.ok);
  w.key("timeout").value(report.timeout);
  w.key("run_failed").value(report.run_failed);
  w.key("analysis_failed").value(report.analysis_failed);
  w.key("skipped").value(report.skipped);
  w.key("missing").value(report.missing);
  w.end_object();
  w.key("journal").begin_object();
  w.key("matched").value(report.matched_entries);
  w.key("duplicates").value(report.duplicate_entries);
  w.key("unknown").value(report.unknown_entries);
  w.key("torn_lines").value(report.dropped_lines);
  w.end_object();
  w.key("sync_bug_rediscovery");
  write_rate(w, report.sync_bug);
  w.key("makespan_seconds");
  write_summary(w, report.makespan_seconds);
  w.key("issues").begin_array();
  for (const IssueSummary& issue : report.issues) {
    w.begin_object();
    w.key("label").value(issue.label);
    w.key("rate");
    write_rate(w, issue.rate);
    w.key("impact");
    write_summary(w, issue.impact);
    w.end_object();
  }
  w.end_array();
  w.key("phase_bottlenecks").begin_array();
  for (const PhaseBottleneckSummary& phase : report.phase_bottlenecks) {
    w.begin_object();
    w.key("phase").value(phase.phase);
    w.key("runs").value(phase.runs_with_bottleneck);
    w.key("resources").begin_array();
    for (const auto& share : phase.resources) {
      w.begin_object();
      w.key("resource").value(share.resource);
      w.key("runs").value(share.runs);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = std::move(os).str();
  out += '\n';
  return out;
}

}  // namespace g10::ensemble
