#include "grade10/lint/lint.hpp"

#include <algorithm>
#include <string>

#include "common/json.hpp"

namespace g10::lint {

std::string_view to_string(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

void LintReport::add(std::string rule_id, Severity severity, Location location,
                     std::string message) {
  findings_.push_back(LintFinding{std::move(rule_id), severity,
                                  std::move(location), std::move(message)});
}

void LintReport::merge(LintReport other) {
  findings_.insert(findings_.end(),
                   std::make_move_iterator(other.findings_.begin()),
                   std::make_move_iterator(other.findings_.end()));
}

std::size_t LintReport::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings_.begin(), findings_.end(), [](const auto& f) {
        return f.severity == Severity::kError;
      }));
}

std::size_t LintReport::warning_count() const {
  return findings_.size() - error_count();
}

std::vector<std::string> LintReport::rule_ids() const {
  std::vector<std::string> ids;
  ids.reserve(findings_.size());
  for (const LintFinding& finding : findings_) ids.push_back(finding.rule_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool LintReport::has_rule(std::string_view rule_id) const {
  return std::any_of(
      findings_.begin(), findings_.end(),
      [rule_id](const auto& f) { return f.rule_id == rule_id; });
}

void render_text(std::ostream& os, const LintReport& report) {
  for (const LintFinding& f : report.findings()) {
    if (!f.location.file.empty()) {
      os << f.location.file << ':';
      if (f.location.line > 0) os << f.location.line << ':';
      os << ' ';
    }
    os << to_string(f.severity) << ": [" << f.rule_id << "] " << f.message;
    if (!f.location.context.empty()) os << "  (" << f.location.context << ')';
    os << '\n';
  }
  os << report.error_count() << " error(s), " << report.warning_count()
     << " warning(s)\n";
}

void render_json(std::ostream& os, const LintReport& report) {
  std::string out = "{\"findings\":[";
  bool first = true;
  for (const LintFinding& f : report.findings()) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule_id\":";
    json_escape(out, f.rule_id);
    out += ",\"severity\":";
    json_escape(out, to_string(f.severity));
    out += ",\"file\":";
    json_escape(out, f.location.file);
    out += ",\"line\":" + std::to_string(f.location.line);
    out += ",\"context\":";
    json_escape(out, f.location.context);
    out += ",\"message\":";
    json_escape(out, f.message);
    out += '}';
  }
  os << out << "],\"errors\":" << report.error_count()
     << ",\"warnings\":" << report.warning_count() << "}\n";
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"model-duplicate-phase", Severity::kError,
       "a phase type name is declared more than once"},
      {"model-duplicate-resource", Severity::kError,
       "a resource name is declared more than once"},
      {"model-empty", Severity::kError, "the model declares no phase types"},
      {"model-exact-exceeds-capacity", Severity::kWarning,
       "an EXACT rule demands more than the resource's capacity (suspected "
       "unit mismatch)"},
      {"model-multiple-roots", Severity::kError,
       "a non-first PHASE has no PARENT=, creating a second root"},
      {"model-order-cycle", Severity::kError,
       "sibling ORDER edges form a cycle, so no instance order satisfies "
       "them"},
      {"model-order-not-siblings", Severity::kError,
       "an ORDER edge connects phases with different parents"},
      {"model-order-unknown-phase", Severity::kError,
       "an ORDER statement references an undeclared phase"},
      {"model-rule-blocking-resource", Severity::kWarning,
       "an EXACT/VARIABLE rule targets a blocking resource; demand "
       "attribution only applies to consumables, so the rule is ignored"},
      {"model-rule-conflict", Severity::kError,
       "two RULE statements give the same (phase, resource) pair different "
       "specs; the later one silently wins"},
      {"model-rule-interior-phase", Severity::kWarning,
       "a rule targets a phase type with children; demand is estimated for "
       "leaf phases only, so the rule is ignored"},
      {"model-rule-shadowed", Severity::kWarning,
       "a RULE statement repeats an earlier identical rule"},
      {"model-rule-unknown-phase", Severity::kError,
       "a RULE references an undeclared phase"},
      {"model-rule-unknown-resource", Severity::kError,
       "a RULE references an undeclared resource"},
      {"model-syntax", Severity::kError,
       "a statement is malformed (unknown keyword or bad arguments)"},
      {"model-unknown-parent", Severity::kError,
       "a PHASE names a PARENT that is not declared before it"},
      {"model-unreachable-phase", Severity::kError,
       "a phase's ancestor chain never reaches the root, so no instance of "
       "it can be placed in the trace tree"},
      {"trace-binary-corrupt-block", Severity::kError,
       "a .g10t block failed its payload hash or decode; the block's "
       "records are unavailable (re-convert the trace from its text log)"},
      {"trace-blocking-consumable-resource", Severity::kWarning,
       "a blocking event names a consumable resource; blocked time is only "
       "accounted for blocking resources"},
      {"trace-blocking-outside-phase", Severity::kError,
       "a blocking interval escapes the interval of the phase it blocks"},
      {"trace-blocking-unknown-phase", Severity::kError,
       "a blocking event references a phase instance that never ran"},
      {"trace-blocking-unknown-resource", Severity::kError,
       "a blocking event names a resource missing from the model"},
      {"trace-child-escapes-parent", Severity::kError,
       "a phase instance's interval escapes its parent's interval"},
      {"trace-duplicate-begin", Severity::kError,
       "a phase instance has more than one BEGIN event"},
      {"trace-duplicate-end", Severity::kError,
       "a phase instance has more than one END event"},
      {"trace-fault-blocking-without-spec", Severity::kWarning,
       "the log records Retry/Recovery blocked time but carries no 'faults' "
       "META record naming the injected fault spec"},
      {"trace-hierarchy-mismatch", Severity::kError,
       "a path nests a phase type under a parent type that the model does "
       "not declare as its parent"},
      {"trace-machine-mismatch", Severity::kWarning,
       "BEGIN and END of one instance disagree on the machine id"},
      {"trace-missing-parent", Severity::kError,
       "a non-root instance's parent path never appears in the log"},
      {"trace-nonmonotonic-time", Severity::kError,
       "a phase instance ends before it begins"},
      {"trace-orphan-machine", Severity::kWarning,
       "a blocking event or sample names a machine id that no phase event "
       "mentions"},
      {"trace-overlapping-siblings", Severity::kError,
       "two instances of a repeated type overlap under one parent; repeated "
       "instances must run sequentially"},
      {"trace-sample-blocking-resource", Severity::kError,
       "a monitoring sample targets a blocking resource, which has no "
       "consumption rate"},
      {"trace-sample-gap", Severity::kWarning,
       "a monitoring series has a gap well beyond its sampling period "
       "(dropped samples?)"},
      {"trace-sample-negative", Severity::kError,
       "a monitoring sample reports a negative consumption rate"},
      {"trace-sample-nonmonotonic", Severity::kError,
       "a monitoring series repeats or decreases its sample time"},
      {"trace-sample-over-capacity", Severity::kWarning,
       "a monitoring sample exceeds the resource's declared capacity "
       "(suspected unit mismatch)"},
      {"trace-sample-unknown-resource", Severity::kError,
       "a monitoring sample names a resource missing from the model"},
      {"trace-syntax", Severity::kError,
       "a log line is malformed (reported by the log parser)"},
      {"trace-unbalanced-begin", Severity::kError,
       "a phase instance begins but never ends (truncated log?)"},
      {"trace-unbalanced-end", Severity::kError,
       "a phase instance ends without ever beginning"},
      {"trace-unknown-phase-type", Severity::kError,
       "a path uses a phase type missing from the model"},
  };
  return kCatalog;
}

const RuleInfo* find_rule(std::string_view rule_id) {
  const auto& catalog = rule_catalog();
  const auto it = std::lower_bound(
      catalog.begin(), catalog.end(), rule_id,
      [](const RuleInfo& info, std::string_view id) { return info.id < id; });
  return it != catalog.end() && it->id == rule_id ? &*it : nullptr;
}

}  // namespace g10::lint
