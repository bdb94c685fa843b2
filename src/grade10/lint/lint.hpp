// Static validation of Grade10's expert inputs (PR 3 tentpole).
//
// The characterization pipeline assumes well-formed inputs (paper §III-B/C):
// a phase-type tree, acyclic sibling order, attribution rules that name real
// phases and resources, and traces whose instances nest and whose monitors
// tick. When those assumptions are violated the pipeline either throws late
// (strict mode) or — worse — produces a plausible-looking but wrong profile.
// The lint layer checks all of it *statically*, without executing the
// pipeline, and reports structured findings with stable rule ids so tools,
// tests and CI can assert on them.
//
// Layout:
//  - this header: finding/report types, severity, text & JSON emitters, and
//    the rule catalog (one entry per rule id, used by `g10_lint --rules` and
//    the docs);
//  - model_lint.hpp: rules over a declarative model file (the defects the
//    one model reader, core::parse_model, records: all of them, not just
//    the first);
//  - trace_lint.hpp: rules over parsed trace records, cross-checked against
//    the model (the defects of the one trace build).
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace g10::lint {

enum class Severity { kWarning, kError };

std::string_view to_string(Severity severity);

/// Where a finding points: a file (when linting a file), a 1-based line in
/// it (0 when unknown, e.g. for in-memory records), and a free-form context
/// such as the phase path or resource name involved.
struct Location {
  std::string file;
  std::size_t line = 0;
  std::string context;
};

struct LintFinding {
  std::string rule_id;  ///< stable id, e.g. "model-order-cycle"
  Severity severity = Severity::kError;
  Location location;
  std::string message;
};

class LintReport {
 public:
  void add(std::string rule_id, Severity severity, Location location,
           std::string message);
  void merge(LintReport other);

  const std::vector<LintFinding>& findings() const { return findings_; }
  std::size_t error_count() const;
  std::size_t warning_count() const;
  bool clean() const { return findings_.empty(); }
  /// True when no *error*-severity finding is present.
  bool ok() const { return error_count() == 0; }

  /// Sorted, de-duplicated rule ids present in the report (test helper).
  std::vector<std::string> rule_ids() const;
  bool has_rule(std::string_view rule_id) const;

 private:
  std::vector<LintFinding> findings_;
};

/// One line per finding: "file:line: severity: [rule-id] message (context)".
void render_text(std::ostream& os, const LintReport& report);

/// Machine-readable: {"findings":[{rule_id,severity,file,line,context,
/// message}...],"errors":N,"warnings":N}.
void render_json(std::ostream& os, const LintReport& report);

/// Catalog entry for one lint rule; the single source of truth for ids and
/// default severities (docs and `g10_lint --rules` render from it).
struct RuleInfo {
  std::string_view id;
  Severity severity;
  std::string_view summary;
};

/// Every rule the model and trace linters can emit, sorted by id.
const std::vector<RuleInfo>& rule_catalog();

/// Catalog lookup; nullptr for unknown ids.
const RuleInfo* find_rule(std::string_view rule_id);

}  // namespace g10::lint
