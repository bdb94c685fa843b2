// Text serialization of the expert input (paper §III-B): execution model,
// resource model, and attribution rules in one declarative file, so a model
// can be written once per framework and shipped/reused without recompiling
// (the original Grade10 uses declarative per-framework configuration the
// same way).
//
// Format — one statement per line, '#' comments:
//   PHASE <name>                                  (first PHASE is the root)
//   PHASE <name> PARENT=<name> [REPEATED] [WAIT] [LIMIT=<n>]
//   ORDER <before> <after>
//   RESOURCE <name> CONSUMABLE CAPACITY=<x> [GLOBAL]
//   RESOURCE <name> BLOCKING [GLOBAL]
//   DEFAULT NONE | DEFAULT VARIABLE <w>
//   RULE <phase> <resource> NONE
//   RULE <phase> <resource> EXACT <units>
//   RULE <phase> <resource> VARIABLE <weight>
//
// parse_model() is the only reader of this format. Its single pass over the
// statements builds the ModelDescription and records every problem of the
// file as a ModelDefect named after its lint rule, so g10_lint reports
// exactly what the parser rejects (or merely tolerates), and one run reports
// every problem, not just the first.
#pragma once

#include <cstddef>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "grade10/model/attribution_rules.hpp"
#include "grade10/model/execution_model.hpp"
#include "grade10/model/resource_model.hpp"

namespace g10::core {

/// The complete expert input for one framework.
struct ModelDescription {
  ExecutionModel execution;
  ResourceModel resources;
  AttributionRuleSet rules;
};

/// Serializes a model description; parse_model() reads it back.
/// Note: the rule set's explicit entries are written via a callback over
/// all (phase, resource) pairs, so the output is complete by construction.
void write_model(std::ostream& os, const ExecutionModel& execution,
                 const ResourceModel& resources,
                 const AttributionRuleSet& rules);

/// One problem of a model file, as parse_model() reads it.
struct ModelDefect {
  enum class Response {
    kReport,  ///< the model still parses; only lint reports it
    kReject,  ///< parse_model() fails
  };
  /// The lint::rule_catalog id (at the catalog's severity), 1-based line,
  /// context and message g10_lint reports.
  std::string rule_id;
  std::size_t line = 0;
  std::string context;
  std::string message;
  Response response = Response::kReject;
};

struct ModelParseError {
  std::size_t line_number = 0;
  std::string message;
};

struct ModelParseResult {
  ModelDescription model;  ///< complete only when ok()
  /// Every defect, statement defects in file order first, then those of
  /// the checks across statements (roots, reachability, sibling order,
  /// rules).
  std::vector<ModelDefect> defects;
  /// The first rejecting defect in file order.
  std::optional<ModelParseError> error;

  bool ok() const { return !error.has_value(); }
};

/// Reads a model file, recording every defect. Never throws on bad input.
ModelParseResult parse_model(std::istream& is);

}  // namespace g10::core
