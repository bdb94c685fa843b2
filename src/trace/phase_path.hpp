// Hierarchical phase-instance paths.
//
// A running workload is a tree of phase instances; each instance is named by
// the path of (phase-type, instance-index) pairs from the root, e.g.
//   Job.0/Execute.0/Superstep.3/WorkerCompute.2/ComputeThread.5
// Engines emit these paths in their logs; Grade10 parses them and matches
// the types against the user-supplied execution model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace g10::trace {

struct PathElement {
  std::string type;       ///< phase-type name, e.g. "Superstep"
  std::int64_t index = 0; ///< instance index among siblings of this type

  friend bool operator==(const PathElement&, const PathElement&) = default;
};

struct PhasePath {
  std::vector<PathElement> elements;

  bool empty() const { return elements.empty(); }
  std::size_t depth() const { return elements.size(); }
  const PathElement& leaf() const { return elements.back(); }

  /// Parent path (all but the last element).
  PhasePath parent() const;

  /// Child path with one more element.
  PhasePath child(std::string type, std::int64_t index) const;

  std::string to_string() const;

  /// Appends the rendered path to `out` without intermediate allocations
  /// (hot in analysis ingestion, where the buffer is reused across events).
  void append_to(std::string& out) const;

  friend bool operator==(const PhasePath&, const PhasePath&) = default;
};

/// One path element as a reader meets it, before it owns any storage: a
/// view of the type name (into a text line or a `.g10t` symbol table) and
/// the index.
struct PathToken {
  std::string_view type;
  std::int64_t index = 0;
};

/// The one path tokenizer: splits "Type.idx/Type.idx/..." into `out`
/// (cleared first), one token per element. False when `text` is not a
/// well-formed path (phase_path_defect); `out` is then unspecified.
/// parse_phase_path and the trace readers' interning parse both read paths
/// through it, so a "malformed phase path" has one definition.
bool tokenize_phase_path(std::string_view text, std::vector<PathToken>& out);

/// The path `tokens` name, owning its type names.
PhasePath to_phase_path(std::span<const PathToken> tokens);

/// Parses "Type.idx/Type.idx/..."; nullopt on malformed input.
std::optional<PhasePath> parse_phase_path(std::string_view text);

/// Why `path` is not one that parse_phase_path can return, or nullopt when
/// it is: a path has at least one element, and every element has a
/// non-empty type without '/' and a non-negative index. Every trace decoder
/// applies this one check, so two paths are equal element-wise exactly when
/// their rendered strings are equal.
std::optional<std::string> phase_path_defect(std::span<const PathToken> path);

}  // namespace g10::trace
