// Execution model (paper §III-B): a hierarchical DAG of phase *types*.
//
// Nodes are phase types; the hierarchy decomposes high-level phases into
// lower-level ones, and directed edges between siblings express execution
// order. A type may be `repeated` (its instances under one parent run
// sequentially, e.g. supersteps), carry a per-parent concurrency limit
// (e.g. at most T ComputeThread instances run at once — the paper's
// scheduling constraint), or be a `wait` type (barrier-wait phases whose
// duration is slack, not work; the replay simulator gives them zero
// duration and re-derives the waiting from its schedule).
//
// The model is defined once per framework by a domain expert and reused
// across workloads; grade10/models/ ships the models for the two bundled
// engines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace g10::core {

using PhaseTypeId = std::int32_t;
inline constexpr PhaseTypeId kNoPhaseType = -1;

struct PhaseType {
  std::string name;
  PhaseTypeId parent = kNoPhaseType;
  bool repeated = false;
  bool wait = false;
  int concurrency_limit = 0;  ///< max concurrent instances per parent; 0 = off
  std::vector<PhaseTypeId> children;
  std::vector<PhaseTypeId> predecessors;  ///< sibling order edges (into this)
  std::vector<PhaseTypeId> successors;
};

class ExecutionModel {
 public:
  /// Adds the root type; must be called exactly once, first.
  PhaseTypeId add_root(std::string name);

  /// Adds a child type under `parent`. Type names must be globally unique.
  PhaseTypeId add_child(PhaseTypeId parent, std::string name,
                        bool repeated = false);

  /// Declares that instances of `before` precede matching instances of
  /// `after`. Both must share a parent.
  void add_order(PhaseTypeId before, PhaseTypeId after);

  void set_concurrency_limit(PhaseTypeId type, int limit);
  void set_wait(PhaseTypeId type, bool wait = true);

  PhaseTypeId root() const { return types_.empty() ? kNoPhaseType : 0; }
  std::size_t type_count() const { return types_.size(); }
  const PhaseType& type(PhaseTypeId id) const;

  /// Looks a type up by name; kNoPhaseType if absent.
  PhaseTypeId find(std::string_view name) const;

  /// One sibling group whose ORDER edges form a cycle.
  struct OrderCycle {
    PhaseTypeId parent = kNoPhaseType;
    std::vector<PhaseTypeId> types;  ///< on or after the cycle, in id order
  };

  /// The children of `parent` in sibling order: Kahn's algorithm over the
  /// ORDER edges, taking the smallest ready id first. Children on or after
  /// an order cycle are left out.
  std::vector<PhaseTypeId> sibling_order(PhaseTypeId parent) const;

  /// Every sibling group whose ORDER edges no instance order can satisfy:
  /// the members sibling_order() leaves out.
  std::vector<OrderCycle> order_cycles() const;

  /// Checks structural invariants: exactly one root, acyclic sibling order,
  /// parent linkage consistent. Throws CheckError on violation.
  void validate() const;

 private:
  std::vector<PhaseType> types_;
};

}  // namespace g10::core
