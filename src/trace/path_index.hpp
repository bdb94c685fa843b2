// Path-node table (paper §III-C): gives every distinct phase path of one
// log a dense integer node id, so the phase logger and the trace readers
// store each event as a fixed-size record naming its node (a NodeLog,
// trace/node_log.hpp), and the trace build pairs BEGIN/END events and
// resolves parents without rendering paths.
//
// A node is reached from its parent node by the exact key (parent node,
// type id, index); type ids come from an intern table local to the index,
// so the path vocabulary stays open and nothing is shared or persisted.
// Paths come in as tokens (the readers: a text line's path or a `.g10t`
// dictionary entry), as parsed PhasePaths (records handed in by callers)
// or as interned PathRefs (the phase logger, whose SymbolTable symbols map
// one-to-one onto type ids); all resolve to the same nodes. Node ids
// follow first appearance, and node 0 is the empty path, the parent of
// every top-level element. Element-wise identity equals rendered identity
// because well-formed paths have no '/' inside a type
// (trace::phase_path_defect).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/phase_path.hpp"
#include "trace/symbol_table.hpp"

namespace g10::trace {

class PathIndex {
 public:
  using NodeId = std::int32_t;
  using TypeId = std::uint32_t;
  static constexpr NodeId kRoot = 0;
  static constexpr NodeId kNoNode = -1;

  PathIndex();

  /// Node of `path`, adding it and any missing prefixes.
  NodeId insert(std::span<const PathToken> path);
  NodeId insert(const PhasePath& path);
  NodeId insert(const PathRef& path) { return resolve(path, true); }
  /// Node of `path`, or kNoNode when it was never inserted (not even as a
  /// prefix). Never adds nodes.
  NodeId find(const PathRef& path) { return resolve(path, false); }

  std::size_t size() const { return nodes_.size(); }
  NodeId parent(NodeId node) const { return at(node).parent; }
  std::size_t depth(NodeId node) const { return at(node).depth; }
  std::int64_t index(NodeId node) const { return at(node).index; }
  TypeId type_id(NodeId node) const { return at(node).type; }
  const std::string& type_name(TypeId type) const { return type_names_[type]; }
  std::size_t type_count() const { return type_names_.size(); }

  /// The node's path rendered as PhasePath::to_string would.
  std::string path(NodeId node) const;
  /// Appends path(node) to `out`.
  void append_path(NodeId node, std::string& out) const;
  /// Fills `out` with the node's path, reusing its storage.
  void phase_path(NodeId node, PhasePath& out) const;

  /// The same paths numbered in `order`: node i of the result is node
  /// order[i] here. `order` lists every node once, the root first and each
  /// node after its parent.
  PathIndex renumbered(std::span<const NodeId> order) const;

 private:
  static constexpr TypeId kNoType = ~TypeId{0};

  struct Node {
    NodeId parent = kNoNode;
    TypeId type = 0;
    std::uint32_t depth = 0;
    std::int64_t index = 0;
  };
  /// Open-addressing slot of the (parent, type, index) -> node table;
  /// `tag` holds high hash bits so most mismatches skip the node.
  struct Slot {
    NodeId node = kNoNode;
    std::uint32_t tag = 0;
  };
  static_assert(sizeof(Node) == 24 && sizeof(Slot) == 8);
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  const Node& at(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)];
  }
  static std::uint64_t hash(NodeId parent, TypeId type, std::int64_t index);
  NodeId child(NodeId parent, TypeId type, std::int64_t index, bool create);
  /// Type id of `name`, adding it when `create`; kNoType when absent.
  TypeId type_of(std::string_view name, bool create);
  /// Type id of the name `symbol` interns, memoized per symbol.
  TypeId symbol_type(Symbol symbol, bool create);
  /// Resolves named elements (PathTokens or PathElements).
  template <typename Elements>
  NodeId resolve(const Elements& elements, bool create);
  NodeId resolve(const PathRef& path, bool create);

  std::vector<Node> nodes_;
  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  std::vector<std::string> type_names_;
  std::unordered_map<std::string, TypeId, NameHash, std::equal_to<>>
      type_ids_;
  std::vector<TypeId> symbol_types_;  ///< by Symbol; kNoType until met
  /// Nodes of the last resolved path, by depth: consecutive log records
  /// share long prefixes, which then cost a compare, not a probe.
  std::vector<NodeId> last_;
};

}  // namespace g10::trace
