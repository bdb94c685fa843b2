#include "trace/path_index.hpp"

#include <charconv>

namespace g10::trace {

PathIndex::PathIndex() : slots_(1024) { nodes_.push_back(Node{}); }

std::uint64_t PathIndex::hash(NodeId parent, TypeId type,
                              std::int64_t index) {
  std::uint64_t h = static_cast<std::uint32_t>(parent);
  h = h * 0x9E3779B97F4A7C15ULL ^ type;
  h = h * 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint64_t>(index);
  return h ^ (h >> 29);
}

PathIndex::NodeId PathIndex::child(NodeId parent, TypeId type,
                                   std::int64_t index, bool create) {
  const std::uint64_t h = hash(parent, type, index);
  const auto tag = static_cast<std::uint32_t>(h >> 32);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = h & mask;
  for (; slots_[i].node != kNoNode; i = (i + 1) & mask) {
    if (slots_[i].tag != tag) continue;
    const Node& node = at(slots_[i].node);
    if (node.parent == parent && node.type == type && node.index == index) {
      return slots_[i].node;
    }
  }
  if (!create) return kNoNode;
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{parent, type, at(parent).depth + 1, index});
  slots_[i] = Slot{id, tag};
  if (nodes_.size() * 2 > slots_.size()) {
    // Keep the load at most 1/2: rehash into twice the slots.
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const std::size_t new_mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.node == kNoNode) continue;
      const Node& node = at(slot.node);
      std::size_t j = hash(node.parent, node.type, node.index) & new_mask;
      while (slots_[j].node != kNoNode) j = (j + 1) & new_mask;
      slots_[j] = slot;
    }
  }
  return id;
}

PathIndex::TypeId PathIndex::type_of(std::string_view name, bool create) {
  const auto it = type_ids_.find(name);
  if (it != type_ids_.end()) return it->second;
  if (!create) return kNoType;
  const auto type = static_cast<TypeId>(type_names_.size());
  type_ids_.emplace(name, type);
  type_names_.emplace_back(name);
  return type;
}

PathIndex::TypeId PathIndex::symbol_type(Symbol symbol, bool create) {
  if (symbol < symbol_types_.size() && symbol_types_[symbol] != kNoType) {
    return symbol_types_[symbol];
  }
  const TypeId type = type_of(SymbolTable::global().name(symbol), create);
  if (type != kNoType) {
    if (symbol >= symbol_types_.size()) {
      symbol_types_.resize(symbol + 1, kNoType);
    }
    symbol_types_[symbol] = type;
  }
  return type;
}

template <typename Elements>
PathIndex::NodeId PathIndex::resolve(const Elements& elements, bool create) {
  NodeId node = kRoot;
  for (std::size_t d = 0; d < elements.size(); ++d) {
    const auto& element = elements[d];
    TypeId type = kNoType;
    if (d < last_.size()) {
      const Node& cached = at(last_[d]);
      if (type_names_[cached.type] == element.type) {
        if (cached.parent == node && cached.index == element.index) {
          node = last_[d];
          continue;
        }
        type = cached.type;  // a sibling of the same type: skip the lookup
      }
      last_.resize(d);
    }
    if (type == kNoType) type = type_of(element.type, create);
    if (type == kNoType) return kNoNode;
    node = child(node, type, element.index, create);
    if (node == kNoNode) return kNoNode;
    last_.push_back(node);
  }
  return node;
}

PathIndex::NodeId PathIndex::insert(std::span<const PathToken> path) {
  return resolve(path, true);
}

PathIndex::NodeId PathIndex::insert(const PhasePath& path) {
  return resolve(path.elements, true);
}

PathIndex::NodeId PathIndex::resolve(const PathRef& path, bool create) {
  NodeId node = kRoot;
  for (std::size_t d = 0; d < path.depth(); ++d) {
    const PathEntry& entry = path[d];
    const TypeId type = symbol_type(entry.type, create);
    if (type == kNoType) return kNoNode;
    if (d < last_.size()) {
      const Node& cached = at(last_[d]);
      if (cached.type == type && cached.parent == node &&
          cached.index == entry.index) {
        node = last_[d];
        continue;
      }
      last_.resize(d);
    }
    node = child(node, type, entry.index, create);
    if (node == kNoNode) return kNoNode;
    last_.push_back(node);
  }
  return node;
}

std::string PathIndex::path(NodeId node) const {
  std::string out;
  append_path(node, out);
  return out;
}

void PathIndex::append_path(NodeId node, std::string& out) const {
  // Sized in one walk up the tree, then filled from the back in a second:
  // at most one allocation per path.
  char digits[24];
  const auto render_index = [&digits](std::int64_t index) {
    return std::string_view(
        digits, static_cast<std::size_t>(
                    std::to_chars(digits, digits + sizeof digits, index).ptr -
                    digits));
  };
  std::size_t length = 0;
  for (NodeId n = node; n != kRoot; n = at(n).parent) {
    length += type_names_[at(n).type].size() + render_index(at(n).index).size() +
              (at(n).parent == kRoot ? 1 : 2);
  }
  std::size_t pos = out.size() + length;
  out.resize(pos);
  for (NodeId n = node; n != kRoot; n = at(n).parent) {
    const std::string_view index = render_index(at(n).index);
    const std::string& type = type_names_[at(n).type];
    pos -= index.size();
    index.copy(out.data() + pos, index.size());
    out[--pos] = '.';
    pos -= type.size();
    type.copy(out.data() + pos, type.size());
    if (at(n).parent != kRoot) out[--pos] = '/';
  }
}

void PathIndex::phase_path(NodeId node, PhasePath& out) const {
  out.elements.resize(at(node).depth);
  for (std::size_t d = out.elements.size(); d-- > 0; node = at(node).parent) {
    PathElement& element = out.elements[d];
    element.type = type_names_[at(node).type];
    element.index = at(node).index;
  }
}

PathIndex PathIndex::renumbered(std::span<const NodeId> order) const {
  PathIndex out;
  out.type_names_ = type_names_;
  out.type_ids_ = type_ids_;
  out.symbol_types_ = symbol_types_;
  std::vector<NodeId> new_id(nodes_.size(), kNoNode);
  new_id[kRoot] = kRoot;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const Node& node = at(order[i]);
    new_id[static_cast<std::size_t>(order[i])] = out.child(
        new_id[static_cast<std::size_t>(node.parent)], node.type, node.index,
        true);
  }
  return out;
}

}  // namespace g10::trace
