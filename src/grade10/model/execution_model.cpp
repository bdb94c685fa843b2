#include "grade10/model/execution_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace g10::core {

PhaseTypeId ExecutionModel::add_root(std::string name) {
  G10_CHECK_MSG(types_.empty(), "execution model already has a root");
  PhaseType root;
  root.name = std::move(name);
  types_.push_back(std::move(root));
  return 0;
}

PhaseTypeId ExecutionModel::add_child(PhaseTypeId parent, std::string name,
                                      bool repeated) {
  G10_CHECK(parent >= 0 && static_cast<std::size_t>(parent) < types_.size());
  G10_CHECK_MSG(find(name) == kNoPhaseType,
                "duplicate phase type name: " << name);
  const auto id = static_cast<PhaseTypeId>(types_.size());
  PhaseType type;
  type.name = std::move(name);
  type.parent = parent;
  type.repeated = repeated;
  types_.push_back(std::move(type));
  types_[static_cast<std::size_t>(parent)].children.push_back(id);
  return id;
}

void ExecutionModel::add_order(PhaseTypeId before, PhaseTypeId after) {
  G10_CHECK(before >= 0 && static_cast<std::size_t>(before) < types_.size());
  G10_CHECK(after >= 0 && static_cast<std::size_t>(after) < types_.size());
  G10_CHECK_MSG(types_[static_cast<std::size_t>(before)].parent ==
                    types_[static_cast<std::size_t>(after)].parent,
                "order edges must connect siblings");
  G10_CHECK(before != after);
  types_[static_cast<std::size_t>(before)].successors.push_back(after);
  types_[static_cast<std::size_t>(after)].predecessors.push_back(before);
}

void ExecutionModel::set_concurrency_limit(PhaseTypeId type, int limit) {
  G10_CHECK(type >= 0 && static_cast<std::size_t>(type) < types_.size());
  G10_CHECK(limit >= 0);
  types_[static_cast<std::size_t>(type)].concurrency_limit = limit;
}

void ExecutionModel::set_wait(PhaseTypeId type, bool wait) {
  G10_CHECK(type >= 0 && static_cast<std::size_t>(type) < types_.size());
  types_[static_cast<std::size_t>(type)].wait = wait;
}

const PhaseType& ExecutionModel::type(PhaseTypeId id) const {
  G10_CHECK(id >= 0 && static_cast<std::size_t>(id) < types_.size());
  return types_[static_cast<std::size_t>(id)];
}

PhaseTypeId ExecutionModel::find(std::string_view name) const {
  for (std::size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].name == name) return static_cast<PhaseTypeId>(i);
  }
  return kNoPhaseType;
}

std::vector<PhaseTypeId> ExecutionModel::sibling_order(
    PhaseTypeId parent) const {
  const auto& group = type(parent).children;
  const auto local = [&](PhaseTypeId id) {
    const auto it = std::find(group.begin(), group.end(), id);
    G10_CHECK(it != group.end());
    return static_cast<std::size_t>(it - group.begin());
  };
  std::vector<int> indegree(group.size(), 0);
  for (const PhaseTypeId member : group) {
    for (const PhaseTypeId succ : type(member).successors) {
      ++indegree[local(succ)];
    }
  }
  std::vector<PhaseTypeId> ready;
  for (std::size_t gi = 0; gi < group.size(); ++gi) {
    if (indegree[gi] == 0) ready.push_back(group[gi]);
  }
  std::vector<PhaseTypeId> order;
  while (!ready.empty()) {
    // The smallest ready id first: ties decide the replay's schedule order.
    const auto next = std::min_element(ready.begin(), ready.end());
    const PhaseTypeId t = *next;
    ready.erase(next);
    order.push_back(t);
    for (const PhaseTypeId succ : type(t).successors) {
      if (--indegree[local(succ)] == 0) ready.push_back(succ);
    }
  }
  return order;
}

std::vector<ExecutionModel::OrderCycle> ExecutionModel::order_cycles()
    const {
  std::vector<OrderCycle> cycles;
  for (std::size_t p = 0; p < types_.size(); ++p) {
    const auto parent = static_cast<PhaseTypeId>(p);
    const auto& group = types_[p].children;
    const std::vector<PhaseTypeId> order = sibling_order(parent);
    if (order.size() == group.size()) continue;
    OrderCycle cycle{parent, {}};
    for (const PhaseTypeId member : group) {
      if (std::find(order.begin(), order.end(), member) == order.end()) {
        cycle.types.push_back(member);
      }
    }
    cycles.push_back(std::move(cycle));
  }
  return cycles;
}

void ExecutionModel::validate() const {
  G10_CHECK_MSG(!types_.empty(), "execution model is empty");
  G10_CHECK(types_.front().parent == kNoPhaseType);
  for (std::size_t i = 1; i < types_.size(); ++i) {
    G10_CHECK_MSG(types_[i].parent != kNoPhaseType,
                  "multiple roots in execution model");
  }
  const std::vector<OrderCycle> cycles = order_cycles();
  G10_CHECK_MSG(cycles.empty(), "cycle in sibling order under type "
                                    << type(cycles.front().parent).name);
}

}  // namespace g10::core
