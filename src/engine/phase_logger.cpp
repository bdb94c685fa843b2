#include "engine/phase_logger.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "trace/log_io.hpp"

namespace g10::engine {

using trace::BlockingEvent;
using trace::PathIndex;
using trace::PhaseEvent;
using trace::PhaseEventRecord;

namespace {

template <typename Event>
void append(std::vector<std::vector<Event>>& blocks, const Event& event) {
  if (blocks.empty() || blocks.back().size() == PhaseLogger::kBlockEvents) {
    blocks.emplace_back().reserve(PhaseLogger::kBlockEvents);
  }
  blocks.back().push_back(event);
}

/// Moves every block's events, in order, into `out` with each node
/// renumbered by `new_id`, freeing each block once moved.
template <typename Event>
void move_blocks(std::vector<std::vector<Event>>& blocks,
                 const std::vector<PathIndex::NodeId>& new_id,
                 std::vector<Event>& out) {
  std::size_t total = 0;
  for (const std::vector<Event>& block : blocks) total += block.size();
  out.reserve(total);
  for (std::vector<Event>& block : blocks) {
    for (Event event : block) {
      event.node = new_id[static_cast<std::size_t>(event.node)];
      out.push_back(event);
    }
    std::vector<Event>().swap(block);
  }
}

}  // namespace

PathIndex::NodeId PhaseLogger::open_node(const trace::PathRef& path) const {
  const PathIndex::NodeId node = paths_.find(path);
  if (node == PathIndex::kNoNode ||
      static_cast<std::size_t>(node) >= open_.size() ||
      open_[static_cast<std::size_t>(node)] == kNotOpen) {
    return PathIndex::kNoNode;
  }
  return node;
}

void PhaseLogger::begin(const trace::PathRef& path, TimeNs time,
                        trace::MachineId machine) {
  const PathIndex::NodeId node = paths_.insert(path);
  if (static_cast<std::size_t>(node) >= open_.size()) {
    open_.resize(paths_.size(), kNotOpen);
  }
  TimeNs& open = open_[static_cast<std::size_t>(node)];
  G10_CHECK_MSG(open == kNotOpen, "phase already open: " << path.to_string());
  open = time;
  ++open_count_;
  append(phase_events_,
         PhaseEvent{time, node, machine, PhaseEventRecord::Kind::Begin});
}

void PhaseLogger::end(const trace::PathRef& path, TimeNs time,
                      trace::MachineId machine) {
  const PathIndex::NodeId node = open_node(path);
  G10_CHECK_MSG(node != PathIndex::kNoNode,
                "ending phase that is not open: " << path.to_string());
  TimeNs& open = open_[static_cast<std::size_t>(node)];
  G10_CHECK_MSG(open <= time,
                "phase " << path.to_string() << " ends before it begins");
  open = kNotOpen;
  --open_count_;
  append(phase_events_,
         PhaseEvent{time, node, machine, PhaseEventRecord::Kind::End});
}

void PhaseLogger::block(std::string_view resource, const trace::PathRef& path,
                        TimeNs begin, TimeNs end, trace::MachineId machine) {
  G10_CHECK(end >= begin);
  if (end == begin) return;
  append(blocking_events_, BlockingEvent{begin, end, paths_.insert(path),
                                         resources_(resource), machine});
}

bool PhaseLogger::abandon(const trace::PathRef& path) {
  const PathIndex::NodeId node = open_node(path);
  if (node == PathIndex::kNoNode) return false;
  open_[static_cast<std::size_t>(node)] = kNotOpen;
  --open_count_;
  return true;
}

bool PhaseLogger::is_open(const trace::PathRef& path) const {
  return open_node(path) != PathIndex::kNoNode;
}

std::optional<TimeNs> PhaseLogger::open_begin(
    const trace::PathRef& path) const {
  const PathIndex::NodeId node = open_node(path);
  if (node == PathIndex::kNoNode) return std::nullopt;
  return open_[static_cast<std::size_t>(node)];
}

trace::NodeLog PhaseLogger::take_log() {
  G10_CHECK_MSG(open_count_ == 0, "phases still open at end of run");
  // A reader numbers each path, missing prefixes first, where an event
  // first names it: the phase events in order, then the blocking events.
  std::vector<PathIndex::NodeId> order = {PathIndex::kRoot};
  std::vector<PathIndex::NodeId> new_id(paths_.size(), PathIndex::kNoNode);
  new_id[PathIndex::kRoot] = PathIndex::kRoot;
  std::vector<PathIndex::NodeId> unnumbered;
  const auto number = [&](PathIndex::NodeId node) {
    for (; new_id[static_cast<std::size_t>(node)] == PathIndex::kNoNode;
         node = paths_.parent(node)) {
      unnumbered.push_back(node);
    }
    for (; !unnumbered.empty(); unnumbered.pop_back()) {
      new_id[static_cast<std::size_t>(unnumbered.back())] =
          static_cast<PathIndex::NodeId>(order.size());
      order.push_back(unnumbered.back());
    }
  };
  for (const auto& block : phase_events_) {
    for (const PhaseEvent& event : block) number(event.node);
  }
  for (const auto& block : blocking_events_) {
    for (const BlockingEvent& event : block) number(event.node);
  }
  G10_CHECK(order.size() == paths_.size());

  trace::NodeLog log;
  // `order` is a permutation of the node ids: sorted means unchanged.
  log.paths = std::is_sorted(order.begin(), order.end())
                  ? std::move(paths_)
                  : paths_.renumbered(order);
  move_blocks(phase_events_, new_id, log.phase_events);
  move_blocks(blocking_events_, new_id, log.blocking_events);
  log.resources = resources_.take_names();
  *this = PhaseLogger();
  return log;
}

trace::RunArtifacts LoggedRun::render() && {
  trace::ParsedLog rendered = trace::render_log(log.take_log());
  artifacts.phase_events = std::move(rendered.phase_events);
  artifacts.blocking_events = std::move(rendered.blocking_events);
  return std::move(artifacts);
}

}  // namespace g10::engine
