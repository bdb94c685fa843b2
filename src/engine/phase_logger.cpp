#include "engine/phase_logger.hpp"

#include <iterator>

#include "common/check.hpp"

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

/// The one renderer: renders every block's events in order into one reused
/// buffer, frees each storage block once rendered, hands the buffer to
/// `sink` and leaves `blocks` empty.
template <typename Event, typename Record, typename Render>
void render_blocks(std::vector<std::vector<Event>>& blocks, Render render,
                   const std::function<void(std::span<Record>)>& sink) {
  std::vector<Record> rendered;
  for (std::vector<Event>& block : blocks) {
    rendered.resize(block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      render(block[i], rendered[i]);
    }
    std::vector<Event>().swap(block);
    sink(rendered);
  }
  std::vector<std::vector<Event>>().swap(blocks);
}

template <typename Event>
std::size_t event_count(const std::vector<std::vector<Event>>& blocks) {
  std::size_t total = 0;
  for (const std::vector<Event>& block : blocks) total += block.size();
  return total;
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
  append(blocking_events_,
         BlockingEvent{begin, end, paths_.insert(path),
                       trace::SymbolTable::global().intern(resource),
                       machine});
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

void PhaseLogger::release_if_drained() {
  if (!phase_events_.empty() || !blocking_events_.empty() || open_count_ > 0) {
    return;
  }
  paths_ = PathIndex();
  std::vector<TimeNs>().swap(open_);
}

void PhaseLogger::render_phase_events(
    const BlockSink<PhaseEventRecord>& sink) {
  G10_CHECK_MSG(open_count_ == 0, "phases still open at end of run");
  render_blocks(
      phase_events_,
      [this](const PhaseEvent& event, PhaseEventRecord& record) {
        record.kind = event.kind;
        paths_.phase_path(event.node, record.path);
        record.time = event.time;
        record.machine = event.machine;
      },
      sink);
  release_if_drained();
}

void PhaseLogger::render_blocking_events(
    const BlockSink<trace::BlockingEventRecord>& sink) {
  const trace::SymbolTable& table = trace::SymbolTable::global();
  render_blocks(
      blocking_events_,
      [this, &table](const BlockingEvent& event,
                     trace::BlockingEventRecord& record) {
        record.resource = table.name(event.resource);
        paths_.phase_path(event.node, record.path);
        record.begin = event.begin;
        record.end = event.end;
        record.machine = event.machine;
      },
      sink);
  release_if_drained();
}

std::vector<PhaseEventRecord> PhaseLogger::take_phase_events() {
  std::vector<PhaseEventRecord> records;
  records.reserve(event_count(phase_events_));
  render_phase_events([&records](std::span<PhaseEventRecord> block) {
    std::move(block.begin(), block.end(), std::back_inserter(records));
  });
  return records;
}

std::vector<trace::BlockingEventRecord> PhaseLogger::take_blocking_events() {
  std::vector<trace::BlockingEventRecord> records;
  records.reserve(event_count(blocking_events_));
  render_blocking_events(
      [&records](std::span<trace::BlockingEventRecord> block) {
        std::move(block.begin(), block.end(), std::back_inserter(records));
      });
  return records;
}

trace::RunArtifacts LoggedRun::render() && {
  artifacts.phase_events = log.take_phase_events();
  artifacts.blocking_events = log.take_blocking_events();
  return std::move(artifacts);
}

}  // namespace g10::engine
