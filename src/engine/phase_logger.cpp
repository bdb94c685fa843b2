#include "engine/phase_logger.hpp"

#include "common/check.hpp"

namespace g10::engine {

using trace::PhaseEventRecord;

namespace {

template <typename Event>
void append(std::vector<std::vector<Event>>& blocks, const Event& event) {
  if (blocks.empty() || blocks.back().size() == PhaseLogger::kBlockEvents) {
    blocks.emplace_back().reserve(PhaseLogger::kBlockEvents);
  }
  blocks.back().push_back(event);
}

/// Renders every block's events in order, freeing each block right after
/// it is rendered, and leaves `blocks` empty.
template <typename Event, typename Render>
auto render_blocks(std::vector<std::vector<Event>>& blocks, Render render) {
  std::vector<decltype(render(blocks.front().front()))> records;
  std::size_t total = 0;
  for (const std::vector<Event>& block : blocks) total += block.size();
  records.reserve(total);
  for (std::vector<Event>& block : blocks) {
    for (const Event& event : block) records.push_back(render(event));
    std::vector<Event>().swap(block);
  }
  std::vector<std::vector<Event>>().swap(blocks);
  return records;
}

}  // namespace

void PhaseLogger::begin(const trace::PathRef& path, TimeNs time,
                        trace::MachineId machine) {
  const auto [it, inserted] = open_.emplace(path, time);
  G10_CHECK_MSG(inserted, "phase already open: " << path.to_string());
  append(phase_events_, InternedPhaseEvent{PhaseEventRecord::Kind::Begin,
                                           path, time, machine});
}

void PhaseLogger::end(const trace::PathRef& path, TimeNs time,
                      trace::MachineId machine) {
  const auto it = open_.find(path);
  G10_CHECK_MSG(it != open_.end(),
                "ending phase that is not open: " << path.to_string());
  G10_CHECK_MSG(it->second <= time,
                "phase " << path.to_string() << " ends before it begins");
  open_.erase(it);
  append(phase_events_, InternedPhaseEvent{PhaseEventRecord::Kind::End, path,
                                           time, machine});
}

void PhaseLogger::block(std::string_view resource, const trace::PathRef& path,
                        TimeNs begin, TimeNs end, trace::MachineId machine) {
  G10_CHECK(end >= begin);
  if (end == begin) return;
  append(blocking_events_,
         InternedBlockingEvent{trace::SymbolTable::global().intern(resource),
                               path, begin, end, machine});
}

bool PhaseLogger::abandon(const trace::PathRef& path) {
  return open_.erase(path) > 0;
}

bool PhaseLogger::is_open(const trace::PathRef& path) const {
  return open_.contains(path);
}

std::optional<TimeNs> PhaseLogger::open_begin(
    const trace::PathRef& path) const {
  const auto it = open_.find(path);
  if (it == open_.end()) return std::nullopt;
  return it->second;
}

std::vector<trace::PhaseEventRecord> PhaseLogger::take_phase_events() {
  G10_CHECK_MSG(open_.empty(), "phases still open at end of run");
  return render_blocks(phase_events_, [](const InternedPhaseEvent& event) {
    return PhaseEventRecord{event.kind, event.path.to_phase_path(), event.time,
                            event.machine};
  });
}

std::vector<trace::BlockingEventRecord> PhaseLogger::take_blocking_events() {
  const trace::SymbolTable& table = trace::SymbolTable::global();
  return render_blocks(
      blocking_events_, [&table](const InternedBlockingEvent& event) {
        return trace::BlockingEventRecord{
            std::string(table.name(event.resource)),
            event.path.to_phase_path(), event.begin, event.end,
            event.machine};
      });
}

}  // namespace g10::engine
