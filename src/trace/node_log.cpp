#include "trace/node_log.hpp"

#include <algorithm>
#include <utility>

namespace g10::trace {

std::optional<std::string> meta_value(const std::vector<LogMeta>& meta,
                                      std::string_view key) {
  for (const auto& [k, v] : meta) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::optional<std::string> NodeLog::meta_value(std::string_view key) const {
  return trace::meta_value(meta, key);
}

std::uint32_t ResourceNumbering::operator()(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(name, id);
  return id;
}

std::vector<std::string> ResourceNumbering::take_names() {
  ids_.clear();
  return std::exchange(names_, {});
}

NodeLog intern_events(std::span<const PhaseEventRecord> phase_events,
                      std::span<const BlockingEventRecord> blocking_events) {
  NodeLog log;
  log.phase_events.reserve(phase_events.size());
  for (const PhaseEventRecord& rec : phase_events) {
    log.phase_events.push_back(
        PhaseEvent{rec.time, log.paths.insert(rec.path), rec.machine,
                   rec.kind});
  }
  ResourceNumbering resource;
  log.blocking_events.reserve(blocking_events.size());
  for (const BlockingEventRecord& rec : blocking_events) {
    log.blocking_events.push_back(
        BlockingEvent{rec.begin, rec.end, log.paths.insert(rec.path),
                      resource(rec.resource), rec.machine});
  }
  log.resources = resource.take_names();
  return log;
}

namespace {

/// TraceFilter::matches_path over PathTokens or PathElements.
template <typename Elements>
bool path_matches(const TraceFilter& filter, const Elements& elements) {
  if (filter.phase_types.empty()) return true;
  for (const auto& element : elements) {
    for (const std::string& type : filter.phase_types) {
      if (element.type == type) return true;
    }
  }
  // The enclosing chain: only the innermost element may be an ancestor
  // type, otherwise sibling subtrees under a shared ancestor would leak in.
  if (!elements.empty()) {
    const auto& last = elements.back().type;
    for (const std::string& type : filter.ancestor_types) {
      if (last == type) return true;
    }
  }
  return false;
}

}  // namespace

bool TraceFilter::matches_machine(MachineId machine) const {
  if (machines.empty() || machine == kGlobalMachine) return true;
  return std::find(machines.begin(), machines.end(), machine) !=
         machines.end();
}

bool TraceFilter::matches_path(std::span<const PathToken> path) const {
  return path_matches(*this, path);
}

bool TraceFilter::matches(const PhaseEventRecord& rec) const {
  return keeps_phase(rec.time, rec.machine,
                     path_matches(*this, rec.path.elements));
}

bool TraceFilter::matches(const BlockingEventRecord& rec) const {
  return keeps_blocking(rec.begin, rec.end, rec.machine,
                        path_matches(*this, rec.path.elements));
}

bool TraceFilter::matches(const MonitoringSampleRecord& rec) const {
  return matches_time(rec.time) && matches_machine(rec.machine);
}

}  // namespace g10::trace
