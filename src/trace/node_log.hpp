// The compact form of a trace log (paper §III-C): every distinct phase
// path is one node of a per-log PathIndex, and each phase or blocking event
// is a fixed-size record naming its node. The phase logger keeps a run's
// log this way and hands it over as one (PhaseLogger::take_log), the trace
// readers read a file straight into it (TraceReader::read_nodes), both
// trace writers write it (write_log, write_g10t), and the trace build works
// on it directly (ExecutionTrace::build_checked). The string-typed records
// of trace/records.hpp are renderings of it (render_log, log_io.hpp), and
// records handed in by a caller come back into it through intern_events.
//
// Node ids follow first appearance: the phase events' paths in stream
// order, then the blocking events' (each path's missing prefixes just
// before it). A text log and its `.g10t` conversion therefore read into
// the same nodes, at every thread count, and so do interning their records
// and the phase logger's hand-over of the run that wrote them.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "trace/path_index.hpp"
#include "trace/records.hpp"

namespace g10::trace {

/// One META record: run provenance embedded in the log ("faults" carries
/// the canonical fault-spec string the run was injected with).
using LogMeta = std::pair<std::string, std::string>;

/// A phase started or ended, naming its path's node.
struct PhaseEvent {
  TimeNs time = 0;
  PathIndex::NodeId node = PathIndex::kRoot;
  MachineId machine = kGlobalMachine;
  PhaseEventRecord::Kind kind = PhaseEventRecord::Kind::Begin;

  friend bool operator==(const PhaseEvent&, const PhaseEvent&) = default;
};

/// A phase was blocked on a blocking resource for [begin, end).
struct BlockingEvent {
  TimeNs begin = 0;
  TimeNs end = 0;
  PathIndex::NodeId node = PathIndex::kRoot;
  /// The resource name's index in NodeLog::resources.
  std::uint32_t resource = 0;
  MachineId machine = kGlobalMachine;

  friend bool operator==(const BlockingEvent&, const BlockingEvent&) = default;
};
static_assert(sizeof(PhaseEvent) == 24 && sizeof(BlockingEvent) == 32);

struct NodeLog {
  std::vector<LogMeta> meta;
  PathIndex paths;  ///< the nodes every event names
  /// Blocking-resource names, numbered in first use.
  std::vector<std::string> resources;
  std::vector<PhaseEvent> phase_events;
  std::vector<BlockingEvent> blocking_events;
  std::vector<MonitoringSampleRecord> samples;

  std::optional<std::string> meta_value(std::string_view key) const;
};

/// Value of the first META record in `meta` with `key`, if any.
std::optional<std::string> meta_value(const std::vector<LogMeta>& meta,
                                      std::string_view key);

/// Numbers blocking-resource names in first use: a NodeLog's `resources`.
class ResourceNumbering {
 public:
  std::uint32_t operator()(std::string_view name);

  /// The names by number; leaves the numbering empty.
  std::vector<std::string> take_names();

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>> ids_;
};

/// The interning adapter: a NodeLog of `phase_events` and
/// `blocking_events` (no meta, no samples), its nodes in the order a reader
/// of the same records would give them.
NodeLog intern_events(std::span<const PhaseEventRecord> phase_events,
                      std::span<const BlockingEventRecord> blocking_events);

/// Which records a trace read keeps (semantics in trace_reader.hpp). The
/// readers apply it before interning, so a dropped record adds no node.
struct TraceFilter {
  /// Machines to keep; empty = all. kGlobalMachine records always pass.
  std::vector<MachineId> machines;
  /// Phase-type names to keep (any path element matches); empty = all.
  std::vector<std::string> phase_types;
  /// Types whose paths are kept only when the LAST element matches — the
  /// ancestor chain enclosing a requested subtree. Ignored when
  /// phase_types is empty.
  std::vector<std::string> ancestor_types;
  /// Inclusive time window.
  TimeNs time_min = 0;
  TimeNs time_max = std::numeric_limits<TimeNs>::max();

  bool empty() const {
    return machines.empty() && phase_types.empty() && !time_window();
  }
  bool time_window() const {
    return time_min != 0 || time_max != std::numeric_limits<TimeNs>::max();
  }

  bool matches_machine(MachineId machine) const;
  bool matches_time(TimeNs time) const {
    return time >= time_min && time <= time_max;
  }
  bool matches_path(std::span<const PathToken> path) const;
  /// The rule for each kind of event, `path_kept` being whether its path
  /// passes matches_path: a kept machine, and a time in the window (a
  /// phase event) or an interval [begin, end] overlapping it (a blocking
  /// event). Both readers and the record overloads below apply these.
  bool keeps_phase(TimeNs time, MachineId machine, bool path_kept) const {
    return path_kept && matches_time(time) && matches_machine(machine);
  }
  bool keeps_blocking(TimeNs begin, TimeNs end, MachineId machine,
                      bool path_kept) const {
    return path_kept && end >= time_min && begin <= time_max &&
           matches_machine(machine);
  }
  bool matches(const PhaseEventRecord& rec) const;
  bool matches(const BlockingEventRecord& rec) const;
  bool matches(const MonitoringSampleRecord& rec) const;
};

}  // namespace g10::trace
