// Phase/blocking log emission shared by both simulated engines.
//
// Tracks open phases so unbalanced begin/end pairs are caught at the source
// (inside the engine) instead of during later analysis.
//
// This is the hot edge of trace generation, so the log is stored compactly:
// every distinct phase path becomes one node of a per-run PathIndex, and
// each event is a fixed-size record naming its node (trace::PhaseEvent,
// 24 bytes, and trace::BlockingEvent, 32, whose resource is a SymbolTable
// symbol here: the event types the trace readers' NodeLog holds), kept in
// fixed blocks of kBlockEvents.
// BEGIN and END of one instance share a node, and so does a path begun
// again after abandon(). Open-phase tracking is a begin time per node. The
// string-typed PhaseEventRecord/BlockingEventRecord forms are rendered only
// by render_*() (or the take_*() collectors over it), one storage block at
// a time in emission order, which keeps logs byte-identical to the
// uncompacted ones. Each storage block is freed as soon as it is rendered,
// and a caller that consumes each rendered block before the next (g10_run's
// writers, its determinism fold) never holds more than one block of
// rendered records.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "trace/node_log.hpp"
#include "trace/path_index.hpp"
#include "trace/records.hpp"
#include "trace/symbol_table.hpp"

namespace g10::engine {

/// How a crash victim's already-open phases appear in the final log.
///
/// kReconciled (default): the victim's log shipper flushes closing records
/// at the crash instant, so the dumped trace stays balanced and strict
/// analysis succeeds with the recovery window attributed to Retry/Recovery
/// blocking. kTruncated reproduces a raw crashed logger: open phases keep
/// their BEGIN forever and only a lenient analysis can repair the trace.
enum class CrashLogStyle {
  kReconciled,
  kTruncated,
};

class PhaseLogger {
 public:
  void begin(const trace::PathRef& path, TimeNs time,
             trace::MachineId machine);
  void end(const trace::PathRef& path, TimeNs time, trace::MachineId machine);

  /// Records that `path` was blocked on `resource` over [begin, end).
  void block(std::string_view resource, const trace::PathRef& path,
             TimeNs begin, TimeNs end, trace::MachineId machine);

  /// Drops an open phase WITHOUT emitting an End record, leaving a truncated
  /// BEGIN-without-END in the log — exactly what a crashed worker's logger
  /// would have produced. Returns false when the phase was not open.
  bool abandon(const trace::PathRef& path);

  /// True when `path` has a Begin without a matching End (or abandon) yet.
  bool is_open(const trace::PathRef& path) const;

  /// Begin time of an open phase; nullopt when not open. (Some phases are
  /// logged ahead of simulated time — e.g. WorkerCompute begins at t+prep —
  /// so crash handling clamps end times to at least the begin.)
  std::optional<TimeNs> open_begin(const trace::PathRef& path) const;

  template <typename Record>
  using BlockSink = std::function<void(std::span<Record>)>;

  /// Renders the phase events in emission order, one storage block at a
  /// time: `sink` gets each rendered block (it may move the records out)
  /// before the next is rendered, and each storage block is freed once
  /// rendered. The logger must have no open phases. Once both kinds are
  /// rendered the logger is empty and reusable.
  void render_phase_events(const BlockSink<trace::PhaseEventRecord>& sink);
  /// The same for the blocking events.
  void render_blocking_events(
      const BlockSink<trace::BlockingEventRecord>& sink);

  /// All of render_*()'s records in one vector.
  std::vector<trace::PhaseEventRecord> take_phase_events();
  std::vector<trace::BlockingEventRecord> take_blocking_events();

  /// The path table the stored events name (empty once rendered).
  const trace::PathIndex& paths() const { return paths_; }

  /// Events per storage block.
  static constexpr std::size_t kBlockEvents = 4096;

 private:
  template <typename Event>
  using Blocks = std::vector<std::vector<Event>>;

  static constexpr TimeNs kNotOpen = std::numeric_limits<TimeNs>::min();

  /// Node of `path` when it is open, else kNoNode.
  trace::PathIndex::NodeId open_node(const trace::PathRef& path) const;
  /// Drops the path table once both kinds are rendered and nothing is open.
  void release_if_drained();

  /// Mutable because a lookup (find) moves the index's prefix memo.
  mutable trace::PathIndex paths_;
  /// Begin time of each node's open instance, kNotOpen when closed.
  std::vector<TimeNs> open_;
  std::size_t open_count_ = 0;
  Blocks<trace::PhaseEvent> phase_events_;
  Blocks<trace::BlockingEvent> blocking_events_;
};

/// An engine run with its log still in the logger's compact form: every
/// other artifact is in `artifacts`, whose record vectors are empty.
struct LoggedRun {
  PhaseLogger log;
  trace::RunArtifacts artifacts;

  /// The artifacts with the rendered log: what Engine::run() returns.
  trace::RunArtifacts render() &&;
};

}  // namespace g10::engine
