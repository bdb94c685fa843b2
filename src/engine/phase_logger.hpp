// Phase/blocking log emission shared by both simulated engines.
//
// Tracks open phases so unbalanced begin/end pairs are caught at the source
// (inside the engine) instead of during later analysis.
//
// This is the hot edge of trace generation, so the log is stored in the
// trace readers' compact form from the start: every distinct phase path
// becomes one node of a per-run PathIndex, and each event is a fixed-size
// record naming its node (trace::PhaseEvent, 24 bytes, and
// trace::BlockingEvent, 32, whose resource is numbered per run in first
// use), kept in fixed blocks of kBlockEvents. BEGIN and END of one instance
// share a node, and so does a path begun again after abandon(). Open-phase
// tracking is a begin time per node. A run ends with one hand-over,
// take_log(), which moves the events into a trace::NodeLog block by block,
// freeing each block as it goes: what g10_run writes, the determinism
// fold reads and the trace build adopts, with nothing rendered on the way.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
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

  /// Hands the run's log over as a NodeLog and leaves the logger empty and
  /// reusable. The logger must have no open phases. Nodes are numbered the
  /// way a reader of the written log numbers them (NodeLog's rule: phase
  /// events' paths first, then blocking events'), so a path blocked on
  /// before its BEGIN is renumbered here.
  trace::NodeLog take_log();

  /// The path table the stored events name.
  const trace::PathIndex& paths() const { return paths_; }

  /// Events per storage block.
  static constexpr std::size_t kBlockEvents = 4096;

 private:
  template <typename Event>
  using Blocks = std::vector<std::vector<Event>>;

  static constexpr TimeNs kNotOpen = std::numeric_limits<TimeNs>::min();

  /// Node of `path` when it is open, else kNoNode.
  trace::PathIndex::NodeId open_node(const trace::PathRef& path) const;

  /// Mutable because a lookup (find) moves the index's prefix memo.
  mutable trace::PathIndex paths_;
  /// Begin time of each node's open instance, kNotOpen when closed.
  std::vector<TimeNs> open_;
  std::size_t open_count_ = 0;
  Blocks<trace::PhaseEvent> phase_events_;
  Blocks<trace::BlockingEvent> blocking_events_;
  trace::ResourceNumbering resources_;
};

/// An engine run with its log still in the logger: every other artifact is
/// in `artifacts`, whose record vectors are empty.
struct LoggedRun {
  PhaseLogger log;
  trace::RunArtifacts artifacts;

  /// The artifacts with the log rendered as records (trace::render_log of
  /// the hand-over): what Engine::run() returns.
  trace::RunArtifacts render() &&;
};

}  // namespace g10::engine
