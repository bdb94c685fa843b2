// Phase/blocking log emission shared by both simulated engines.
//
// Tracks open phases so unbalanced begin/end pairs are caught at the source
// (inside the engine) instead of during later analysis.
//
// This is the hot edge of trace generation, so everything is interned: the
// engines pass PathRef (inline (symbol, index) pairs with a precomputed
// hash), open-phase tracking keys on that hash, and records are stored in
// interned form, in fixed-size blocks of kBlockEvents. The string-typed
// PhaseEventRecord/BlockingEventRecord forms are rendered exactly once, at
// take_*() time, in emission order — which is what keeps logs
// byte-identical to the pre-interning ones. Each block is freed as soon as
// it is rendered, so a run's log is never held in both forms at once.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
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

  /// Renders and moves the accumulated records out, freeing each storage
  /// block once it is rendered; the logger must have no open phases.
  /// Records appear in emission order, and the logger is left empty.
  std::vector<trace::PhaseEventRecord> take_phase_events();
  std::vector<trace::BlockingEventRecord> take_blocking_events();

  /// Interned events per storage block.
  static constexpr std::size_t kBlockEvents = 4096;

 private:
  struct InternedPhaseEvent {
    trace::PhaseEventRecord::Kind kind;
    trace::PathRef path;
    TimeNs time;
    trace::MachineId machine;
  };
  struct InternedBlockingEvent {
    trace::Symbol resource;
    trace::PathRef path;
    TimeNs begin;
    TimeNs end;
    trace::MachineId machine;
  };

  template <typename Event>
  using Blocks = std::vector<std::vector<Event>>;

  Blocks<InternedPhaseEvent> phase_events_;
  Blocks<InternedBlockingEvent> blocking_events_;
  std::unordered_map<trace::PathRef, TimeNs, trace::PathRefHash>
      open_;  // path -> begin time
};

}  // namespace g10::engine
