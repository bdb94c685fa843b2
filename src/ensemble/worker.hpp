// Worker side of the supervisor/worker protocol (DESIGN.md §15).
//
// A worker process talks to its supervisor over a single inherited pipe fd
// with a newline-delimited text protocol; every message is far below
// PIPE_BUF, so concurrent writes from the worker's main thread (start/done)
// and its heartbeat thread never interleave mid-line:
//
//   hb                       liveness heartbeat (every interval)
//   start <hex16-key>        about to attempt this scenario
//   done <hex16-key> <outcome>   scenario journaled with this outcome
//
// `start` is what makes crash containment attributable: when the process
// dies between a `start` and its `done`, the supervisor knows exactly which
// scenario was in flight and charges the crash to it.
//
// A worker keeps SIGTERM's default disposition, so the supervisor's
// escalation and shutdown kill it outright; a worker whose supervisor dies
// is killed by the kernel (PR_SET_PDEATHSIG, common/subprocess.hpp). The
// journal is the only state either kill can leave behind, and a torn
// final line is dropped on replay.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "ensemble/run_report.hpp"

namespace g10::ensemble {

struct StatusEvent {
  enum class Kind { kHeartbeat, kStart, kDone };
  Kind kind = Kind::kHeartbeat;
  std::uint64_t key = 0;                    ///< start/done
  RunOutcome outcome = RunOutcome::kSkipped; ///< done only
};

/// One protocol line, no trailing newline.
std::string format_status(const StatusEvent& event);
/// Parses one protocol line; nullopt on anything malformed (a supervisor
/// never trusts a crashing worker's last gasp).
std::optional<StatusEvent> parse_status_line(std::string_view line);

/// Worker-side writer for the status pipe. Thread-safe by construction:
/// each send is a single write(2) of one short line. Never throws.
class StatusChannel {
 public:
  /// fd < 0 disables the channel (a worker run by hand, not a supervisor).
  /// Takes ownership of the fd.
  explicit StatusChannel(int fd);
  ~StatusChannel();

  StatusChannel(const StatusChannel&) = delete;
  StatusChannel& operator=(const StatusChannel&) = delete;

  void send(const StatusEvent& event);
  void heartbeat() { send({StatusEvent::Kind::kHeartbeat, 0, {}}); }
  void start(std::uint64_t key) {
    send({StatusEvent::Kind::kStart, key, {}});
  }
  void done(std::uint64_t key, RunOutcome outcome) {
    send({StatusEvent::Kind::kDone, key, outcome});
  }

  bool enabled() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Background liveness beacon: sends `hb` on the channel every interval
/// until destroyed.
class Heartbeat {
 public:
  Heartbeat(StatusChannel* channel, double interval_seconds);
  ~Heartbeat();

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

 private:
  void loop(double interval_seconds);

  StatusChannel* channel_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace g10::ensemble
