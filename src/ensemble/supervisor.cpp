#include "ensemble/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/check.hpp"
#include "ensemble/journal.hpp"
#include "ensemble/worker.hpp"

namespace g10::ensemble {
namespace {

using Clock = std::chrono::steady_clock;

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Everything the supervisor tracks about one scenario's crash history.
struct ScenarioState {
  int attempts = 0;      ///< worker deaths charged to this scenario
  int crashes = 0;       ///< of those, hard crashes (vs wedge kills)
  bool wedged_last = false;
  std::string last_death;  ///< "killed by SIGSEGV" — ExitStatus::describe()
};

/// One worker slot: a shard and whatever process currently serves it.
struct Slot {
  std::size_t shard = 0;
  std::size_t pending = 0;  ///< pending scenarios at fleet start
  Subprocess child;
  int status_fd = -1;
  std::string buffer;  ///< partial status line carried across reads

  Clock::time_point last_heard;
  std::optional<std::uint64_t> current;  ///< last `start` without a `done`
  Clock::time_point current_since;

  enum class KillReason { kNone, kWedge, kShutdown };
  KillReason kill_reason = KillReason::kNone;
  bool term_sent = false;
  Clock::time_point sigkill_at;  ///< escalation deadline once term_sent

  bool progressed = false;  ///< any `done` since this spawn
  int idle_respawns = 0;    ///< consecutive spawns that died without progress
  double backoff_s = 0.0;   ///< next respawn delay (0 = start of ladder)
  bool waiting_respawn = false;
  Clock::time_point respawn_at;

  std::vector<std::uint64_t> defer;  ///< crashed keys, re-queued to the back
  bool done = false;       ///< shard finished (worker exited 0) or abandoned
  bool abandoned = false;  ///< hit the respawn cap with no progress
};

}  // namespace

SupervisorStats run_supervised(const ScenarioMatrix& matrix,
                               const SupervisorOptions& options) {
  G10_CHECK_MSG(!options.journal_path.empty(),
                "supervisor needs a journal path");
  G10_CHECK_MSG(options.jobs >= 1, "supervisor needs at least one job");
  G10_CHECK_MSG(static_cast<bool>(options.command),
                "supervisor needs a worker command builder");

  const std::vector<Scenario> scenarios = matrix.expand();
  const JournalReplay existing = read_journal(options.journal_path);
  G10_CHECK_MSG(options.resume || (existing.entries.empty() &&
                                   existing.dropped_lines == 0),
                "journal '" + options.journal_path +
                    "' already has entries; pass resume to continue it");

  // std::map (not unordered): the supervisor iterates these, and iteration
  // order must be deterministic.
  std::map<std::uint64_t, const Scenario*> by_key;
  std::set<std::uint64_t> done_keys;
  for (const Scenario& s : scenarios) by_key[s.hash()] = &s;
  for (const JournalEntry& entry : existing.entries)
    done_keys.insert(entry.key);

  SupervisorStats stats;
  std::map<std::uint64_t, ScenarioState> state;
  std::vector<Slot> slots(options.jobs);
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i].shard = i;
  for (const auto& [key, scenario] : by_key) {
    if (!done_keys.contains(key)) ++slots[key % options.jobs].pending;
  }

  const auto event = [&options](const std::string& message) {
    if (options.on_event) options.on_event(message);
  };

  // Opened lazily: most fleets never need the supervisor to journal anything
  // itself, and JournalWriter creation has side effects (creates the file).
  std::unique_ptr<JournalWriter> writer;

  // Journals a verdict for a scenario whose attempts/crash budget is spent.
  // The worker may have appended the entry and died before its `done`
  // message made it out, so re-check the journal first — double entries
  // would break resume byte-identity.
  const auto finalize = [&](std::uint64_t key, RunOutcome outcome,
                            const std::string& error) {
    const JournalReplay replay = read_journal(options.journal_path);
    for (const JournalEntry& entry : replay.entries) {
      if (entry.key == key) {
        done_keys.insert(key);
        return;
      }
    }
    const auto it = by_key.find(key);
    if (it == by_key.end()) return;  // a worker's lie about an unknown key
    JournalEntry entry;
    entry.key = key;
    entry.scenario = it->second->key();
    entry.outcome = outcome;
    entry.attempts = state[key].attempts;
    entry.error = error;
    if (!writer)
      writer = std::make_unique<JournalWriter>(options.journal_path);
    writer->append(entry);
    done_keys.insert(key);
    ++stats.finalized;
    if (outcome == RunOutcome::kSkipped) ++stats.poisoned;
    event("journaled " + std::string(outcome_name(outcome)) + " for '" +
          entry.scenario + "': " + error);
  };

  const auto spawn = [&](Slot& slot) {
    Pipe pipe;
    SpawnOptions spawn_options;
    spawn_options.limits = options.limits;
    // The worker writes status lines to fd 3; dup2 clears O_CLOEXEC on the
    // target, so only this child inherits this pipe's write end.
    spawn_options.dup_fds.push_back({pipe.write_fd(), 3});
    const std::vector<std::string> argv =
        options.command(slot.shard, 3, slot.defer);
    slot.child = Subprocess::spawn(argv, spawn_options);
    pipe.close_write();
    slot.status_fd = pipe.release_read();
    const int flags = ::fcntl(slot.status_fd, F_GETFL);
    G10_CHECK_MSG(flags >= 0 && ::fcntl(slot.status_fd, F_SETFL,
                                        flags | O_NONBLOCK) == 0,
                  "fcntl(O_NONBLOCK) on status pipe failed");
    slot.buffer.clear();
    slot.last_heard = Clock::now();
    slot.current.reset();
    slot.kill_reason = Slot::KillReason::kNone;
    slot.term_sent = false;
    slot.progressed = false;
    slot.waiting_respawn = false;
    ++stats.spawned;
    event("worker " + std::to_string(slot.shard) + " spawned (pid " +
          std::to_string(slot.child.pid()) + ", " +
          std::to_string(slot.defer.size()) + " deferred)");
  };

  bool shutting_down = false;

  const auto handle_status = [&](Slot& slot, const StatusEvent& ev) {
    slot.last_heard = Clock::now();
    switch (ev.kind) {
      case StatusEvent::Kind::kHeartbeat:
        break;
      case StatusEvent::Kind::kStart:
        slot.current = ev.key;
        slot.current_since = Clock::now();
        break;
      case StatusEvent::Kind::kDone:
        done_keys.insert(ev.key);
        if (slot.current == ev.key) slot.current.reset();
        slot.progressed = true;
        slot.idle_respawns = 0;
        slot.backoff_s = 0.0;  // progress resets the backoff ladder
        break;
    }
  };

  // Reaps a dead worker and classifies the death. A `start` without a
  // matching `done` makes the crash attributable: that scenario is charged
  // and either re-queued (deferred, backoff) or finalized when its budget
  // is spent.
  const auto handle_death = [&](Slot& slot) {
    ::close(slot.status_fd);
    slot.status_fd = -1;
    // EOF means the worker's last handle on the pipe is gone: it is
    // usually exiting. Give it kill_grace_s to finish, so a clean exit is
    // not mistaken for a kill; then SIGKILL the group, so grandchildren a
    // wedged run may have leaked cannot outlive their slot (orphan
    // reaping). The leader is only reaped after that: an exited leader
    // stays a zombie, holding its process group id and its exit status.
    slot.child.wait_exit(options.kill_grace_s);
    slot.child.kill(SIGKILL);
    const ExitStatus status = slot.child.wait();

    if (shutting_down) {
      slot.done = true;
      return;
    }
    if (status.success()) {
      slot.done = true;
      event("worker " + std::to_string(slot.shard) + " finished its shard");
      return;
    }

    const bool wedge = slot.kill_reason == Slot::KillReason::kWedge;
    if (wedge) {
      ++stats.wedges;
    } else {
      ++stats.crashes;
    }
    event("worker " + std::to_string(slot.shard) + " " + status.describe() +
          (wedge ? " (liveness escalation)" : "") +
          (slot.current ? " while running " + format_key(*slot.current)
                        : " while idle"));

    if (slot.current && done_keys.contains(*slot.current)) {
      // Crashed on a scenario that is already settled (journaled by a
      // sibling or finalized by us) — a sane worker would have skipped it.
      // Treat like an idle death so the respawn cap bounds the loop.
      slot.current.reset();
    }
    if (slot.current) {
      const std::uint64_t key = *slot.current;
      ScenarioState& sc = state[key];
      ++sc.attempts;
      if (!wedge) ++sc.crashes;
      sc.wedged_last = wedge;
      sc.last_death = status.describe();
      slot.idle_respawns = 0;
      if (sc.crashes >= options.crash_budget) {
        // Poisonous: it keeps killing workers; journal skipped and move on
        // rather than burning the rest of the attempt budget on corpses.
        finalize(key, RunOutcome::kSkipped,
                 "poisonous scenario: crashed " +
                     std::to_string(sc.crashes) + " worker(s), last " +
                     sc.last_death);
      } else if (sc.attempts >= options.max_attempts) {
        finalize(key,
                 wedge ? RunOutcome::kTimeout : RunOutcome::kRunFailed,
                 (wedge ? "worker wedged, " : "worker crashed, ") +
                     sc.last_death + " (attempt " +
                     std::to_string(sc.attempts) + "/" +
                     std::to_string(options.max_attempts) + ")");
      } else {
        // Re-queue behind the shard's healthy scenarios so a replacement
        // worker makes progress before retrying the suspect.
        if (std::find(slot.defer.begin(), slot.defer.end(), key) ==
            slot.defer.end()) {
          slot.defer.push_back(key);
        }
      }
    } else if (!slot.progressed) {
      // Died idle without ever finishing a scenario: nothing to charge.
      // A few of these in a row means the worker cannot even start (bad
      // binary, unsatisfiable rlimit) — abandon the shard instead of
      // fork-bombing.
      if (++slot.idle_respawns >= options.respawn_cap) {
        slot.done = true;
        slot.abandoned = true;
        ++stats.abandoned_shards;
        event("worker " + std::to_string(slot.shard) + " abandoned after " +
              std::to_string(slot.idle_respawns) +
              " respawns without progress; its scenarios stay missing");
        return;
      }
    }

    slot.backoff_s = slot.backoff_s <= 0.0
                         ? options.backoff_initial_s
                         : std::min(slot.backoff_s * options.backoff_factor,
                                    options.backoff_max_s);
    slot.respawn_at = Clock::now() + seconds(slot.backoff_s);
    slot.waiting_respawn = true;
  };

  // Drains everything currently readable from a slot's status pipe.
  // Returns false when the pipe hit EOF (worker death already handled).
  const auto drain = [&](Slot& slot) -> bool {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(slot.status_fd, chunk, sizeof(chunk));
      if (n > 0) {
        slot.buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t newline;
        while ((newline = slot.buffer.find('\n')) != std::string::npos) {
          const std::string line = slot.buffer.substr(0, newline);
          slot.buffer.erase(0, newline + 1);
          if (const auto ev = parse_status_line(line)) {
            handle_status(slot, *ev);
          }
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      handle_death(slot);  // EOF, or an unreadable pipe — same response
      return false;
    }
  };

  // Workers are only spawned for shards with pending work; an all-reused
  // resume spawns nothing and goes straight to returning.
  for (Slot& slot : slots) {
    if (slot.pending == 0) {
      slot.done = true;
    } else {
      spawn(slot);
    }
  }

  while (true) {
    if (!shutting_down && options.stop != nullptr &&
        options.stop->load(std::memory_order_acquire)) {
      shutting_down = true;
      event("shutdown requested: terminating workers");
      for (Slot& slot : slots) {
        if (slot.waiting_respawn) {
          slot.waiting_respawn = false;
          slot.done = true;
        }
        if (slot.status_fd >= 0 && slot.child.running()) {
          slot.child.kill(SIGTERM);
          slot.term_sent = true;
          slot.kill_reason = Slot::KillReason::kShutdown;
          slot.sigkill_at = Clock::now() + seconds(options.kill_grace_s);
        }
      }
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_slot;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].status_fd >= 0) {
        fds.push_back({slots[i].status_fd, POLLIN, 0});
        fd_slot.push_back(i);
      }
    }
    const bool any_respawn_pending =
        std::any_of(slots.begin(), slots.end(),
                    [](const Slot& s) { return s.waiting_respawn; });
    if (fds.empty() && !any_respawn_pending) break;

    if (fds.empty()) {
      ::poll(nullptr, 0, 50);  // backoff nap — only respawns are pending
    } else {
      const int rc =
          ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
      if (rc > 0) {
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (fds[i].revents != 0) drain(slots[fd_slot[i]]);
        }
      }
    }

    const Clock::time_point now = Clock::now();
    for (Slot& slot : slots) {
      if (slot.status_fd < 0) {
        if (slot.waiting_respawn && !shutting_down &&
            now >= slot.respawn_at) {
          spawn(slot);
        }
        continue;
      }
      if (slot.term_sent) {
        if (now >= slot.sigkill_at) {
          slot.child.kill(SIGKILL);
          slot.sigkill_at = now + seconds(3600.0);  // sent; EOF follows
        }
        continue;
      }
      if (shutting_down) continue;
      const bool silent =
          now - slot.last_heard > seconds(options.heartbeat_timeout_s);
      const bool stuck =
          options.wedge_timeout_s > 0.0 && slot.current.has_value() &&
          now - slot.current_since > seconds(options.wedge_timeout_s);
      if (silent || stuck) {
        event("worker " + std::to_string(slot.shard) +
              (silent ? " stopped heartbeating" : " wedged on a scenario") +
              "; escalating SIGTERM then SIGKILL");
        slot.child.kill(SIGTERM);
        slot.term_sent = true;
        slot.kill_reason = Slot::KillReason::kWedge;
        slot.sigkill_at = now + seconds(options.kill_grace_s);
      }
    }
  }

  stats.interrupted = shutting_down;
  return stats;
}

}  // namespace g10::ensemble
