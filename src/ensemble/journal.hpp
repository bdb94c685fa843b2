// Crash-safe run journal for the ensemble driver.
//
// Every completed run is appended as one JSON line keyed by its scenario
// hash, written with a single write(2) and fsync'd before the worker
// moves on. After a kill -9, `g10_ensemble --resume` replays the journal:
// fully-written lines are reusable verbatim, a torn final line (the write
// the crash interrupted) fails to parse and is dropped, and only the
// missing scenarios are recomputed. Because the per-run payload is fully
// deterministic (see run_report.hpp) and doubles are serialized with
// shortest-round-trip rendering, the aggregate computed from a resumed
// journal is byte-identical to an uninterrupted execution's.
//
// Line schema (one object per line):
//   {"key":"<hex scenario hash>","scenario":"<canonical key text>",
//    "outcome":"ok","attempts":1,"wall_ms":12.5,"error":"",
//    "report":{"makespan_s":1.25,
//              "phase_bottlenecks":[{"phase":"...","resource":"...","s":0.1}],
//              "issues":[{"label":"imbalance:GatherThread","impact":0.18}],
//              "sync_bug":true}}
//
// wall_ms and attempts are diagnostics: they are journaled for forensics
// but never enter the aggregate (they differ across re-executions).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "ensemble/run_report.hpp"

namespace g10::ensemble {

struct JournalEntry {
  std::uint64_t key = 0;  ///< Scenario::hash()
  std::string scenario;   ///< Scenario::key() — self-describing journal
  RunOutcome outcome = RunOutcome::kSkipped;
  int attempts = 0;
  double wall_ms = 0.0;
  std::string error;
  RunReport report;
};

/// 16-digit lowercase-hex rendering of a scenario key — the journal's and
/// the worker status protocol's shared key encoding.
std::string format_key(std::uint64_t key);
std::optional<std::uint64_t> parse_key(std::string_view text);

/// Serializes one journal line (no trailing newline).
std::string journal_line(const JournalEntry& entry);

/// Parses one journal line; nullopt (with a diagnostic) on damage.
std::optional<JournalEntry> parse_journal_line(std::string_view line,
                                               std::string* error = nullptr);

/// Append-only journal writer. Thread-safe, and several worker processes
/// append to the same file. Each append is one write(2) of the full line
/// followed by fsync(2), so a crash can tear at most the final line.
class JournalWriter {
 public:
  /// Opens (creating if needed) for append. Throws CheckError on failure.
  explicit JournalWriter(const std::string& path);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void append(const JournalEntry& entry);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  Mutex mutex_;
  int fd_ G10_GUARDED_BY(mutex_) = -1;
};

struct JournalReplay {
  std::vector<JournalEntry> entries;  ///< parseable lines, in file order
  std::size_t dropped_lines = 0;      ///< torn/corrupt lines skipped
};

/// Reads a journal back; a missing file is an empty replay, damaged lines
/// are counted and skipped (the interrupted write at the tail, forensics
/// edits). Never throws for data-dependent reasons.
JournalReplay read_journal(const std::string& path);

}  // namespace g10::ensemble
