// Text serialization of the trace record types.
//
// Format: one record per line, tab-separated, leading record-type token:
//   META   <key>  <value>
//   PHASE  <B|E>  <path>      <time_ns>  <machine>
//   BLOCK  <resource>  <path>  <begin_ns>  <end_ns>  <machine>
//   SAMPLE <resource>  <machine>  <time_ns>  <value>
// META records carry run provenance (e.g. the fault spec a run was injected
// with, key "faults"); tools like the trace linter cross-check trace content
// against them. Lines starting with '#' and blank lines are ignored. The parser reports
// malformed lines with their line number and the offending text; in
// recovery mode it skips bad lines and keeps going (storing up to
// kMaxStoredParseErrors diagnostics) instead of stopping at the first —
// real logs from crashed workers are routinely truncated or corrupted.
//
// parse_log_nodes is the in-memory core, and it reads straight into a
// NodeLog (trace/node_log.hpp): the input is split into newline-aligned
// chunks parsed and validated concurrently (string_view fields +
// from_chars, no per-line string or stream allocation; a filter drops
// records here), then one serial merge in chunk order interns each kept
// record's path into the log's one PathIndex, so node ids follow first
// appearance at every thread count. The merged result — events, nodes,
// error list, and every line number — is identical to a line-by-line
// serial parse at any thread count; strict (non-recover) parses stop at
// the same first bad line. parse_log_text is its rendering as records.
// Files reach it through TraceReader (trace/trace_reader.hpp), the one way
// a trace file becomes a node log (read_nodes) or records (read).
#pragma once

#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/node_log.hpp"
#include "trace/records.hpp"

namespace g10::trace {

/// Writes `log` as text: the header, the META records, then the phase
/// events, blocking events and samples in order, each path appended
/// straight from the log's PathIndex.
void write_log(std::ostream& os, const NodeLog& log);

/// The records' adapter: write_log of their intern_events, with `samples`
/// and `meta`.
void write_log(std::ostream& os,
               const std::vector<PhaseEventRecord>& phase_events,
               const std::vector<BlockingEventRecord>& blocking_events,
               const std::vector<MonitoringSampleRecord>& samples,
               const std::vector<LogMeta>& meta = {});

struct ParsedLog {
  std::vector<LogMeta> meta;
  std::vector<PhaseEventRecord> phase_events;
  std::vector<BlockingEventRecord> blocking_events;
  std::vector<MonitoringSampleRecord> samples;

  /// Value of the first META record with `key`, if any.
  std::optional<std::string> meta_value(std::string_view key) const;
};

struct ParseError {
  std::size_t line_number = 0;
  std::string message;
  std::string line;  ///< the offending line's text (trimmed)
};

struct ParseOptions {
  /// When true, malformed lines are skipped (and collected as errors) and
  /// parsing continues; when false, parsing stops at the first bad line.
  bool recover = false;
  /// Parse concurrency. 0 = auto (G10_THREADS env, else hardware threads);
  /// 1 = serial. Results are identical at every setting.
  int threads = 0;
  /// Inputs are split into newline-aligned chunks of at least this many
  /// bytes, one parse task each. Small inputs therefore parse serially;
  /// tests lower this to force multi-chunk parses on tiny logs.
  std::size_t min_chunk_bytes = 1 << 20;
};

/// Cap on stored ParseError entries, so a corrupt multi-GB log cannot
/// balloon the error list; error_count still counts every bad line.
inline constexpr std::size_t kMaxStoredParseErrors = 64;

/// The errors of a parse or a trace read, in input order.
struct ReadErrors {
  /// The first kMaxStoredParseErrors errors.
  std::vector<ParseError> errors;
  /// Total number of malformed lines seen, including those beyond the cap.
  std::size_t error_count = 0;

  bool ok() const { return error_count == 0; }
};

/// What a parse or a trace read returns: the log, as a NodeLog or as
/// records, and its errors. (A tiny expected<>-style result to stay
/// dependency-free.)
template <typename Log>
struct ReadResult : ReadErrors {
  Log log;
};
using NodeParseResult = ReadResult<NodeLog>;
using ParseResult = ReadResult<ParsedLog>;

/// Parses an in-memory log into a NodeLog, keeping the records `filter`
/// matches (the zero-copy core: record fields are sliced out of `text`
/// with string_views, chunks parse concurrently, one merge interns).
NodeParseResult parse_log_nodes(std::string_view text,
                                const ParseOptions& options = {},
                                const TraceFilter& filter = {});

/// parse_log_nodes rendered as records.
ParseResult parse_log_text(std::string_view text,
                           const ParseOptions& options = {});

/// The records a NodeLog names, in its order.
ParsedLog render_log(const NodeLog& log);
/// render_log of a read's log, with its errors.
ParseResult render_result(NodeParseResult&& nodes);

/// The interning adapter for a whole log: intern_events of its records,
/// with its meta and samples.
NodeLog intern_log(const ParsedLog& log);

}  // namespace g10::trace
