// Format-independent trace ingestion: text logs and `.g10t` binary traces
// behind one reader interface, with seek-by-block filtering (DESIGN.md §16).
//
// TraceReader::open() is the one way a trace file becomes records. It takes
// the file's bytes through MappedFile (mapped when it is a regular file,
// read to EOF when it is a pipe, a FIFO or a process substitution), sniffs
// them (the .g10t magic wins over any extension) and returns the matching
// implementation:
//
//  - Text: the bytes are handed to the chunked zero-copy parser
//    (parse_log_text); filters are applied per record after the parse.
//  - Binary: only the header, symbol table, META
//    section, and block index are touched up front. read() walks the index,
//    skips blocks whose (machine range, time range, path-type bloom) cannot
//    match the filter, decodes the rest in parallel (each result placed by
//    its block's position), and moves their records out in index order.
//    Nothing decoded outlives the read, so every read() decodes afresh.
//
// Both implementations return the same ParseResult shape the text parser
// produces: corrupt binary blocks surface as ParseError entries (with the
// block ordinal in the message), honoring recover/strict semantics — a
// strict read stops at the first corrupt block, a recovering read skips it
// and keeps going. An unfiltered read of a converted trace yields records
// byte-identical (through write_log) to parsing the original text.
//
// Filter semantics (identical for both formats, enforced by tests):
//  - machines: record kept when its machine is listed or is kGlobalMachine
//    (global phases carry the tree structure every analysis needs);
//  - phase_types: phase/blocking records kept when any path element's type
//    is listed (the requested subtrees and everything below them);
//    ancestor_types additionally keep paths whose LAST element's type is
//    listed (the enclosing chain above a requested subtree, without
//    admitting sibling subtrees). Monitoring samples are unaffected.
//    g10_analyze fills ancestor_types from the model's parent links so the
//    filtered slice stays an analyzable tree.
//  - time window: phase events and samples kept when time is inside
//    [time_min, time_max]; blocking events when [begin, end] overlaps it.
//    A time-sliced subset usually truncates phases mid-flight, so analyze
//    such extracts with --lenient.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"

namespace g10::trace {

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
    return machines.empty() && phase_types.empty() && time_min == 0 &&
           time_max == std::numeric_limits<TimeNs>::max();
  }

  bool matches_machine(MachineId machine) const;
  bool matches_path(const PhasePath& path) const;
  bool matches(const PhaseEventRecord& rec) const;
  bool matches(const BlockingEventRecord& rec) const;
  bool matches(const MonitoringSampleRecord& rec) const;
};

/// The text parser's options, whose recover semantics also govern corrupt
/// binary blocks (recover=true skips damage and keeps going, false stops at
/// the first problem) and whose thread count also caps block decoding.
using TraceReadOptions = ParseOptions;

/// Block counts are summed over every read() of the reader.
struct TraceReadStats {
  bool binary = false;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_read = 0;     ///< matched the filter
  std::uint64_t blocks_skipped = 0;  ///< rejected via the index alone
  std::uint64_t blocks_decoded = 0;  ///< payloads that decoded cleanly
  std::size_t bytes_mapped = 0;
};

class TraceReader {
 public:
  virtual ~TraceReader() = default;

  /// Reads every record matching `filter`, in stream order. Repeated calls
  /// are byte-identical.
  virtual ParseResult read(const TraceFilter& filter = {}) = 0;

  virtual TraceReadStats stats() const = 0;
  virtual bool is_binary() const = 0;

  /// Binary only: the parsed file structure (header, symbols, index);
  /// nullptr for text readers.
  virtual const G10tStructure* structure() const { return nullptr; }

  struct OpenResult {
    std::unique_ptr<TraceReader> reader;
    std::optional<std::string> error;
    bool ok() const { return reader != nullptr; }
  };

  /// Opens `path` in the format its bytes name (the .g10t magic, never the
  /// file's name). Unreadable files, truncated or corrupt `.g10t`
  /// headers/sections all come back as `error` — never an assert or
  /// exception.
  static OpenResult open(const std::string& path,
                         const TraceReadOptions& options = {});
};

/// One-call convenience: open + read. A failed open is reported as one
/// ParseError with line_number 0.
ParseResult read_trace_file(const std::string& path,
                            const TraceReadOptions& options = {},
                            const TraceFilter& filter = {});

}  // namespace g10::trace
