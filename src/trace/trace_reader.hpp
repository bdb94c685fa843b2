// Format-independent trace ingestion: text logs and `.g10t` binary traces
// behind one reader interface, with seek-by-block filtering (DESIGN.md §16).
//
// TraceReader::open() is the one way a trace file becomes a node log or
// records. It takes the file's bytes through MappedFile (mapped when it is
// a regular file, read to EOF when it is a pipe, a FIFO or a process
// substitution), sniffs them (the .g10t magic wins over any extension) and
// returns the matching implementation. Both read straight into a NodeLog
// (trace/node_log.hpp) — fixed-size events over one per-trace PathIndex —
// through one read_nodes() core each; read() is its rendering as records.
//
//  - Text: the bytes are handed to the chunked zero-copy parser
//    (parse_log_nodes): chunks validate and filter their lines in
//    parallel, and one serial merge in chunk order interns the kept
//    records' paths.
//  - Binary: only the header, symbol table, META
//    section, and block index are touched up front. read_nodes() walks the
//    index, skips blocks whose (machine range, time range, path-type bloom)
//    cannot match the filter, decodes and filters the rest in parallel
//    (each result placed by its block's position), and merges them in
//    index order, interning the dictionary entries the kept records name.
//    Nothing decoded outlives the read, so every read decodes afresh.
//
// Node ids follow first appearance among the kept records (phase events,
// then blocking events), so a text log and its conversion read into the
// same nodes at every thread count. Both implementations report errors
// the way the text parser does: corrupt binary blocks surface as
// ParseError entries (with the block ordinal in the message), honoring
// recover/strict semantics — a strict read stops at the first corrupt
// block, a recovering read skips it and keeps going. An unfiltered read of
// a converted trace yields records byte-identical (through write_log) to
// parsing the original text.
//
// Filter semantics (both readers apply TraceFilter::keeps_phase and
// keeps_blocking, so they are identical for both formats):
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

/// The text parser's options, whose recover semantics also govern corrupt
/// binary blocks (recover=true skips damage and keeps going, false stops at
/// the first problem) and whose thread count also caps block decoding.
using TraceReadOptions = ParseOptions;

/// Block counts are summed over every read of the reader.
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

  /// Reads every record matching `filter` into a node log, in stream
  /// order. Repeated calls are identical.
  virtual NodeParseResult read_nodes(const TraceFilter& filter = {}) = 0;

  /// read_nodes rendered as records.
  ParseResult read(const TraceFilter& filter = {}) {
    return render_result(read_nodes(filter));
  }

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

/// One-call convenience: open + read_nodes. A failed open is reported as
/// one ParseError with line_number 0.
NodeParseResult read_trace_nodes(const std::string& path,
                                 const TraceReadOptions& options = {},
                                 const TraceFilter& filter = {});

/// read_trace_nodes rendered as records.
ParseResult read_trace_file(const std::string& path,
                            const TraceReadOptions& options = {},
                            const TraceFilter& filter = {});

}  // namespace g10::trace
