// Writing and block-level decoding of `.g10t` files (format in
// g10t_format.hpp, demand-paged reading in trace_reader.hpp).
//
// The writer takes a whole NodeLog (the phase logger's hand-over or a read
// trace) and cuts each kind of record into blocks; the block decoder turns
// one encoded payload back into a node-form block, whose records name its
// path dictionary's entries (decode_block renders it as records). Both are
// lossless for every value the record types can hold: timestamps and
// machine ids are zigzag-coded (negative values survive even though the
// text parser rejects them), and sample values keep their exact IEEE-754
// bits, so re-rendering a decoded trace through write_log() reproduces the
// original text log byte for byte.
//
// Every decode path is bounds-checked and returns an error string on
// corruption — a damaged file must never assert or read out of bounds
// (the reader is routinely pointed at truncated files from crashed runs).
#pragma once

#include <cstddef>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/g10t_format.hpp"
#include "trace/log_io.hpp"

namespace g10::trace {

struct G10tWriteOptions {
  /// Records per block; the seek granularity. Smaller blocks mean finer
  /// filtering but more index entries and worse compression.
  std::size_t block_records = kG10tDefaultBlockRecords;
};

/// Serializes `log` as a complete `.g10t` stream: each kind's records cut
/// into blocks of `block_records` in order (phase events, blocking events,
/// samples), symbols numbered in first use. A block's path dictionary is
/// keyed on the log's node ids, and each path type and resource becomes a
/// file symbol once.
void write_g10t(std::ostream& os, const NodeLog& log,
                const G10tWriteOptions& options = {});

/// write_g10t to a file; on failure returns false and fills `error`.
bool write_g10t_file(const std::string& path, const NodeLog& log,
                     const G10tWriteOptions& options, std::string* error);

/// The records' adapters: write_g10t of `log`'s intern_log.
void write_g10t(std::ostream& os, const ParsedLog& log,
                const G10tWriteOptions& options = {});
bool write_g10t_file(const std::string& path, const ParsedLog& log,
                     const G10tWriteOptions& options, std::string* error);

/// The sniff used by tools and the reader: does this byte prefix (or file)
/// start with the .g10t magic?
bool looks_like_g10t(std::string_view prefix);

/// Parsed file structure: header, persisted symbol table, META records, and
/// the block index — everything except block payloads, which are decoded on
/// demand (decode_block) so a reader touches only the blocks it needs.
struct G10tStructure {
  FileHeader header;
  std::vector<std::string> symbols;
  std::vector<LogMeta> meta;
  std::vector<IndexEntry> index;
};

struct G10tStructureParse {
  G10tStructure structure;
  std::optional<std::string> error;
  bool ok() const { return !error.has_value(); }
};

/// Parses header + sections from the whole file's bytes (typically an mmap
/// view). Never throws; corruption comes back as `error`.
G10tStructureParse parse_g10t_structure(std::string_view bytes);

/// One decoded block in node form: the block's path dictionary as tokens
/// over the file's symbols (the views point into `symbols`), and its
/// records, each phase and blocking event naming its dictionary entry in
/// `node` and each blocking event its resource's file symbol in `resource`.
/// A reader interns the entries its kept records name into its NodeLog.
/// Only the vectors of the block's kind are populated.
struct NodeBlock {
  std::vector<PathToken> tokens;
  /// Entry i's tokens are [entries[i], entries[i + 1]).
  std::vector<std::size_t> entries;
  std::vector<PhaseEvent> phase_events;
  std::vector<BlockingEvent> blocking_events;
  std::vector<MonitoringSampleRecord> samples;

  std::size_t entry_count() const {
    return entries.empty() ? 0 : entries.size() - 1;
  }
  std::span<const PathToken> entry(std::size_t i) const {
    return std::span<const PathToken>(tokens).subspan(
        entries[i], entries[i + 1] - entries[i]);
  }
};

/// Decodes the payload of `entry` (sliced from the file by the caller).
/// Verifies the payload hash first, then every column; returns an error
/// message on any corruption, nullopt on success.
std::optional<std::string> decode_node_block(
    std::string_view payload, const IndexEntry& entry,
    const std::vector<std::string>& symbols, NodeBlock& out);

/// One decoded block's records (only the vector matching the block's kind
/// is populated).
struct DecodedBlock {
  std::vector<PhaseEventRecord> phase_events;
  std::vector<BlockingEventRecord> blocking_events;
  std::vector<MonitoringSampleRecord> samples;
};

/// decode_node_block rendered as records.
std::optional<std::string> decode_block(std::string_view payload,
                                        const IndexEntry& entry,
                                        const std::vector<std::string>& symbols,
                                        DecodedBlock& out);

}  // namespace g10::trace
