#include "trace/trace_reader.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/thread_pool.hpp"
#include "trace/mapped_file.hpp"

namespace g10::trace {

namespace {

// --- text ---------------------------------------------------------------

class TextTraceReader final : public TraceReader {
 public:
  TextTraceReader(MappedFile file, TraceReadOptions options)
      : file_(std::move(file)), options_(std::move(options)) {}

  NodeParseResult read_nodes(const TraceFilter& filter) override {
    return parse_log_nodes(file_.bytes(), options_, filter);
  }

  TraceReadStats stats() const override {
    TraceReadStats out;
    out.binary = false;
    out.bytes_mapped = file_.size();
    return out;
  }

  bool is_binary() const override { return false; }

 private:
  MappedFile file_;
  TraceReadOptions options_;
};

// --- binary -------------------------------------------------------------

struct DecodeOutcome {
  NodeBlock block;
  std::string error;  ///< empty = success
};

/// Drops the records of `block` that `filter` does not match.
void filter_block(const TraceFilter& filter, NodeBlock& block) {
  if (filter.empty()) return;
  std::vector<bool> path_matches(block.entry_count());
  for (std::size_t i = 0; i < path_matches.size(); ++i) {
    path_matches[i] = filter.matches_path(block.entry(i));
  }
  const auto kept_path = [&path_matches](PathIndex::NodeId entry) {
    return path_matches[static_cast<std::size_t>(entry)];
  };
  std::erase_if(block.phase_events, [&](const PhaseEvent& event) {
    return !filter.keeps_phase(event.time, event.machine,
                               kept_path(event.node));
  });
  std::erase_if(block.blocking_events, [&](const BlockingEvent& event) {
    return !filter.keeps_blocking(event.begin, event.end, event.machine,
                                  kept_path(event.node));
  });
  std::erase_if(block.samples, [&](const MonitoringSampleRecord& rec) {
    return !filter.matches(rec);
  });
}

/// Interns the dictionary entries a block's kept records name into
/// `paths`, each on its first use, and points the records at the nodes.
class EntryNodes {
 public:
  EntryNodes(PathIndex& paths, const NodeBlock& block)
      : paths_(paths), block_(block), nodes_(block.entry_count(),
                                             PathIndex::kNoNode) {}

  PathIndex::NodeId operator()(PathIndex::NodeId entry) {
    PathIndex::NodeId& node = nodes_[static_cast<std::size_t>(entry)];
    if (node == PathIndex::kNoNode) {
      node = paths_.insert(block_.entry(static_cast<std::size_t>(entry)));
    }
    return node;
  }

 private:
  PathIndex& paths_;
  const NodeBlock& block_;
  std::vector<PathIndex::NodeId> nodes_;
};

class BinaryTraceReader final : public TraceReader {
 public:
  BinaryTraceReader(MappedFile file, G10tStructure structure,
                    TraceReadOptions options)
      : file_(std::move(file)),
        structure_(std::move(structure)),
        options_(std::move(options)) {}

  NodeParseResult read_nodes(const TraceFilter& filter) override;

  TraceReadStats stats() const override {
    TraceReadStats out;
    out.binary = true;
    out.blocks_total = structure_.index.size();
    out.blocks_read = blocks_read_;
    out.blocks_skipped = blocks_skipped_;
    out.blocks_decoded = blocks_decoded_;
    out.bytes_mapped = file_.size();
    return out;
  }

  bool is_binary() const override { return true; }
  const G10tStructure* structure() const override { return &structure_; }

 private:
  /// Do filter + index entry admit any record overlap? Conservative: a
  /// true may still yield zero records, a false never loses one.
  bool block_matches(const TraceFilter& filter,
                     const std::vector<std::uint64_t>& filter_blooms,
                     const IndexEntry& entry) const {
    if (entry.record_count == 0) return false;
    // Without a window every record passes, whatever its time (a decoded
    // time may be negative).
    if (filter.time_window() &&
        (entry.time_max < filter.time_min ||
         entry.time_min > filter.time_max)) {
      return false;
    }
    if (!filter.machines.empty()) {
      bool any = entry.machine_min <= kGlobalMachine &&
                 kGlobalMachine <= entry.machine_max;
      for (const MachineId machine : filter.machines) {
        if (any) break;
        any = entry.machine_min <= machine && machine <= entry.machine_max;
      }
      if (!any) return false;
    }
    if (!filter_blooms.empty() && entry.kind != BlockKind::kSample) {
      bool any = false;
      for (const std::uint64_t bit : filter_blooms) {
        if ((entry.name_bloom & bit) != 0) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    return true;
  }

  DecodeOutcome decode_one(std::size_t ordinal,
                           const TraceFilter& filter) const {
    const IndexEntry& entry = structure_.index[ordinal];
    DecodeOutcome outcome;
    const std::string_view payload =
        file_.bytes().substr(entry.offset, entry.encoded_size);
    try {
      if (auto error = decode_node_block(payload, entry, structure_.symbols,
                                         outcome.block)) {
        outcome.error = "block " + std::to_string(ordinal) + ": " + *error;
      } else {
        filter_block(filter, outcome.block);
      }
    } catch (const std::exception& e) {
      outcome.error =
          "block " + std::to_string(ordinal) + ": decode failed: " + e.what();
    }
    if (!outcome.error.empty()) outcome.block = {};  // drop a partial decode
    return outcome;
  }

  MappedFile file_;
  G10tStructure structure_;
  TraceReadOptions options_;
  std::uint64_t blocks_read_ = 0;
  std::uint64_t blocks_skipped_ = 0;
  std::uint64_t blocks_decoded_ = 0;
};

NodeParseResult BinaryTraceReader::read_nodes(const TraceFilter& filter) {
  NodeParseResult result;
  NodeLog& log = result.log;
  log.meta = structure_.meta;

  // Seek: reject blocks via the index alone.
  std::vector<std::uint64_t> filter_blooms;
  if (!filter.phase_types.empty()) {
    filter_blooms.reserve(filter.phase_types.size() +
                          filter.ancestor_types.size());
    for (const std::string& type : filter.phase_types) {
      filter_blooms.push_back(name_bloom_bit(type));
    }
    for (const std::string& type : filter.ancestor_types) {
      filter_blooms.push_back(name_bloom_bit(type));
    }
  }
  std::vector<std::size_t> selected;
  selected.reserve(structure_.index.size());
  for (std::size_t i = 0; i < structure_.index.size(); ++i) {
    if (block_matches(filter, filter_blooms, structure_.index[i])) {
      selected.push_back(i);
    }
  }
  blocks_read_ += selected.size();
  blocks_skipped_ += structure_.index.size() - selected.size();

  // Decode and filter every selected block, each result placed by its
  // position, the way parse_log_nodes fans out text chunks.
  std::vector<DecodeOutcome> decoded(selected.size());
  ThreadPool(static_cast<std::size_t>(std::max(options_.threads, 0)))
      .parallel_for(selected.size(), 1, [&](std::size_t k) {
        decoded[k] = decode_one(selected[k], filter);
      });

  // A strict read stops at the first corrupt block.
  std::size_t merged = decoded.size();
  std::size_t phase_total = 0;
  std::size_t blocking_total = 0;
  std::size_t sample_total = 0;
  for (std::size_t k = 0; k < decoded.size(); ++k) {
    const DecodeOutcome& outcome = decoded[k];
    if (outcome.error.empty()) ++blocks_decoded_;
    if (k >= merged) continue;
    phase_total += outcome.block.phase_events.size();
    blocking_total += outcome.block.blocking_events.size();
    sample_total += outcome.block.samples.size();
    if (!outcome.error.empty() && !options_.recover) merged = k + 1;
  }
  log.phase_events.reserve(phase_total);
  log.blocking_events.reserve(blocking_total);
  log.samples.reserve(sample_total);

  // Merge in index order, phase events' paths interned first (blocks hold
  // one kind each, so each kind keeps its stream order), freeing each
  // block once merged.
  for (std::size_t k = 0; k < merged; ++k) {
    DecodeOutcome& outcome = decoded[k];
    if (!outcome.error.empty()) {
      // Corrupt block: 1-based block ordinal in the "line" slot so strict
      // and lenient consumers treat it like a damaged line, while
      // file-level failures keep line 0.
      ++result.error_count;
      if (result.errors.size() < kMaxStoredParseErrors) {
        result.errors.push_back(
            {selected[k] + 1, std::move(outcome.error), ""});
      }
      continue;
    }
    NodeBlock& block = outcome.block;
    EntryNodes node(log.paths, block);
    for (PhaseEvent event : block.phase_events) {
      event.node = node(event.node);
      log.phase_events.push_back(event);
    }
    std::move(block.samples.begin(), block.samples.end(),
              std::back_inserter(log.samples));
    if (block.blocking_events.empty()) block = {};
  }
  ResourceNumbering resource;
  std::vector<std::uint32_t> resource_of(structure_.symbols.size(),
                                         ~std::uint32_t{0});
  for (std::size_t k = 0; k < merged; ++k) {
    NodeBlock& block = decoded[k].block;  // empty when corrupt (decode_one)
    if (block.blocking_events.empty()) continue;
    EntryNodes node(log.paths, block);
    for (BlockingEvent event : block.blocking_events) {
      event.node = node(event.node);
      std::uint32_t& id = resource_of[event.resource];
      if (id == ~std::uint32_t{0}) {
        id = resource(structure_.symbols[event.resource]);
      }
      event.resource = id;
      log.blocking_events.push_back(event);
    }
    block = {};
  }
  log.resources = resource.take_names();
  return result;
}

}  // namespace

TraceReader::OpenResult TraceReader::open(const std::string& path,
                                          const TraceReadOptions& options) {
  OpenResult out;
  MappedFile file;
  if (auto error = MappedFile::open(path, file)) {
    out.error = std::move(*error);
    return out;
  }

  if (!looks_like_g10t(file.bytes())) {
    out.reader = std::make_unique<TextTraceReader>(std::move(file), options);
    return out;
  }

  G10tStructureParse structure = parse_g10t_structure(file.bytes());
  if (!structure.ok()) {
    out.error = path + ": " + *structure.error;
    return out;
  }
  out.reader = std::make_unique<BinaryTraceReader>(
      std::move(file), std::move(structure.structure), options);
  return out;
}

NodeParseResult read_trace_nodes(const std::string& path,
                                 const TraceReadOptions& options,
                                 const TraceFilter& filter) {
  TraceReader::OpenResult opened = TraceReader::open(path, options);
  if (!opened.ok()) {
    NodeParseResult result;
    result.errors.push_back({0, std::move(*opened.error), ""});
    result.error_count = 1;
    return result;
  }
  return opened.reader->read_nodes(filter);
}

ParseResult read_trace_file(const std::string& path,
                            const TraceReadOptions& options,
                            const TraceFilter& filter) {
  return render_result(read_trace_nodes(path, options, filter));
}

}  // namespace g10::trace
