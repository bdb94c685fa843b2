#include "trace/trace_reader.hpp"

#include <algorithm>
#include <utility>

#include "common/thread_pool.hpp"
#include "trace/mapped_file.hpp"

namespace g10::trace {

namespace {

bool time_window_active(const TraceFilter& f) {
  return f.time_min != 0 || f.time_max != std::numeric_limits<TimeNs>::max();
}

}  // namespace

bool TraceFilter::matches_machine(MachineId machine) const {
  if (machines.empty() || machine == kGlobalMachine) return true;
  return std::find(machines.begin(), machines.end(), machine) !=
         machines.end();
}

bool TraceFilter::matches_path(const PhasePath& path) const {
  if (phase_types.empty()) return true;
  for (const PathElement& element : path.elements) {
    for (const std::string& type : phase_types) {
      if (element.type == type) return true;
    }
  }
  // The enclosing chain: only the innermost element may be an ancestor
  // type, otherwise sibling subtrees under a shared ancestor would leak in.
  if (!path.elements.empty()) {
    const std::string& last = path.elements.back().type;
    for (const std::string& type : ancestor_types) {
      if (last == type) return true;
    }
  }
  return false;
}

bool TraceFilter::matches(const PhaseEventRecord& rec) const {
  return rec.time >= time_min && rec.time <= time_max &&
         matches_machine(rec.machine) && matches_path(rec.path);
}

bool TraceFilter::matches(const BlockingEventRecord& rec) const {
  return rec.end >= time_min && rec.begin <= time_max &&
         matches_machine(rec.machine) && matches_path(rec.path);
}

bool TraceFilter::matches(const MonitoringSampleRecord& rec) const {
  return rec.time >= time_min && rec.time <= time_max &&
         matches_machine(rec.machine);
}

namespace {

void filter_log(const TraceFilter& filter, ParsedLog& log) {
  if (filter.empty()) return;
  std::erase_if(log.phase_events, [&](const PhaseEventRecord& rec) {
    return !filter.matches(rec);
  });
  std::erase_if(log.blocking_events, [&](const BlockingEventRecord& rec) {
    return !filter.matches(rec);
  });
  std::erase_if(log.samples, [&](const MonitoringSampleRecord& rec) {
    return !filter.matches(rec);
  });
}

// --- text ---------------------------------------------------------------

class TextTraceReader final : public TraceReader {
 public:
  TextTraceReader(MappedFile file, TraceReadOptions options)
      : file_(std::move(file)), options_(std::move(options)) {}

  ParseResult read(const TraceFilter& filter) override {
    ParseResult result = parse_log_text(file_.bytes(), options_);
    filter_log(filter, result.log);
    return result;
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
  DecodedBlock block;
  std::string error;  ///< empty = success
};

class BinaryTraceReader final : public TraceReader {
 public:
  BinaryTraceReader(MappedFile file, G10tStructure structure,
                    TraceReadOptions options)
      : file_(std::move(file)),
        structure_(std::move(structure)),
        options_(std::move(options)) {}

  ParseResult read(const TraceFilter& filter) override;

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
    if (time_window_active(filter) &&
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

  DecodeOutcome decode_one(std::size_t ordinal) const {
    const IndexEntry& entry = structure_.index[ordinal];
    DecodeOutcome outcome;
    const std::string_view payload =
        file_.bytes().substr(entry.offset, entry.encoded_size);
    try {
      if (auto error = decode_block(payload, entry, structure_.symbols,
                                    outcome.block)) {
        outcome.error = "block " + std::to_string(ordinal) + ": " + *error;
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

ParseResult BinaryTraceReader::read(const TraceFilter& filter) {
  ParseResult result;
  result.log.meta = structure_.meta;

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

  // Decode every selected block, each result placed by its position, the
  // way parse_log_text fans out text chunks.
  std::vector<DecodeOutcome> decoded(selected.size());
  ThreadPool(static_cast<std::size_t>(std::max(options_.threads, 0)))
      .parallel_for(selected.size(), 1, [&](std::size_t k) {
        decoded[k] = decode_one(selected[k]);
      });

  std::size_t phase_total = 0;
  std::size_t blocking_total = 0;
  std::size_t sample_total = 0;
  for (const DecodeOutcome& outcome : decoded) {
    if (outcome.error.empty()) ++blocks_decoded_;
    phase_total += outcome.block.phase_events.size();
    blocking_total += outcome.block.blocking_events.size();
    sample_total += outcome.block.samples.size();
  }
  const bool record_filter_active = !filter.machines.empty() ||
                                    !filter.phase_types.empty() ||
                                    time_window_active(filter);
  if (!record_filter_active) {
    result.log.phase_events.reserve(phase_total);
    result.log.blocking_events.reserve(blocking_total);
    result.log.samples.reserve(sample_total);
  }

  const auto append = [&](auto& from, auto& to) {
    for (auto& rec : from) {
      if (!record_filter_active || filter.matches(rec)) {
        to.push_back(std::move(rec));
      }
    }
  };
  // Move the records out in index order, freeing each block once appended;
  // a strict read stops at the first corrupt block.
  for (std::size_t k = 0; k < decoded.size(); ++k) {
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
      if (!options_.recover) break;
      continue;
    }
    append(outcome.block.phase_events, result.log.phase_events);
    append(outcome.block.blocking_events, result.log.blocking_events);
    append(outcome.block.samples, result.log.samples);
    outcome.block = {};
  }
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

ParseResult read_trace_file(const std::string& path,
                            const TraceReadOptions& options,
                            const TraceFilter& filter) {
  TraceReader::OpenResult opened = TraceReader::open(path, options);
  if (!opened.ok()) {
    ParseResult result;
    result.errors.push_back({0, std::move(*opened.error), ""});
    result.error_count = 1;
    return result;
  }
  return opened.reader->read(filter);
}

}  // namespace g10::trace
