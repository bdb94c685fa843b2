#include "trace/log_io.hpp"

#include <algorithm>
#include <charconv>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace g10::trace {

namespace {

void append_int(std::string& out, std::int64_t value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, end);
}

/// Shortest round-trip formatting.
void append_double(std::string& out, double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec == std::errc{}) {
    out.append(buf, end);
  } else {
    out += '0';
  }
}

}  // namespace

// Each record is formatted into one reused line and written in one call:
// the writer's hot path allocates nothing and formats no stream fields.
void write_log(std::ostream& os, const NodeLog& log) {
  os << "# grade10 trace log v1\n";
  for (const auto& [key, value] : log.meta) {
    os << "META\t" << key << '\t' << value << '\n';
  }
  std::string line;
  const auto flush = [&os, &line] {
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
  };
  for (const PhaseEvent& event : log.phase_events) {
    line.assign(event.kind == PhaseEventRecord::Kind::Begin ? "PHASE\tB\t"
                                                            : "PHASE\tE\t");
    log.paths.append_path(event.node, line);
    line += '\t';
    append_int(line, event.time);
    line += '\t';
    append_int(line, event.machine);
    line += '\n';
    flush();
  }
  for (const BlockingEvent& event : log.blocking_events) {
    line.assign("BLOCK\t");
    line += log.resources[event.resource];
    line += '\t';
    log.paths.append_path(event.node, line);
    line += '\t';
    append_int(line, event.begin);
    line += '\t';
    append_int(line, event.end);
    line += '\t';
    append_int(line, event.machine);
    line += '\n';
    flush();
  }
  for (const MonitoringSampleRecord& rec : log.samples) {
    line.assign("SAMPLE\t");
    line += rec.resource;
    line += '\t';
    append_int(line, rec.machine);
    line += '\t';
    append_int(line, rec.time);
    line += '\t';
    append_double(line, rec.value);
    line += '\n';
    flush();
  }
}

void write_log(std::ostream& os,
               const std::vector<PhaseEventRecord>& phase_events,
               const std::vector<BlockingEventRecord>& blocking_events,
               const std::vector<MonitoringSampleRecord>& samples,
               const std::vector<LogMeta>& meta) {
  NodeLog log = intern_events(phase_events, blocking_events);
  log.meta = meta;
  log.samples = samples;
  write_log(os, log);
}

std::optional<std::string> ParsedLog::meta_value(std::string_view key) const {
  return trace::meta_value(meta, key);
}

namespace {

/// A PHASE line as a chunk validates it: its path is still text, which the
/// merge interns.
struct PendingPhase {
  std::string_view path;
  TimeNs time = 0;
  MachineId machine = kGlobalMachine;
  PhaseEventRecord::Kind kind = PhaseEventRecord::Kind::Begin;
};

/// A BLOCK line as a chunk validates it.
struct PendingBlock {
  std::string_view resource;
  std::string_view path;
  TimeNs begin = 0;
  TimeNs end = 0;
  MachineId machine = kGlobalMachine;
};

/// One newline-aligned chunk's parse output. Line numbers are local
/// (1-based within the chunk); the merge shifts them by the total line
/// count of the preceding chunks, which reconstructs exact file positions.
struct ChunkResult {
  std::vector<LogMeta> meta;
  std::vector<PendingPhase> phase_events;
  std::vector<PendingBlock> blocking_events;
  std::vector<MonitoringSampleRecord> samples;
  std::vector<ParseError> errors;
  std::size_t error_count = 0;
  std::size_t lines = 0;  ///< lines scanned in this chunk
  bool stopped = false;   ///< strict mode: stopped at the first bad line
};

/// Parses the lines of one chunk into `out`: validates every record and
/// keeps those `filter` matches.
class ChunkParser {
 public:
  ChunkParser(const TraceFilter& filter, ChunkResult& out)
      : filter_(filter), out_(out) {}

  std::optional<std::string> line(const std::vector<std::string_view>& f) {
    if (f[0] == "PHASE") return phase(f);
    if (f[0] == "META") return meta(f);
    if (f[0] == "BLOCK") return block(f);
    if (f[0] == "SAMPLE") return sample(f);
    return "unknown record type: " + std::string(f[0]);
  }

 private:
  std::optional<std::string> meta(const std::vector<std::string_view>& f) {
    if (f.size() < 3) return "META record needs key and value";
    if (f[1].empty()) return "empty META key";
    // The value is everything after the second tab (values never contain
    // tabs in practice, but a split-happy reader must not lose data).
    std::string value(f[2]);
    for (std::size_t i = 3; i < f.size(); ++i) {
      value += '\t';
      value += f[i];
    }
    out_.meta.emplace_back(std::string(f[1]), std::move(value));
    return std::nullopt;
  }

  std::optional<std::string> phase(const std::vector<std::string_view>& f) {
    if (f.size() != 5) return "PHASE record needs 5 fields";
    PendingPhase rec;
    if (f[1] == "B") {
      rec.kind = PhaseEventRecord::Kind::Begin;
    } else if (f[1] == "E") {
      rec.kind = PhaseEventRecord::Kind::End;
    } else {
      return "PHASE kind must be B or E";
    }
    if (!tokenize_phase_path(f[2], tokens_)) return "malformed phase path";
    rec.path = f[2];
    const auto time = parse_int(f[3]);
    if (!time || *time < 0) return "malformed PHASE time";
    rec.time = *time;
    const auto machine = parse_int(f[4]);
    if (!machine) return "malformed PHASE machine";
    rec.machine = static_cast<MachineId>(*machine);
    if (filter_.keeps_phase(rec.time, rec.machine,
                            filter_.matches_path(tokens_))) {
      out_.phase_events.push_back(rec);
    }
    return std::nullopt;
  }

  std::optional<std::string> block(const std::vector<std::string_view>& f) {
    if (f.size() != 6) return "BLOCK record needs 6 fields";
    PendingBlock rec;
    rec.resource = f[1];
    if (rec.resource.empty()) return "empty BLOCK resource";
    if (!tokenize_phase_path(f[2], tokens_)) return "malformed phase path";
    rec.path = f[2];
    const auto begin = parse_int(f[3]);
    const auto end = parse_int(f[4]);
    if (!begin || !end || *begin < 0 || *end < *begin) {
      return "malformed BLOCK interval";
    }
    rec.begin = *begin;
    rec.end = *end;
    const auto machine = parse_int(f[5]);
    if (!machine) return "malformed BLOCK machine";
    rec.machine = static_cast<MachineId>(*machine);
    if (filter_.keeps_blocking(rec.begin, rec.end, rec.machine,
                               filter_.matches_path(tokens_))) {
      out_.blocking_events.push_back(rec);
    }
    return std::nullopt;
  }

  std::optional<std::string> sample(const std::vector<std::string_view>& f) {
    if (f.size() != 5) return "SAMPLE record needs 5 fields";
    MonitoringSampleRecord rec;
    if (f[1].empty()) return "empty SAMPLE resource";
    const auto machine = parse_int(f[2]);
    if (!machine) return "malformed SAMPLE machine";
    rec.machine = static_cast<MachineId>(*machine);
    const auto time = parse_int(f[3]);
    if (!time || *time < 0) return "malformed SAMPLE time";
    rec.time = *time;
    const auto value = parse_double(f[4]);
    if (!value) return "malformed SAMPLE value";
    rec.value = *value;
    if (filter_.matches(rec)) {
      rec.resource = std::string(f[1]);
      out_.samples.push_back(std::move(rec));
    }
    return std::nullopt;
  }

  const TraceFilter& filter_;
  ChunkResult& out_;
  std::vector<PathToken> tokens_;  ///< the path tokenizer's scratch
};

ChunkResult parse_chunk(std::string_view text, const ParseOptions& options,
                        const TraceFilter& filter) {
  ChunkResult out;
  ChunkParser parser(filter, out);
  std::vector<std::string_view> fields;  // scratch, reused per line
  std::size_t pos = 0;
  std::size_t line_number = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        eol == std::string_view::npos ? text.substr(pos)
                                      : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    ++line_number;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    split_into(trimmed, '\t', fields);
    if (const std::optional<std::string> error = parser.line(fields)) {
      ++out.error_count;
      if (out.errors.size() < kMaxStoredParseErrors) {
        out.errors.push_back({line_number, *error, std::string(trimmed)});
      }
      if (!options.recover) {
        out.stopped = true;
        out.lines = line_number;
        return out;
      }
    }
  }
  out.lines = line_number;
  return out;
}

/// Splits `text` into newline-aligned chunks of roughly size / threads
/// bytes, but never smaller than min_chunk_bytes — tiny inputs parse as a
/// single serial chunk.
std::vector<std::string_view> split_chunks(std::string_view text,
                                           std::size_t threads,
                                           std::size_t min_chunk_bytes) {
  std::vector<std::string_view> chunks;
  const std::size_t target = std::max<std::size_t>(
      std::max<std::size_t>(min_chunk_bytes, 1),
      text.size() / std::max<std::size_t>(threads, 1));
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.size() - pos > target ? pos + target : text.size();
    if (end < text.size()) {
      const std::size_t nl = text.find('\n', end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    chunks.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return chunks;
}

}  // namespace

NodeParseResult parse_log_nodes(std::string_view text,
                                const ParseOptions& options,
                                const TraceFilter& filter) {
  const std::size_t threads = ThreadPool::resolve_threads(
      options.threads > 0 ? static_cast<std::size_t>(options.threads) : 0);
  const std::vector<std::string_view> chunks =
      split_chunks(text, threads, options.min_chunk_bytes);

  std::vector<ChunkResult> parsed(chunks.size());
  ThreadPool(threads).parallel_for(chunks.size(), 1, [&](std::size_t i) {
    parsed[i] = parse_chunk(chunks[i], options, filter);
  });
  // In strict mode the first failing chunk ends the merge — its partial
  // records are exactly what a serial parse would have produced before
  // stopping (earlier chunks are error-free by definition).
  const auto stopped = std::find_if(
      parsed.begin(), parsed.end(),
      [](const ChunkResult& chunk) { return chunk.stopped; });
  parsed.erase(stopped == parsed.end() ? stopped : stopped + 1, parsed.end());

  // Merge in chunk order: record order, error order, and line numbers all
  // match the serial parse.
  NodeParseResult result;
  NodeLog& log = result.log;
  std::size_t phase_total = 0;
  std::size_t block_total = 0;
  std::size_t sample_total = 0;
  for (const ChunkResult& chunk : parsed) {
    phase_total += chunk.phase_events.size();
    block_total += chunk.blocking_events.size();
    sample_total += chunk.samples.size();
  }
  log.phase_events.reserve(phase_total);
  log.blocking_events.reserve(block_total);
  log.samples.reserve(sample_total);
  std::size_t line_offset = 0;
  for (ChunkResult& chunk : parsed) {
    std::move(chunk.meta.begin(), chunk.meta.end(),
              std::back_inserter(log.meta));
    std::move(chunk.samples.begin(), chunk.samples.end(),
              std::back_inserter(log.samples));
    std::vector<MonitoringSampleRecord>().swap(chunk.samples);
    for (ParseError& err : chunk.errors) {
      err.line_number += line_offset;
      if (result.errors.size() < kMaxStoredParseErrors) {
        result.errors.push_back(std::move(err));
      }
    }
    result.error_count += chunk.error_count;
    line_offset += chunk.lines;
  }

  // The intern pass: every kept path becomes a node, the phase events'
  // first, in stream order. The chunks validated each path, so every one
  // tokenizes here.
  std::vector<PathToken> tokens;
  for (ChunkResult& chunk : parsed) {
    for (const PendingPhase& rec : chunk.phase_events) {
      tokenize_phase_path(rec.path, tokens);
      log.phase_events.push_back(
          PhaseEvent{rec.time, log.paths.insert(tokens), rec.machine,
                     rec.kind});
    }
    std::vector<PendingPhase>().swap(chunk.phase_events);
  }
  ResourceNumbering resource;
  for (ChunkResult& chunk : parsed) {
    for (const PendingBlock& rec : chunk.blocking_events) {
      tokenize_phase_path(rec.path, tokens);
      log.blocking_events.push_back(
          BlockingEvent{rec.begin, rec.end, log.paths.insert(tokens),
                        resource(rec.resource), rec.machine});
    }
    std::vector<PendingBlock>().swap(chunk.blocking_events);
  }
  log.resources = resource.take_names();
  return result;
}

ParseResult parse_log_text(std::string_view text,
                           const ParseOptions& options) {
  return render_result(parse_log_nodes(text, options));
}

ParsedLog render_log(const NodeLog& log) {
  ParsedLog out;
  out.meta = log.meta;
  out.phase_events.resize(log.phase_events.size());
  for (std::size_t i = 0; i < log.phase_events.size(); ++i) {
    const PhaseEvent& event = log.phase_events[i];
    PhaseEventRecord& rec = out.phase_events[i];
    rec.kind = event.kind;
    log.paths.phase_path(event.node, rec.path);
    rec.time = event.time;
    rec.machine = event.machine;
  }
  out.blocking_events.resize(log.blocking_events.size());
  for (std::size_t i = 0; i < log.blocking_events.size(); ++i) {
    const BlockingEvent& event = log.blocking_events[i];
    BlockingEventRecord& rec = out.blocking_events[i];
    rec.resource = log.resources[event.resource];
    log.paths.phase_path(event.node, rec.path);
    rec.begin = event.begin;
    rec.end = event.end;
    rec.machine = event.machine;
  }
  out.samples = log.samples;
  return out;
}

ParseResult render_result(NodeParseResult&& nodes) {
  ParseResult out;
  out.log = render_log(nodes.log);
  out.errors = std::move(nodes.errors);
  out.error_count = nodes.error_count;
  return out;
}

NodeLog intern_log(const ParsedLog& log) {
  NodeLog out = intern_events(log.phase_events, log.blocking_events);
  out.meta = log.meta;
  out.samples = log.samples;
  return out;
}

}  // namespace g10::trace
