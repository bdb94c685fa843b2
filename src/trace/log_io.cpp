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

LogWriter::LogWriter(std::ostream& os, const std::vector<LogMeta>& meta)
    : os_(os) {
  os_ << "# grade10 trace log v1\n";
  for (const auto& [key, value] : meta) {
    os_ << "META\t" << key << '\t' << value << '\n';
  }
}

// Each record is formatted into one reused line and written in one call:
// the writer's hot path allocates nothing and formats no stream fields.
void LogWriter::add(std::span<const PhaseEventRecord> records) {
  for (const PhaseEventRecord& rec : records) {
    line_.assign(rec.kind == PhaseEventRecord::Kind::Begin ? "PHASE\tB\t"
                                                           : "PHASE\tE\t");
    rec.path.append_to(line_);
    line_ += '\t';
    append_int(line_, rec.time);
    line_ += '\t';
    append_int(line_, rec.machine);
    line_ += '\n';
    os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  }
}

void LogWriter::add(std::span<const BlockingEventRecord> records) {
  for (const BlockingEventRecord& rec : records) {
    line_.assign("BLOCK\t");
    line_ += rec.resource;
    line_ += '\t';
    rec.path.append_to(line_);
    line_ += '\t';
    append_int(line_, rec.begin);
    line_ += '\t';
    append_int(line_, rec.end);
    line_ += '\t';
    append_int(line_, rec.machine);
    line_ += '\n';
    os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  }
}

void LogWriter::add(std::span<const MonitoringSampleRecord> records) {
  for (const MonitoringSampleRecord& rec : records) {
    line_.assign("SAMPLE\t");
    line_ += rec.resource;
    line_ += '\t';
    append_int(line_, rec.machine);
    line_ += '\t';
    append_int(line_, rec.time);
    line_ += '\t';
    append_double(line_, rec.value);
    line_ += '\n';
    os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  }
}

void write_log(std::ostream& os,
               const std::vector<PhaseEventRecord>& phase_events,
               const std::vector<BlockingEventRecord>& blocking_events,
               const std::vector<MonitoringSampleRecord>& samples,
               const std::vector<LogMeta>& meta) {
  LogWriter writer(os, meta);
  writer.add(phase_events);
  writer.add(blocking_events);
  writer.add(samples);
}

std::optional<std::string> ParsedLog::meta_value(std::string_view key) const {
  for (const auto& [k, v] : meta) {
    if (k == key) return v;
  }
  return std::nullopt;
}

namespace {

std::optional<std::string> parse_meta_line(
    const std::vector<std::string_view>& fields, ParsedLog& out) {
  if (fields.size() < 3) return "META record needs key and value";
  if (fields[1].empty()) return "empty META key";
  // The value is everything after the second tab (values never contain
  // tabs in practice, but a split-happy reader must not lose data).
  std::string value(fields[2]);
  for (std::size_t i = 3; i < fields.size(); ++i) {
    value += '\t';
    value += fields[i];
  }
  out.meta.emplace_back(std::string(fields[1]), std::move(value));
  return std::nullopt;
}

std::optional<std::string> parse_phase_line(
    const std::vector<std::string_view>& fields, ParsedLog& out) {
  if (fields.size() != 5) return "PHASE record needs 5 fields";
  PhaseEventRecord rec;
  if (fields[1] == "B") {
    rec.kind = PhaseEventRecord::Kind::Begin;
  } else if (fields[1] == "E") {
    rec.kind = PhaseEventRecord::Kind::End;
  } else {
    return "PHASE kind must be B or E";
  }
  auto path = parse_phase_path(fields[2]);
  if (!path) return "malformed phase path";
  rec.path = std::move(*path);
  const auto time = parse_int(fields[3]);
  if (!time || *time < 0) return "malformed PHASE time";
  rec.time = *time;
  const auto machine = parse_int(fields[4]);
  if (!machine) return "malformed PHASE machine";
  rec.machine = static_cast<MachineId>(*machine);
  out.phase_events.push_back(std::move(rec));
  return std::nullopt;
}

std::optional<std::string> parse_block_line(
    const std::vector<std::string_view>& fields, ParsedLog& out) {
  if (fields.size() != 6) return "BLOCK record needs 6 fields";
  BlockingEventRecord rec;
  rec.resource = std::string(fields[1]);
  if (rec.resource.empty()) return "empty BLOCK resource";
  auto path = parse_phase_path(fields[2]);
  if (!path) return "malformed phase path";
  rec.path = std::move(*path);
  const auto begin = parse_int(fields[3]);
  const auto end = parse_int(fields[4]);
  if (!begin || !end || *begin < 0 || *end < *begin) {
    return "malformed BLOCK interval";
  }
  rec.begin = *begin;
  rec.end = *end;
  const auto machine = parse_int(fields[5]);
  if (!machine) return "malformed BLOCK machine";
  rec.machine = static_cast<MachineId>(*machine);
  out.blocking_events.push_back(std::move(rec));
  return std::nullopt;
}

std::optional<std::string> parse_sample_line(
    const std::vector<std::string_view>& fields, ParsedLog& out) {
  if (fields.size() != 5) return "SAMPLE record needs 5 fields";
  MonitoringSampleRecord rec;
  rec.resource = std::string(fields[1]);
  if (rec.resource.empty()) return "empty SAMPLE resource";
  const auto machine = parse_int(fields[2]);
  if (!machine) return "malformed SAMPLE machine";
  rec.machine = static_cast<MachineId>(*machine);
  const auto time = parse_int(fields[3]);
  if (!time || *time < 0) return "malformed SAMPLE time";
  rec.time = *time;
  const auto value = parse_double(fields[4]);
  if (!value) return "malformed SAMPLE value";
  rec.value = *value;
  out.samples.push_back(std::move(rec));
  return std::nullopt;
}

/// One newline-aligned chunk's parse output. Line numbers are local
/// (1-based within the chunk); the merge shifts them by the total line
/// count of the preceding chunks, which reconstructs exact file positions.
struct ChunkResult {
  ParsedLog log;
  std::vector<ParseError> errors;
  std::size_t error_count = 0;
  std::size_t lines = 0;  ///< lines scanned in this chunk
  bool stopped = false;   ///< strict mode: stopped at the first bad line
};

ChunkResult parse_chunk(std::string_view text, const ParseOptions& options) {
  ChunkResult out;
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
    std::optional<std::string> error;
    if (fields[0] == "PHASE") {
      error = parse_phase_line(fields, out.log);
    } else if (fields[0] == "META") {
      error = parse_meta_line(fields, out.log);
    } else if (fields[0] == "BLOCK") {
      error = parse_block_line(fields, out.log);
    } else if (fields[0] == "SAMPLE") {
      error = parse_sample_line(fields, out.log);
    } else {
      error = "unknown record type: " + std::string(fields[0]);
    }
    if (error) {
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

ParseResult parse_log_text(std::string_view text,
                           const ParseOptions& options) {
  const std::size_t threads = ThreadPool::resolve_threads(
      options.threads > 0 ? static_cast<std::size_t>(options.threads) : 0);
  const std::vector<std::string_view> chunks =
      split_chunks(text, threads, options.min_chunk_bytes);

  std::vector<ChunkResult> parsed(chunks.size());
  ThreadPool(threads).parallel_for(chunks.size(), 1, [&](std::size_t i) {
    parsed[i] = parse_chunk(chunks[i], options);
  });

  // Merge in chunk order: record order, error order, and line numbers all
  // match the serial parse. In strict mode the first failing chunk ends the
  // merge — its partial records are exactly what a serial parse would have
  // produced before stopping (earlier chunks are error-free by definition).
  ParseResult result;
  std::size_t phase_total = 0;
  std::size_t block_total = 0;
  std::size_t sample_total = 0;
  for (const ChunkResult& chunk : parsed) {
    phase_total += chunk.log.phase_events.size();
    block_total += chunk.log.blocking_events.size();
    sample_total += chunk.log.samples.size();
    if (chunk.stopped) break;
  }
  result.log.phase_events.reserve(phase_total);
  result.log.blocking_events.reserve(block_total);
  result.log.samples.reserve(sample_total);

  std::size_t line_offset = 0;
  for (ChunkResult& chunk : parsed) {
    std::move(chunk.log.meta.begin(), chunk.log.meta.end(),
              std::back_inserter(result.log.meta));
    std::move(chunk.log.phase_events.begin(), chunk.log.phase_events.end(),
              std::back_inserter(result.log.phase_events));
    std::move(chunk.log.blocking_events.begin(),
              chunk.log.blocking_events.end(),
              std::back_inserter(result.log.blocking_events));
    std::move(chunk.log.samples.begin(), chunk.log.samples.end(),
              std::back_inserter(result.log.samples));
    for (ParseError& err : chunk.errors) {
      err.line_number += line_offset;
      if (result.errors.size() < kMaxStoredParseErrors) {
        result.errors.push_back(std::move(err));
      }
    }
    result.error_count += chunk.error_count;
    line_offset += chunk.lines;
    if (chunk.stopped) break;
  }
  return result;
}

}  // namespace g10::trace
