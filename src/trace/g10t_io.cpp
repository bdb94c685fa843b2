#include "trace/g10t_io.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>
#include <span>
#include <unordered_map>

#include "common/det_hash.hpp"

namespace g10::trace {

namespace {

void put_u64_raw(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

/// Per-file symbol interning: name -> ordinal in first-use order.
class FileSymbols {
 public:
  std::uint64_t intern(std::string_view name) {
    const auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    // Deque elements never relocate, so views keyed on them stay valid as
    // the table grows (a vector would move SSO strings on reallocation and
    // dangle every stored key).
    names_.emplace_back(name);
    return index_.emplace(names_.back(), names_.size() - 1).first->second;
  }

  const std::deque<std::string>& names() const { return names_; }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, std::uint64_t, Hash, std::equal_to<>>
      index_;
};

struct EncodedBlock {
  std::string payload;
  IndexEntry entry;
};

template <typename Record>
void fill_common_entry(EncodedBlock& block, std::span<const Record> records) {
  IndexEntry& entry = block.entry;
  entry.record_count = records.size();
  entry.machine_min = records[0].machine;
  entry.machine_max = records[0].machine;
  for (const Record& record : records) {
    entry.machine_min = std::min(entry.machine_min, record.machine);
    entry.machine_max = std::max(entry.machine_max, record.machine);
  }
  entry.encoded_size = block.payload.size();
  entry.payload_hash =
      fnv1a64(kFnvOffsetBasis, block.payload.data(), block.payload.size());
}

/// Encodes one NodeLog's blocks, numbering file symbols in first use. Each
/// path type and resource is mapped to its file symbol (and a type to its
/// bloom bit) once, and a block's path dictionary is keyed on node ids.
class BlockEncoder {
 public:
  explicit BlockEncoder(const NodeLog& log)
      : log_(log),
        type_symbols_(log.paths.type_count(), kNone),
        type_blooms_(log.paths.type_count(), 0),
        resource_symbols_(log.resources.size(), kNone),
        entry_of_(log.paths.size(), kNone) {}

  const FileSymbols& symbols() const { return symbols_; }

  EncodedBlock phase_block(std::span<const PhaseEvent> events) {
    EncodedBlock block;
    block.entry.kind = BlockKind::kPhase;
    std::string& out = block.payload;
    encode_paths(events, block);
    for (std::size_t i = 0; i < events.size(); i += 8) {
      std::uint8_t bits = 0;
      for (std::size_t j = i; j < std::min(events.size(), i + 8); ++j) {
        if (events[j].kind == PhaseEventRecord::Kind::End) {
          bits |= static_cast<std::uint8_t>(1u << (j - i));
        }
      }
      out.push_back(static_cast<char>(bits));
    }
    TimeNs previous = 0;
    block.entry.time_min = events[0].time;
    block.entry.time_max = events[0].time;
    for (const PhaseEvent& event : events) {
      put_zigzag(out, event.time - previous);
      previous = event.time;
      block.entry.time_min = std::min(block.entry.time_min, event.time);
      block.entry.time_max = std::max(block.entry.time_max, event.time);
    }
    for (const PhaseEvent& event : events) put_zigzag(out, event.machine);
    fill_common_entry(block, events);
    return block;
  }

  EncodedBlock blocking_block(std::span<const BlockingEvent> events) {
    EncodedBlock block;
    block.entry.kind = BlockKind::kBlocking;
    std::string& out = block.payload;
    encode_paths(events, block);
    for (const BlockingEvent& event : events) {
      std::uint64_t& symbol = resource_symbols_[event.resource];
      if (symbol == kNone) {
        symbol = symbols_.intern(log_.resources[event.resource]);
      }
      put_varint(out, symbol);
    }
    TimeNs previous = 0;
    block.entry.time_min = std::min(events[0].begin, events[0].end);
    block.entry.time_max = std::max(events[0].begin, events[0].end);
    for (const BlockingEvent& event : events) {
      put_zigzag(out, event.begin - previous);
      previous = event.begin;
      put_zigzag(out, event.end - event.begin);
      block.entry.time_min = std::min(block.entry.time_min,
                                      std::min(event.begin, event.end));
      block.entry.time_max = std::max(block.entry.time_max,
                                      std::max(event.begin, event.end));
    }
    for (const BlockingEvent& event : events) put_zigzag(out, event.machine);
    fill_common_entry(block, events);
    return block;
  }

  EncodedBlock sample_block(std::span<const MonitoringSampleRecord> records) {
    EncodedBlock block;
    block.entry.kind = BlockKind::kSample;
    std::string& out = block.payload;
    for (const MonitoringSampleRecord& record : records) {
      put_varint(out, symbols_.intern(record.resource));
      block.entry.name_bloom |= name_bloom_bit(record.resource);
    }
    for (const MonitoringSampleRecord& record : records) {
      put_zigzag(out, record.machine);
    }
    TimeNs previous = 0;
    block.entry.time_min = records[0].time;
    block.entry.time_max = records[0].time;
    for (const MonitoringSampleRecord& record : records) {
      put_zigzag(out, record.time - previous);
      previous = record.time;
      block.entry.time_min = std::min(block.entry.time_min, record.time);
      block.entry.time_max = std::max(block.entry.time_max, record.time);
    }
    for (const MonitoringSampleRecord& record : records) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(record.value));
      std::memcpy(&bits, &record.value, sizeof(bits));
      put_u64_raw(out, bits);
    }
    fill_common_entry(block, records);
    return block;
  }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};  ///< not yet met

  /// The block's path dictionary (its distinct nodes in first use, each as
  /// depth + (symbol, zigzag index) per element), then one dictionary
  /// ordinal per event.
  template <typename Event>
  void encode_paths(std::span<const Event> events, EncodedBlock& block) {
    std::vector<std::uint64_t> ordinals(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      std::uint64_t& entry = entry_of_[static_cast<std::size_t>(events[i].node)];
      if (entry == kNone) {
        entry = entries_.size();
        entries_.push_back(events[i].node);
      }
      ordinals[i] = entry;
    }
    std::string& out = block.payload;
    const PathIndex& paths = log_.paths;
    put_varint(out, entries_.size());
    for (const PathIndex::NodeId node : entries_) {
      put_varint(out, paths.depth(node));
      chain_.clear();
      for (PathIndex::NodeId n = node; n != PathIndex::kRoot;
           n = paths.parent(n)) {
        chain_.push_back(n);
      }
      for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
        const PathIndex::TypeId type = paths.type_id(*it);
        if (type_symbols_[type] == kNone) {
          type_symbols_[type] = symbols_.intern(paths.type_name(type));
          type_blooms_[type] = name_bloom_bit(paths.type_name(type));
        }
        put_varint(out, type_symbols_[type]);
        put_zigzag(out, paths.index(*it));
        block.entry.name_bloom |= type_blooms_[type];
      }
      entry_of_[static_cast<std::size_t>(node)] = kNone;
    }
    entries_.clear();
    for (const std::uint64_t ordinal : ordinals) put_varint(out, ordinal);
  }

  const NodeLog& log_;
  FileSymbols symbols_;
  std::vector<std::uint64_t> type_symbols_;
  std::vector<std::uint64_t> type_blooms_;
  std::vector<std::uint64_t> resource_symbols_;
  /// Each node's ordinal in the current block's dictionary, else kNone.
  std::vector<std::uint64_t> entry_of_;
  std::vector<PathIndex::NodeId> entries_;  ///< the current dictionary
  std::vector<PathIndex::NodeId> chain_;    ///< one path's nodes, leaf first
};

/// Calls `encode` on each consecutive slice of at most `size` records.
template <typename Record, typename Encode>
void for_each_slice(const std::vector<Record>& records, std::size_t size,
                    Encode encode) {
  const std::span<const Record> all(records);
  for (std::size_t start = 0; start < all.size(); start += size) {
    encode(all.subspan(start, std::min(size, all.size() - start)));
  }
}

// --- decode helpers ------------------------------------------------------

std::optional<std::string> decode_path_dict(
    ByteCursor& cursor, const std::vector<std::string>& symbols,
    NodeBlock& out) {
  std::uint64_t dict_count = 0;
  if (!cursor.read_varint(dict_count)) return "truncated path dictionary";
  if (dict_count > cursor.remaining()) return "path dictionary overruns block";
  out.entries.reserve(dict_count + 1);
  out.entries.push_back(0);
  for (std::uint64_t i = 0; i < dict_count; ++i) {
    std::uint64_t depth = 0;
    if (!cursor.read_varint(depth)) return "truncated path dictionary";
    if (depth > cursor.remaining()) return "path depth overruns block";
    for (std::uint64_t d = 0; d < depth; ++d) {
      std::uint64_t symbol = 0;
      std::int64_t index = 0;
      if (!cursor.read_varint(symbol) || !cursor.read_zigzag(index)) {
        return "truncated path element";
      }
      if (symbol >= symbols.size()) {
        return "path element references symbol " + std::to_string(symbol) +
               " of " + std::to_string(symbols.size());
      }
      out.tokens.push_back(PathToken{symbols[symbol], index});
    }
    out.entries.push_back(out.tokens.size());
    if (auto defect = phase_path_defect(out.entry(i))) {
      return "path dictionary entry " + std::to_string(i) + ": " + *defect;
    }
  }
  return std::nullopt;
}

/// Reads `count` path ids into the events' `node`.
template <typename Event>
std::optional<std::string> decode_path_ids(ByteCursor& cursor,
                                           const NodeBlock& block,
                                           std::vector<Event>& events) {
  for (Event& event : events) {
    std::uint64_t path_id = 0;
    if (!cursor.read_varint(path_id)) return "truncated path ids";
    if (path_id >= block.entry_count()) return "path id out of range";
    event.node = static_cast<PathIndex::NodeId>(path_id);
  }
  return std::nullopt;
}

std::optional<std::string> decode_phase_block(
    ByteCursor& cursor, std::uint64_t count,
    const std::vector<std::string>& symbols, NodeBlock& out) {
  if (auto error = decode_path_dict(cursor, symbols, out)) return error;
  out.phase_events.resize(count);
  if (auto error = decode_path_ids(cursor, out, out.phase_events)) {
    return error;
  }
  for (std::uint64_t i = 0; i < count; i += 8) {
    std::string_view byte;
    if (!cursor.read_bytes(1, byte)) return "truncated kind bits";
    const auto bits = static_cast<std::uint8_t>(byte[0]);
    for (std::uint64_t j = i; j < std::min(count, i + 8); ++j) {
      out.phase_events[j].kind = (bits >> (j - i)) & 1
                                     ? PhaseEventRecord::Kind::End
                                     : PhaseEventRecord::Kind::Begin;
    }
  }
  TimeNs previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t delta = 0;
    if (!cursor.read_zigzag(delta)) return "truncated time column";
    previous += delta;
    out.phase_events[i].time = previous;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t machine = 0;
    if (!cursor.read_zigzag(machine)) return "truncated machine column";
    out.phase_events[i].machine = static_cast<MachineId>(machine);
  }
  return std::nullopt;
}

std::optional<std::string> decode_blocking_block(
    ByteCursor& cursor, std::uint64_t count,
    const std::vector<std::string>& symbols, NodeBlock& out) {
  if (auto error = decode_path_dict(cursor, symbols, out)) return error;
  out.blocking_events.resize(count);
  if (auto error = decode_path_ids(cursor, out, out.blocking_events)) {
    return error;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t symbol = 0;
    if (!cursor.read_varint(symbol)) return "truncated resource column";
    if (symbol >= symbols.size()) return "resource symbol out of range";
    out.blocking_events[i].resource = static_cast<std::uint32_t>(symbol);
  }
  TimeNs previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t begin_delta = 0;
    std::int64_t duration = 0;
    if (!cursor.read_zigzag(begin_delta) || !cursor.read_zigzag(duration)) {
      return "truncated interval column";
    }
    previous += begin_delta;
    out.blocking_events[i].begin = previous;
    out.blocking_events[i].end = previous + duration;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t machine = 0;
    if (!cursor.read_zigzag(machine)) return "truncated machine column";
    out.blocking_events[i].machine = static_cast<MachineId>(machine);
  }
  return std::nullopt;
}

std::optional<std::string> decode_sample_block(
    ByteCursor& cursor, std::uint64_t count,
    const std::vector<std::string>& symbols, NodeBlock& out) {
  out.samples.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t symbol = 0;
    if (!cursor.read_varint(symbol)) return "truncated resource column";
    if (symbol >= symbols.size()) return "resource symbol out of range";
    out.samples[i].resource = symbols[symbol];
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t machine = 0;
    if (!cursor.read_zigzag(machine)) return "truncated machine column";
    out.samples[i].machine = static_cast<MachineId>(machine);
  }
  TimeNs previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t delta = 0;
    if (!cursor.read_zigzag(delta)) return "truncated time column";
    previous += delta;
    out.samples[i].time = previous;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    if (!cursor.read_u64(bits)) return "truncated value column";
    std::memcpy(&out.samples[i].value, &bits, sizeof(bits));
  }
  return std::nullopt;
}

}  // namespace

void write_g10t(std::ostream& os, const NodeLog& log,
                const G10tWriteOptions& options) {
  const std::size_t size = std::max<std::size_t>(1, options.block_records);
  BlockEncoder encoder(log);
  std::vector<EncodedBlock> blocks;
  for_each_slice(log.phase_events, size, [&](auto events) {
    blocks.push_back(encoder.phase_block(events));
  });
  for_each_slice(log.blocking_events, size, [&](auto events) {
    blocks.push_back(encoder.blocking_block(events));
  });
  for_each_slice(log.samples, size, [&](auto records) {
    blocks.push_back(encoder.sample_block(records));
  });

  // The symbol table is finalized only after every block encoded (blocks
  // intern lazily), so sections serialize back to front.
  std::string symtab;
  put_varint(symtab, encoder.symbols().names().size());
  for (const std::string& name : encoder.symbols().names()) {
    put_varint(symtab, name.size());
    symtab.append(name);
  }

  std::string meta;
  put_varint(meta, log.meta.size());
  for (const auto& [key, value] : log.meta) {
    put_varint(meta, key.size());
    meta.append(key);
    put_varint(meta, value.size());
    meta.append(value);
  }

  FileHeader header;
  header.symtab_offset = kG10tHeaderSize;
  header.symtab_size = symtab.size();
  header.meta_offset = header.symtab_offset + symtab.size();
  header.meta_size = meta.size();
  header.block_count = blocks.size();

  std::uint64_t offset = header.meta_offset + meta.size();
  for (EncodedBlock& block : blocks) {
    block.entry.offset = offset;
    offset += block.payload.size();
  }

  std::string index;
  for (const EncodedBlock& block : blocks) {
    encode_index_entry(index, block.entry);
  }
  header.index_offset = offset;
  header.index_size = index.size();
  header.file_size = offset + index.size();

  const std::string header_bytes = encode_header(header);
  os.write(header_bytes.data(),
           static_cast<std::streamsize>(header_bytes.size()));
  os.write(symtab.data(), static_cast<std::streamsize>(symtab.size()));
  os.write(meta.data(), static_cast<std::streamsize>(meta.size()));
  for (const EncodedBlock& block : blocks) {
    os.write(block.payload.data(),
             static_cast<std::streamsize>(block.payload.size()));
  }
  os.write(index.data(), static_cast<std::streamsize>(index.size()));
}

bool write_g10t_file(const std::string& path, const NodeLog& log,
                     const G10tWriteOptions& options, std::string* error) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  write_g10t(file, log, options);
  file.flush();
  if (!file) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

void write_g10t(std::ostream& os, const ParsedLog& log,
                const G10tWriteOptions& options) {
  write_g10t(os, intern_log(log), options);
}

bool write_g10t_file(const std::string& path, const ParsedLog& log,
                     const G10tWriteOptions& options, std::string* error) {
  return write_g10t_file(path, intern_log(log), options, error);
}

bool looks_like_g10t(std::string_view prefix) {
  return prefix.size() >= sizeof(kG10tMagic) &&
         std::memcmp(prefix.data(), kG10tMagic, sizeof(kG10tMagic)) == 0;
}

G10tStructureParse parse_g10t_structure(std::string_view bytes) {
  G10tStructureParse out;
  HeaderParse header = decode_header(bytes, bytes.size());
  if (!header.ok()) {
    out.error = std::move(header.error);
    return out;
  }
  G10tStructure& structure = out.structure;
  structure.header = header.header;

  {
    ByteCursor cursor(bytes.data() + structure.header.symtab_offset,
                      structure.header.symtab_size);
    std::uint64_t count = 0;
    if (!cursor.read_varint(count) || count > cursor.remaining()) {
      out.error = "corrupt symbol table";
      return out;
    }
    structure.symbols.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t length = 0;
      std::string_view name;
      if (!cursor.read_varint(length) || !cursor.read_bytes(length, name)) {
        out.error = "corrupt symbol table entry " + std::to_string(i);
        return out;
      }
      structure.symbols.emplace_back(name);
    }
  }

  {
    ByteCursor cursor(bytes.data() + structure.header.meta_offset,
                      structure.header.meta_size);
    std::uint64_t count = 0;
    if (!cursor.read_varint(count) || count > cursor.remaining()) {
      out.error = "corrupt meta section";
      return out;
    }
    structure.meta.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t key_length = 0;
      std::uint64_t value_length = 0;
      std::string_view key;
      std::string_view value;
      if (!cursor.read_varint(key_length) ||
          !cursor.read_bytes(key_length, key) ||
          !cursor.read_varint(value_length) ||
          !cursor.read_bytes(value_length, value)) {
        out.error = "corrupt meta record " + std::to_string(i);
        return out;
      }
      structure.meta.emplace_back(std::string(key), std::string(value));
    }
  }

  {
    ByteCursor cursor(bytes.data() + structure.header.index_offset,
                      structure.header.index_size);
    // Every entry takes at least one byte: a larger count is corruption,
    // caught before reserve() tries to allocate it.
    if (structure.header.block_count > structure.header.index_size) {
      out.error = "block count overruns the block index";
      return out;
    }
    structure.index.reserve(structure.header.block_count);
    for (std::uint64_t i = 0; i < structure.header.block_count; ++i) {
      IndexEntry entry;
      if (!decode_index_entry(cursor, entry)) {
        out.error = "corrupt block index entry " + std::to_string(i);
        return out;
      }
      if (entry.offset > bytes.size() ||
          entry.encoded_size > bytes.size() - entry.offset) {
        out.error = "block " + std::to_string(i) + " payload overruns file";
        return out;
      }
      structure.index.push_back(entry);
    }
  }
  return out;
}

std::optional<std::string> decode_node_block(
    std::string_view payload, const IndexEntry& entry,
    const std::vector<std::string>& symbols, NodeBlock& out) {
  if (payload.size() != entry.encoded_size) {
    return "payload size mismatch (" + std::to_string(payload.size()) +
           " vs indexed " + std::to_string(entry.encoded_size) + ")";
  }
  const std::uint64_t hash =
      fnv1a64(kFnvOffsetBasis, payload.data(), payload.size());
  if (hash != entry.payload_hash) {
    return "payload hash mismatch (corrupt block)";
  }
  if (entry.record_count > payload.size()) {
    // Every record costs at least one encoded byte per column; a count
    // above the payload size is corruption, caught before resize() tries
    // to allocate it.
    return "record count exceeds payload size";
  }
  ByteCursor cursor(payload);
  switch (entry.kind) {
    case BlockKind::kPhase:
      return decode_phase_block(cursor, entry.record_count, symbols, out);
    case BlockKind::kBlocking:
      return decode_blocking_block(cursor, entry.record_count, symbols, out);
    case BlockKind::kSample:
      return decode_sample_block(cursor, entry.record_count, symbols, out);
  }
  return "unknown block kind";
}

std::optional<std::string> decode_block(
    std::string_view payload, const IndexEntry& entry,
    const std::vector<std::string>& symbols, DecodedBlock& out) {
  NodeBlock block;
  if (auto error = decode_node_block(payload, entry, symbols, block)) {
    return error;
  }
  std::vector<PhasePath> paths;
  paths.reserve(block.entry_count());
  for (std::size_t i = 0; i < block.entry_count(); ++i) {
    paths.push_back(to_phase_path(block.entry(i)));
  }
  out.phase_events.resize(block.phase_events.size());
  for (std::size_t i = 0; i < block.phase_events.size(); ++i) {
    const PhaseEvent& event = block.phase_events[i];
    out.phase_events[i] = PhaseEventRecord{
        event.kind, paths[static_cast<std::size_t>(event.node)], event.time,
        event.machine};
  }
  out.blocking_events.resize(block.blocking_events.size());
  for (std::size_t i = 0; i < block.blocking_events.size(); ++i) {
    const BlockingEvent& event = block.blocking_events[i];
    out.blocking_events[i] = BlockingEventRecord{
        symbols[event.resource], paths[static_cast<std::size_t>(event.node)],
        event.begin, event.end, event.machine};
  }
  out.samples = std::move(block.samples);
  return std::nullopt;
}

}  // namespace g10::trace
