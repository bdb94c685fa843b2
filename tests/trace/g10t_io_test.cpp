// The `.g10t` codec: varint/zigzag primitives, header validation (every
// corruption comes back as an error message, never an assert), and
// write/decode round trips over the value edge cases the columnar encoding
// has to survive — deep paths, negative machines and times, exact IEEE-754
// sample bits, and tab-bearing META values.
#include "trace/g10t_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>

#include "common/det_hash.hpp"
#include "trace/log_io.hpp"

namespace g10::trace {
namespace {

std::string render(const ParsedLog& log) {
  std::ostringstream os;
  write_log(os, log.phase_events, log.blocking_events, log.samples, log.meta);
  return os.str();
}

std::string encode(const ParsedLog& log, const G10tWriteOptions& options = {}) {
  std::ostringstream os;
  write_g10t(os, log, options);
  return os.str();
}

/// Decodes every block of an encoded stream back into one log.
ParsedLog decode_all(std::string_view bytes) {
  G10tStructureParse parsed = parse_g10t_structure(bytes);
  EXPECT_TRUE(parsed.ok()) << *parsed.error;
  ParsedLog log;
  log.meta = parsed.structure.meta;
  for (const IndexEntry& entry : parsed.structure.index) {
    DecodedBlock block;
    const auto error =
        decode_block(bytes.substr(entry.offset, entry.encoded_size), entry,
                     parsed.structure.symbols, block);
    EXPECT_FALSE(error.has_value()) << *error;
    log.phase_events.insert(log.phase_events.end(), block.phase_events.begin(),
                            block.phase_events.end());
    log.blocking_events.insert(log.blocking_events.end(),
                               block.blocking_events.begin(),
                               block.blocking_events.end());
    log.samples.insert(log.samples.end(), block.samples.begin(),
                       block.samples.end());
  }
  return log;
}

TEST(G10tFormatTest, VarintRoundTrip) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t value : values) {
    std::string buffer;
    put_varint(buffer, value);
    ByteCursor cursor(buffer);
    std::uint64_t out = 0;
    ASSERT_TRUE(cursor.read_varint(out));
    EXPECT_EQ(out, value);
    EXPECT_TRUE(cursor.done());
  }
}

TEST(G10tFormatTest, ZigzagRoundTrip) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -64,
                                 64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t value : values) {
    std::string buffer;
    put_zigzag(buffer, value);
    ByteCursor cursor(buffer);
    std::int64_t out = 0;
    ASSERT_TRUE(cursor.read_zigzag(out));
    EXPECT_EQ(out, value);
  }
}

TEST(G10tFormatTest, CursorRejectsTruncation) {
  std::string buffer;
  put_varint(buffer, 1u << 20);
  buffer.pop_back();  // drop the terminating byte
  ByteCursor cursor(buffer);
  std::uint64_t out = 0;
  EXPECT_FALSE(cursor.read_varint(out));

  ByteCursor empty("", 0);
  std::string_view bytes;
  EXPECT_FALSE(empty.read_bytes(1, bytes));
  std::uint64_t u64 = 0;
  EXPECT_FALSE(empty.read_u64(u64));
}

TEST(G10tFormatTest, HeaderRoundTrip) {
  FileHeader header;
  header.symtab_offset = kG10tHeaderSize;
  header.symtab_size = 10;
  header.meta_offset = 98;
  header.meta_size = 1;
  header.index_offset = 99;
  header.index_size = 40;
  header.block_count = 1;
  header.file_size = 139;
  const std::string bytes = encode_header(header);
  ASSERT_EQ(bytes.size(), kG10tHeaderSize);
  const HeaderParse parsed = decode_header(bytes, header.file_size);
  ASSERT_TRUE(parsed.ok()) << *parsed.error;
  EXPECT_EQ(parsed.header.index_offset, 99u);
  EXPECT_EQ(parsed.header.block_count, 1u);
}

TEST(G10tFormatTest, HeaderCorruptionIsAnErrorNotAnAssert) {
  FileHeader header;
  header.file_size = kG10tHeaderSize;
  const std::string good = encode_header(header);

  // Truncated prefix.
  EXPECT_FALSE(decode_header(good.substr(0, 20), 20).ok());
  // Bad magic.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_FALSE(decode_header(bad, header.file_size).ok());
  // Flipped byte -> checksum mismatch.
  bad = good;
  bad[12] ^= 0x40;
  EXPECT_FALSE(decode_header(bad, header.file_size).ok());
  // File shorter than the header claims.
  EXPECT_FALSE(decode_header(good, header.file_size - 1).ok());

  // Future major version (re-checksummed so only the version differs).
  FileHeader future = header;
  future.version = kG10tVersion + 1;
  const HeaderParse versioned =
      decode_header(encode_header(future), future.file_size);
  ASSERT_FALSE(versioned.ok());
  EXPECT_NE(versioned.error->find("version"), std::string::npos);

  // Unknown flag bit.
  FileHeader flagged = header;
  flagged.flags = 0x2;
  EXPECT_FALSE(decode_header(encode_header(flagged), flagged.file_size).ok());
}

TEST(G10tIoTest, EmptyLogRoundTrips) {
  const ParsedLog empty;
  const std::string bytes = encode(empty);
  const ParsedLog back = decode_all(bytes);
  EXPECT_EQ(render(back), render(empty));
  const G10tStructureParse parsed = parse_g10t_structure(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.structure.index.empty());
}

ParsedLog edge_case_log() {
  ParsedLog log;
  log.meta.push_back({"faults", "crash:w2@40%"});
  log.meta.push_back({"note", "value with spaces"});

  // A path deeper than anything the engines emit.
  PhasePath deep;
  for (int depth = 0; depth < 12; ++depth) {
    deep = deep.child("L" + std::to_string(depth), depth * 7);
  }
  log.phase_events.push_back(
      {PhaseEventRecord::Kind::Begin, deep, -500, kGlobalMachine});
  log.phase_events.push_back({PhaseEventRecord::Kind::End, deep,
                              std::numeric_limits<TimeNs>::max() / 2, -7});
  // Non-monotonic timestamps exercise the signed delta coding.
  log.phase_events.push_back({PhaseEventRecord::Kind::Begin,
                              PhasePath{}.child("Job", 0), 1000, 3});
  log.phase_events.push_back({PhaseEventRecord::Kind::End,
                              PhasePath{}.child("Job", 0), 250, 3});

  log.blocking_events.push_back(
      {"GC", PhasePath{}.child("Job", 0).child("W", 2), -10, 20, 1});
  log.blocking_events.push_back(
      {"MessageQueue", PhasePath{}.child("Job", 0), 5, 5, 2});

  log.samples.push_back({"cpu", 0, 0, 0.1});  // 0.1 is inexact in binary
  log.samples.push_back({"cpu", 1, 10, -0.0});
  log.samples.push_back(
      {"network", 2, 20, std::numeric_limits<double>::infinity()});
  log.samples.push_back(
      {"network", 3, 30, std::numeric_limits<double>::denorm_min()});
  log.samples.push_back({"cpu", 4, 40, 1.0 / 3.0});
  return log;
}

TEST(G10tIoTest, EdgeCaseRecordsRoundTripExactly) {
  const ParsedLog log = edge_case_log();
  const ParsedLog back = decode_all(encode(log));
  EXPECT_EQ(render(back), render(log));
  // Sample bits, not just their text rendering.
  ASSERT_EQ(back.samples.size(), log.samples.size());
  for (std::size_t i = 0; i < log.samples.size(); ++i) {
    EXPECT_EQ(std::signbit(back.samples[i].value),
              std::signbit(log.samples[i].value));
    EXPECT_EQ(back.samples[i].value, log.samples[i].value);
  }
}

TEST(G10tIoTest, ManyDistinctSymbolsRoundTripWithUniqueOrdinals) {
  // Hundreds of distinct short (SSO-sized) names force the writer's
  // interning table to grow many times; regression for a use-after-free
  // where map keys were views into a reallocating vector.
  ParsedLog log;
  for (int i = 0; i < 400; ++i) {
    log.phase_events.push_back({PhaseEventRecord::Kind::Begin,
                                PhasePath{}.child("P" + std::to_string(i), i),
                                i * 10, i % 5});
    log.phase_events.push_back({PhaseEventRecord::Kind::End,
                                PhasePath{}.child("P" + std::to_string(i), i),
                                i * 10 + 5, i % 5});
  }
  // Re-intern every name after the table has fully grown: lookups that hit
  // an existing entry are the ones that read the stored key.
  for (int i = 0; i < 400; ++i) {
    log.phase_events.push_back(
        {PhaseEventRecord::Kind::Begin,
         PhasePath{}.child("P" + std::to_string(i), i + 1000), 8000 + i * 10,
         i % 5});
    log.phase_events.push_back(
        {PhaseEventRecord::Kind::End,
         PhasePath{}.child("P" + std::to_string(i), i + 1000),
         8000 + i * 10 + 5, i % 5});
  }
  const std::string bytes = encode(log);
  EXPECT_EQ(render(decode_all(bytes)), render(log));
  const G10tStructureParse parsed = parse_g10t_structure(bytes);
  ASSERT_TRUE(parsed.ok());
  std::set<std::string> distinct(parsed.structure.symbols.begin(),
                                 parsed.structure.symbols.end());
  EXPECT_EQ(distinct.size(), parsed.structure.symbols.size());
  EXPECT_EQ(distinct.size(), 400u);
}

TEST(G10tIoTest, SmallBlocksRoundTripAndIndexCoversAllKinds) {
  const ParsedLog log = edge_case_log();
  G10tWriteOptions options;
  options.block_records = 2;  // force several blocks per record kind
  const std::string bytes = encode(log, options);
  const G10tStructureParse parsed = parse_g10t_structure(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.structure.index.size(), 2u + 1u + 3u);
  std::size_t records = 0;
  for (const IndexEntry& entry : parsed.structure.index) {
    records += entry.record_count;
    EXPECT_LE(entry.record_count, 2u);
    EXPECT_LE(entry.time_min, entry.time_max);
    EXPECT_LE(entry.machine_min, entry.machine_max);
  }
  EXPECT_EQ(records, log.phase_events.size() + log.blocking_events.size() +
                         log.samples.size());
  EXPECT_EQ(render(decode_all(bytes)), render(log));
}

TEST(G10tIoTest, IndexRangesAreTight) {
  ParsedLog log;
  log.phase_events.push_back({PhaseEventRecord::Kind::Begin,
                              PhasePath{}.child("Job", 0), 100, 2});
  log.phase_events.push_back(
      {PhaseEventRecord::Kind::End, PhasePath{}.child("Job", 0), 900, 5});
  log.blocking_events.push_back(
      {"GC", PhasePath{}.child("Job", 0), 50, 1200, 3});
  const std::string bytes = encode(log);
  const G10tStructureParse parsed = parse_g10t_structure(bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.structure.index.size(), 2u);
  const IndexEntry& phases = parsed.structure.index[0];
  EXPECT_EQ(phases.kind, BlockKind::kPhase);
  EXPECT_EQ(phases.time_min, 100);
  EXPECT_EQ(phases.time_max, 900);
  EXPECT_EQ(phases.machine_min, 2);
  EXPECT_EQ(phases.machine_max, 5);
  EXPECT_NE(phases.name_bloom & name_bloom_bit("Job"), 0u);
  // Blocking entries span [begin, end], and sample-free blocks bloom over
  // the blocking resource name.
  const IndexEntry& blocking = parsed.structure.index[1];
  EXPECT_EQ(blocking.kind, BlockKind::kBlocking);
  EXPECT_EQ(blocking.time_min, 50);
  EXPECT_EQ(blocking.time_max, 1200);
}

TEST(G10tIoTest, CorruptPayloadFailsDecodeCleanly) {
  const ParsedLog log = edge_case_log();
  std::string bytes = encode(log);
  const G10tStructureParse parsed = parse_g10t_structure(bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(parsed.structure.index.empty());
  const IndexEntry& entry = parsed.structure.index[0];
  bytes[entry.offset + entry.encoded_size / 2] ^= 0x5a;
  DecodedBlock block;
  const auto error =
      decode_block(std::string_view(bytes).substr(entry.offset,
                                                  entry.encoded_size),
                   entry, parsed.structure.symbols, block);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("hash"), std::string::npos);
}

// A checksum-valid block whose path dictionary holds a path the text
// parser would reject (depth 0, an empty type, a '/' inside a type, a
// negative index) is a corrupt block, not a record: the analysis assumes
// every path has a leaf and renders to a unique string.
TEST(G10tIoTest, InvalidDictionaryPathsFailDecode) {
  PhasePath slash;
  slash.elements.push_back({"Job/Step", 0});
  PhasePath empty_type;
  empty_type.elements.push_back({"", 1});
  const PhasePath negative = PhasePath{}.child("Job", -1);
  for (const PhasePath& bad : {PhasePath{}, slash, empty_type, negative}) {
    ParsedLog log;
    log.phase_events.push_back({PhaseEventRecord::Kind::Begin, bad, 0, 0});
    const std::string bytes = encode(log);
    const G10tStructureParse parsed = parse_g10t_structure(bytes);
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed.structure.index.size(), 1u);
    const IndexEntry& entry = parsed.structure.index[0];
    DecodedBlock block;
    const auto error = decode_block(
        std::string_view(bytes).substr(entry.offset, entry.encoded_size),
        entry, parsed.structure.symbols, block);
    ASSERT_TRUE(error.has_value()) << bad.to_string();
    EXPECT_NE(error->find("path dictionary"), std::string::npos) << *error;
  }
}

TEST(G10tIoTest, TruncatedSectionsAreErrors) {
  const std::string bytes = encode(edge_case_log());
  // Every strict prefix must fail with an error, never crash. (Prefixes
  // shorter than the header already fail there; this sweeps the section
  // parsing too.)
  for (std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                           kG10tHeaderSize + 3, kG10tHeaderSize}) {
    const G10tStructureParse parsed =
        parse_g10t_structure(std::string_view(bytes).substr(0, keep));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << keep << " bytes";
  }
}

TEST(G10tIoTest, HugeBlockCountIsAnErrorNotAnAllocation) {
  // Minimized from the seeded mutation test: a checksum-valid header whose
  // block count exceeds the index size used to throw std::length_error from
  // the index reserve().
  std::string bytes = encode(edge_case_log());
  HeaderParse header = decode_header(bytes, bytes.size());
  ASSERT_TRUE(header.ok());
  header.header.block_count = std::uint64_t{1} << 62;
  bytes.replace(0, kG10tHeaderSize, encode_header(header.header));
  G10tStructureParse parsed;
  ASSERT_NO_THROW(parsed = parse_g10t_structure(bytes));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error->find("block count"), std::string::npos)
      << *parsed.error;
}

TEST(G10tIoTest, LooksLikeG10tSniffsMagicOnly) {
  EXPECT_TRUE(looks_like_g10t(encode(ParsedLog{})));
  EXPECT_FALSE(looks_like_g10t("# grade10 trace log v1\n"));
  EXPECT_FALSE(looks_like_g10t("G10TRC"));  // shorter than the magic
  EXPECT_FALSE(looks_like_g10t(""));
}

/// FNV-1a digests of every golden trace's `.g10t` conversion, at the
/// default block size and at 7 records per block (slices that cut across
/// kinds and leave a short last block). They pin the writer's bytes: the
/// symbol order, the path dictionaries, the bloom bits and the index.
struct GoldenDigest {
  const char* name;
  std::uint64_t default_blocks;
  std::uint64_t blocks_of_7;
};

constexpr GoldenDigest kGoldenDigests[] = {
    {"dataflow_3stage_s99.log", 0x4ecac1262f741f0full, 0x083ffb03469493adull},
    {"gas_pagerank_d512_s99_batched.log", 0x4da2e54d42f368deull,
     0x359f32e0e1c744aeull},
    {"gas_pagerank_d512_s99_crash_between_steps.log", 0x37e50dc3485402dcull,
     0x09b955508e125df5ull},
    {"gas_pagerank_d512_s99_faulted.log", 0xe34a0c964e07c7fdull,
     0xfdebfc2d577f4ff0ull},
    {"gas_pagerank_d512_s99_faulted_truncated.log", 0xdfbc03b62a807435ull,
     0x8b80711f6132bd07ull},
    {"pregel_pagerank_d512_s99_batched.log", 0x2aff2cd0f28fbb7aull,
     0xe12362273a500123ull},
    {"pregel_pagerank_d512_s99_faulted.log", 0x7008776f37207bdeull,
     0x436726ba6f282b70ull},
    {"pregel_pagerank_d512_s99_faulted_lossy.log", 0x2eac8e1693d4250dull,
     0xf0a317c4c63d75c9ull},
    {"pregel_pagerank_d512_s99_faulted_truncated.log", 0x887ea870b4c7d270ull,
     0x2ce5688289c733f0ull},
    {"pregel_sssp_d512_s99.log", 0x29bf9310a760e3caull, 0x405df776b03e4fbaull},
};

std::uint64_t digest(const std::string& bytes) {
  return fnv1a64(kFnvOffsetBasis, bytes.data(), bytes.size());
}

TEST(G10tIoTest, GoldenConversionsKeepTheirBytes) {
  for (const GoldenDigest& golden : kGoldenDigests) {
    SCOPED_TRACE(golden.name);
    std::ifstream in(std::string(G10_GOLDEN_TRACE_DIR) + "/" + golden.name,
                     std::ios::binary);
    ASSERT_TRUE(in) << golden.name;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const ParseResult parsed = parse_log_text(text);
    ASSERT_TRUE(parsed.ok());
    const std::uint64_t whole = digest(encode(parsed.log));
    const std::uint64_t sevens = digest(encode(parsed.log, {7}));
    EXPECT_EQ(whole, golden.default_blocks) << std::hex << whole;
    EXPECT_EQ(sevens, golden.blocks_of_7) << std::hex << sevens;
  }
}

}  // namespace
}  // namespace g10::trace
