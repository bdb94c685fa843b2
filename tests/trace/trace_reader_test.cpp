// The format-independent TraceReader: text-vs-binary identity over the
// golden engine traces, pipe-vs-file identity, identity across decode
// thread counts and re-reads, filter equivalence across formats, node-log
// parity (the same records and the same node ids whatever the format,
// thread count or filter), and corrupt-block and damaged-line
// strict/lenient semantics.
#include "trace/trace_reader.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/det_hash.hpp"
#include "trace/g10t_io.hpp"
#include "trace/mapped_file.hpp"

namespace g10::trace {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(G10_GOLDEN_TRACE_DIR) + "/" + name;
}

const std::vector<std::string>& golden_logs() {
  static const std::vector<std::string> logs = {
      "pregel_pagerank_d512_s99_batched.log",
      "gas_pagerank_d512_s99_batched.log",
      "dataflow_3stage_s99.log",
  };
  return logs;
}

std::filesystem::path test_root() {
  static const std::filesystem::path root = [] {
    auto path = std::filesystem::temp_directory_path() /
                ("g10_trace_reader_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
  }();
  return root;
}

std::string render(const ParsedLog& log) {
  std::ostringstream os;
  write_log(os, log.phase_events, log.blocking_events, log.samples, log.meta);
  return os.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Converts a text golden to .g10t once; cached across tests.
std::string binary_of(const std::string& name,
                      std::size_t block_records = 64) {
  const std::string out =
      (test_root() / (name + "." + std::to_string(block_records) + ".g10t"))
          .string();
  if (!std::filesystem::exists(out)) {
    const ParseResult parsed = read_trace_file(golden_path(name));
    EXPECT_TRUE(parsed.ok());
    G10tWriteOptions options;
    options.block_records = block_records;  // several blocks per kind
    std::string error;
    EXPECT_TRUE(write_g10t_file(out, parsed.log, options, &error)) << error;
  }
  return out;
}

/// Writes `payload` to `fd` and closes it. A reader that goes away early
/// ends the write (EPIPE) instead of blocking it forever.
void write_all_and_close(int fd, const std::string& payload) {
  std::size_t done = 0;
  while (done < payload.size()) {
    const ssize_t n =
        ::write(fd, payload.data() + done, payload.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

/// A pipe that a thread fills with `payload`; path() names its read end
/// (/dev/fd/N), the way a shell's process substitution hands a pipe to a
/// tool.
class PipedCopy {
 public:
  explicit PipedCopy(std::string payload) {
    std::signal(SIGPIPE, SIG_IGN);
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd_ = fds[0];
    writer_ = std::thread([fd = fds[1], payload = std::move(payload)] {
      write_all_and_close(fd, payload);
    });
  }
  ~PipedCopy() {
    ::close(read_fd_);
    writer_.join();
  }
  std::string path() const { return "/dev/fd/" + std::to_string(read_fd_); }

 private:
  int read_fd_ = -1;
  std::thread writer_;
};

TEST(TraceReaderTest, SniffsFormatsFromBytes) {
  const TraceReader::OpenResult text =
      TraceReader::open(golden_path(golden_logs()[0]));
  ASSERT_TRUE(text.ok());
  EXPECT_FALSE(text.reader->is_binary());
  const TraceReader::OpenResult binary =
      TraceReader::open(binary_of(golden_logs()[0]));
  ASSERT_TRUE(binary.ok());
  EXPECT_TRUE(binary.reader->is_binary());

  // The extension decides nothing: a .g10t named *.log reads as binary and
  // a text log named *.g10t reads as text, each to its original records.
  const auto overwrite = std::filesystem::copy_options::overwrite_existing;
  const std::string binary_as_log = (test_root() / "renamed.log").string();
  std::filesystem::copy_file(binary_of(golden_logs()[0]), binary_as_log,
                             overwrite);
  const std::string text_as_g10t = (test_root() / "renamed.g10t").string();
  std::filesystem::copy_file(golden_path(golden_logs()[0]), text_as_g10t,
                             overwrite);
  const TraceReader::OpenResult renamed_binary =
      TraceReader::open(binary_as_log);
  ASSERT_TRUE(renamed_binary.ok());
  EXPECT_TRUE(renamed_binary.reader->is_binary());
  const TraceReader::OpenResult renamed_text = TraceReader::open(text_as_g10t);
  ASSERT_TRUE(renamed_text.ok());
  EXPECT_FALSE(renamed_text.reader->is_binary());
  const std::string original =
      render(read_trace_file(golden_path(golden_logs()[0])).log);
  EXPECT_EQ(render(read_trace_file(binary_as_log).log), original);
  EXPECT_EQ(render(read_trace_file(text_as_g10t).log), original);
}

TEST(TraceReaderTest, BinaryReadIsByteIdenticalToTextForEveryGolden) {
  for (const std::string& name : golden_logs()) {
    const ParseResult text = read_trace_file(golden_path(name));
    ASSERT_TRUE(text.ok()) << name;
    const ParseResult binary = read_trace_file(binary_of(name));
    ASSERT_TRUE(binary.ok()) << name;
    EXPECT_EQ(render(binary.log), render(text.log)) << name;
  }
}

TEST(TraceReaderTest, PipedReadMatchesFileReadForEveryGolden) {
  for (const std::string& name : golden_logs()) {
    for (const std::string& path : {golden_path(name), binary_of(name)}) {
      const ParseResult mapped = read_trace_file(path);
      ASSERT_TRUE(mapped.ok()) << path;
      const PipedCopy pipe(file_bytes(path));
      const ParseResult piped = read_trace_file(pipe.path());
      ASSERT_TRUE(piped.ok()) << path;
      EXPECT_FALSE(piped.log.phase_events.empty()) << path;
      EXPECT_EQ(render(piped.log), render(mapped.log)) << path;
    }
  }
}

TEST(TraceReaderTest, FifoReadMatchesFileRead) {
  std::signal(SIGPIPE, SIG_IGN);
  const std::string path = binary_of(golden_logs()[1]);
  const std::string fifo = (test_root() / "trace.fifo").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] {
    // Blocks until the reader opens the FIFO.
    write_all_and_close(::open(fifo.c_str(), O_WRONLY), file_bytes(path));
  });
  const ParseResult piped = read_trace_file(fifo);
  writer.join();
  ASSERT_TRUE(piped.ok());
  EXPECT_EQ(render(piped.log), render(read_trace_file(path).log));
}

TEST(TraceReaderTest, PipeLargerThanThePipeBufferIsReadWhole) {
  std::string payload;
  for (int i = 0; payload.size() < (1u << 20); ++i) {
    payload += "line " + std::to_string(i) + "\n";
  }
  const PipedCopy pipe(payload);
  MappedFile file;
  ASSERT_FALSE(MappedFile::open(pipe.path(), file).has_value());
  EXPECT_TRUE(file.is_open());
  EXPECT_FALSE(file.is_mapped());
  EXPECT_EQ(file.size(), payload.size());
  EXPECT_EQ(file.bytes(), payload);
}

TEST(TraceReaderTest, BinaryReadIsIdenticalAtEveryThreadCount) {
  for (const std::string& name : golden_logs()) {
    const std::string path = binary_of(name, 16);  // many small blocks
    TraceReadOptions serial;
    serial.threads = 1;
    const ParseResult baseline = read_trace_file(path, serial);
    ASSERT_TRUE(baseline.ok()) << name;
    for (const int threads : {2, 4}) {
      TraceReadOptions options;
      options.threads = threads;
      const ParseResult parallel = read_trace_file(path, options);
      ASSERT_TRUE(parallel.ok()) << name;
      EXPECT_EQ(render(parallel.log), render(baseline.log))
          << name << " at " << threads << " threads";
    }
  }
}

TEST(TraceReaderTest, UnfilteredReadDecodesEveryBlockAndRereadsIdentically) {
  TraceReadOptions options;
  options.threads = 4;
  TraceReader::OpenResult opened =
      TraceReader::open(binary_of(golden_logs()[1], 16), options);
  ASSERT_TRUE(opened.ok()) << *opened.error;
  const ParseResult first = opened.reader->read();
  ASSERT_TRUE(first.ok());
  const TraceReadStats stats = opened.reader->stats();
  EXPECT_GT(stats.blocks_read, 1u);
  EXPECT_EQ(stats.blocks_decoded, stats.blocks_read);
  EXPECT_EQ(stats.blocks_total, stats.blocks_read + stats.blocks_skipped);

  const ParseResult second = opened.reader->read();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(render(second.log), render(first.log));
}

TEST(TraceReaderTest, FiltersMatchAcrossFormats) {
  TraceFilter machines;
  machines.machines = {0, 2};
  TraceFilter window;
  window.time_min = 1'000'000;
  window.time_max = 50'000'000;
  TraceFilter typed;
  typed.phase_types = {"Superstep"};
  typed.ancestor_types = {"Execute", "Job"};
  for (const TraceFilter& filter : {machines, window, typed}) {
    for (const std::string& name : golden_logs()) {
      const ParseResult text = read_trace_file(golden_path(name), {}, filter);
      const ParseResult binary =
          read_trace_file(binary_of(name), {}, filter);
      ASSERT_TRUE(text.ok());
      ASSERT_TRUE(binary.ok());
      EXPECT_EQ(render(binary.log), render(text.log)) << name;
    }
  }
}

TEST(TraceReaderTest, PhaseFilterKeepsSubtreePlusAncestorChainOnly) {
  TraceFilter filter;
  filter.phase_types = {"Superstep"};
  filter.ancestor_types = {"Execute", "Job"};
  const ParseResult sliced = read_trace_file(
      golden_path("pregel_pagerank_d512_s99_batched.log"), {}, filter);
  ASSERT_TRUE(sliced.ok());
  ASSERT_FALSE(sliced.log.phase_events.empty());
  bool saw_superstep = false;
  for (const PhaseEventRecord& rec : sliced.log.phase_events) {
    // Sibling subtrees under the kept ancestors must not leak in.
    EXPECT_EQ(rec.path.to_string().find("LoadGraph"), std::string::npos);
    EXPECT_EQ(rec.path.to_string().find("StoreResults"), std::string::npos);
    for (const PathElement& element : rec.path.elements) {
      saw_superstep |= element.type == "Superstep";
    }
  }
  EXPECT_TRUE(saw_superstep);
}

TEST(TraceReaderTest, FilteredBinaryReadSkipsBlocks) {
  const std::string path = binary_of(golden_logs()[0], 16);
  TraceReader::OpenResult opened = TraceReader::open(path, {});
  ASSERT_TRUE(opened.ok());
  TraceFilter filter;
  filter.time_min = 0;
  filter.time_max = 1;  // virtually nothing overlaps
  const ParseResult result = opened.reader->read(filter);
  ASSERT_TRUE(result.ok());
  const auto stats = opened.reader->stats();
  EXPECT_GT(stats.blocks_total, 1u);
  EXPECT_GT(stats.blocks_skipped, 0u)
      << "index-based seek never rejected a block";
}

TEST(TraceReaderTest, UnfilteredReadKeepsNegativeTimeBlocks) {
  // Minimized from the seeded mutation test: a block holding only
  // negative-time records was skipped by an unfiltered read, so a decoded
  // trace did not survive re-encoding.
  ParsedLog log;
  log.samples = {MonitoringSampleRecord{"cpu", 0, 5, 1.0},
                 MonitoringSampleRecord{"cpu", 0, -12, 2.0}};
  const std::string path = (test_root() / "negative_time.g10t").string();
  G10tWriteOptions options;
  options.block_records = 1;
  std::string error;
  ASSERT_TRUE(write_g10t_file(path, log, options, &error)) << error;
  const ParseResult read = read_trace_file(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(render(read.log), render(log));
}

TEST(TraceReaderTest, BufferedTinyFileSurvivesMove) {
  // Inputs below std::string's SSO capacity live in the buffer's inline
  // storage; regression for a move that left the view pointing at the
  // moved-from object's inline bytes. A pipe is read, never mapped.
  const std::string payload = "ab\tc\n";  // well under SSO capacity
  const PipedCopy pipe(payload);
  MappedFile source;
  ASSERT_FALSE(MappedFile::open(pipe.path(), source).has_value());
  MappedFile moved(std::move(source));
  MappedFile assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(moved.is_open());
  EXPECT_TRUE(assigned.is_open());
  EXPECT_FALSE(assigned.is_mapped());
  EXPECT_EQ(assigned.bytes(), payload);
}

TEST(TraceReaderTest, MissingFileReportsErrnoText) {
  const ParseResult result =
      read_trace_file((test_root() / "nope.g10t").string());
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line_number, 0u);
  EXPECT_NE(result.errors[0].message.find("nope.g10t"), std::string::npos);
  EXPECT_NE(result.errors[0].message.find("No such file"), std::string::npos);
}

TEST(TraceReaderTest, CorruptHeaderIsAnOpenError) {
  const std::string path = (test_root() / "corrupt_header.g10t").string();
  std::string bytes = file_bytes(binary_of(golden_logs()[0]));
  bytes[30] ^= 0x7f;
  std::ofstream(path, std::ios::binary) << bytes;
  TraceReader::OpenResult opened = TraceReader::open(path, {});
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(opened.error->find(path), std::string::npos);
}

struct CorruptTrace {
  std::string path;
  std::size_t victim = 0;  ///< ordinal of the damaged block
};

/// Corrupts the payload of one middle block; the header and index stay
/// intact so only that block fails to decode.
CorruptTrace corrupt_one_block(const std::string& name) {
  const std::string path = (test_root() / (name + ".corrupt.g10t")).string();
  std::string bytes = file_bytes(binary_of(name, 16));
  const G10tStructureParse parsed = parse_g10t_structure(bytes);
  EXPECT_TRUE(parsed.ok());
  EXPECT_GT(parsed.structure.index.size(), 2u);
  const std::size_t victim = parsed.structure.index.size() / 2;
  const IndexEntry& entry = parsed.structure.index[victim];
  bytes[entry.offset + entry.encoded_size / 2] ^= 0x33;
  std::ofstream(path, std::ios::binary) << bytes;
  return {path, victim};
}

/// Cuts the last byte off the payload of a blocking block and
/// re-hashes the payload, so the block passes its checksum, decodes its
/// path ids, resources and intervals, and only then fails: its machine
/// column is truncated.
CorruptTrace truncate_one_blocking_block(const std::string& name) {
  const std::string path = (test_root() / (name + ".truncated.g10t")).string();
  const std::string bytes = file_bytes(binary_of(name, 16));
  const G10tStructureParse parsed = parse_g10t_structure(bytes);
  EXPECT_TRUE(parsed.ok());
  std::vector<IndexEntry> index = parsed.structure.index;
  std::vector<std::size_t> blocking;
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (index[i].kind == BlockKind::kBlocking) blocking.push_back(i);
  }
  const std::size_t victim = blocking.at(blocking.size() / 2);
  EXPECT_LT(victim + 1, index.size());  // blocks follow it
  IndexEntry& entry = index[victim];
  entry.encoded_size -= 1;
  entry.payload_hash =
      fnv1a64(kFnvOffsetBasis, bytes.data() + entry.offset, entry.encoded_size);
  // The index is the file's last section; the header checksums it.
  std::string index_bytes;
  for (const IndexEntry& e : index) encode_index_entry(index_bytes, e);
  std::string out =
      bytes.substr(0, parsed.structure.header.index_offset) + index_bytes;
  FileHeader header = parsed.structure.header;
  header.index_size = index_bytes.size();
  header.file_size = out.size();
  out.replace(0, kG10tHeaderSize, encode_header(header));
  std::ofstream(path, std::ios::binary) << out;
  return {path, victim};
}

/// The records of the blocks of the intact conversion of `name` whose
/// ordinals `keep` accepts, in block order.
template <typename Keep>
ParsedLog intact_blocks(const std::string& name, Keep keep) {
  const std::string bytes = file_bytes(binary_of(name, 16));
  const G10tStructureParse parsed = parse_g10t_structure(bytes);
  EXPECT_TRUE(parsed.ok());
  ParsedLog log;
  log.meta = parsed.structure.meta;
  for (std::size_t i = 0; i < parsed.structure.index.size(); ++i) {
    if (!keep(i)) continue;
    const IndexEntry& entry = parsed.structure.index[i];
    DecodedBlock block;
    EXPECT_FALSE(decode_block(bytes.substr(entry.offset, entry.encoded_size),
                              entry, parsed.structure.symbols, block)
                     .has_value());
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

/// The records of blocks [0, end) of the intact conversion of `name`.
ParsedLog blocks_before(const std::string& name, std::size_t end) {
  return intact_blocks(name, [end](std::size_t i) { return i < end; });
}

TEST(TraceReaderTest, CorruptBlockStopsAStrictRead) {
  const std::string name = golden_logs()[0];
  const CorruptTrace corrupt = corrupt_one_block(name);
  const std::string expected = render(blocks_before(name, corrupt.victim));
  for (const int threads : {1, 4}) {
    TraceReadOptions strict;
    strict.recover = false;
    strict.threads = threads;
    const ParseResult result = read_trace_file(corrupt.path, strict);
    ASSERT_FALSE(result.ok());
    ASSERT_FALSE(result.errors.empty());
    // The 1-based block ordinal: block errors must not masquerade as
    // file-level (line 0) errors.
    EXPECT_EQ(result.errors[0].line_number, corrupt.victim + 1) << threads;
    EXPECT_NE(result.errors[0].message.find("block"), std::string::npos);
    EXPECT_EQ(result.error_count, 1u) << threads;
    // Exactly the blocks before the victim: a block decoded in parallel
    // after it never leaks into the result.
    EXPECT_EQ(render(result.log), expected) << threads;
  }
}

TEST(TraceReaderTest, CorruptBlockIsSkippedWhenRecovering) {
  const std::string name = golden_logs()[0];
  const std::string path = corrupt_one_block(name).path;
  TraceReadOptions recover;
  recover.recover = true;
  const ParseResult damaged = read_trace_file(path, recover);
  EXPECT_EQ(damaged.error_count, 1u);
  const ParseResult intact = read_trace_file(binary_of(name, 16));
  ASSERT_TRUE(intact.ok());
  // Exactly one block's records are missing; everything else survives.
  EXPECT_LT(damaged.log.phase_events.size() + damaged.log.samples.size(),
            intact.log.phase_events.size() + intact.log.samples.size());
  EXPECT_GT(damaged.log.phase_events.size(), 0u);
}

// A checksum-valid blocking block that fails to decode only in its last
// column contributes nothing: none of its half-decoded events reach a
// recovering read, and a strict read holds exactly the blocks before it.
TEST(TraceReaderTest, LateFailingBlockAddsNoEvents) {
  const std::string name = "pregel_pagerank_d512_s99_faulted_lossy.log";
  const CorruptTrace corrupt = truncate_one_blocking_block(name);
  const std::string before = render(blocks_before(name, corrupt.victim));
  const std::string others = render(intact_blocks(
      name, [&corrupt](std::size_t i) { return i != corrupt.victim; }));
  for (const int threads : {1, 4}) {
    TraceReadOptions strict;
    strict.recover = false;
    strict.threads = threads;
    const ParseResult stopped = read_trace_file(corrupt.path, strict);
    ASSERT_FALSE(stopped.ok());
    ASSERT_EQ(stopped.errors.size(), 1u);
    EXPECT_EQ(stopped.errors[0].line_number, corrupt.victim + 1) << threads;
    EXPECT_NE(stopped.errors[0].message.find("truncated machine column"),
              std::string::npos)
        << stopped.errors[0].message;
    EXPECT_EQ(render(stopped.log), before) << threads;

    TraceReadOptions recover;
    recover.recover = true;
    recover.threads = threads;
    const ParseResult skipped = read_trace_file(corrupt.path, recover);
    EXPECT_EQ(skipped.error_count, 1u) << threads;
    EXPECT_EQ(render(skipped.log), others) << threads;
  }
}

// A checksum-valid file whose path dictionary holds the empty path (which
// the analysis used to dereference as if it had a leaf): a strict read
// fails on the block, a recovering read skips it.
TEST(TraceReaderTest, EmptyDictionaryPathIsACorruptBlock) {
  ParsedLog log;
  log.phase_events.push_back({PhaseEventRecord::Kind::Begin, PhasePath{}, 0,
                              kGlobalMachine});
  const std::string path = (test_root() / "empty_path.g10t").string();
  std::string error;
  ASSERT_TRUE(write_g10t_file(path, log, {}, &error)) << error;

  const ParseResult strict = read_trace_file(path, {});
  ASSERT_FALSE(strict.ok());
  ASSERT_FALSE(strict.errors.empty());
  EXPECT_EQ(strict.errors[0].line_number, 1u);  // the first block
  EXPECT_NE(strict.errors[0].message.find("empty phase path"),
            std::string::npos)
      << strict.errors[0].message;

  TraceReadOptions recover;
  recover.recover = true;
  const ParseResult skipped = read_trace_file(path, recover);
  EXPECT_EQ(skipped.error_count, 1u);
  EXPECT_TRUE(skipped.log.phase_events.empty());
}

// ---- node-log parity ------------------------------------------------------

/// Every golden log, in name order.
std::vector<std::string> all_golden_logs() {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(G10_GOLDEN_TRACE_DIR)) {
    if (entry.path().extension() == ".log") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Same nodes, in the same order, and the same events naming them.
void expect_same_nodes(const NodeLog& a, const NodeLog& b) {
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (PathIndex::NodeId node = 1;
       static_cast<std::size_t>(node) < a.paths.size(); ++node) {
    ASSERT_EQ(a.paths.parent(node), b.paths.parent(node)) << node;
    ASSERT_EQ(a.paths.type_name(a.paths.type_id(node)),
              b.paths.type_name(b.paths.type_id(node)))
        << node;
    ASSERT_EQ(a.paths.index(node), b.paths.index(node)) << node;
  }
  ASSERT_EQ(a.phase_events.size(), b.phase_events.size());
  for (std::size_t i = 0; i < a.phase_events.size(); ++i) {
    ASSERT_EQ(a.phase_events[i].node, b.phase_events[i].node) << i;
  }
  ASSERT_EQ(a.blocking_events.size(), b.blocking_events.size());
  for (std::size_t i = 0; i < a.blocking_events.size(); ++i) {
    ASSERT_EQ(a.blocking_events[i].node, b.blocking_events[i].node) << i;
    ASSERT_EQ(a.resources[a.blocking_events[i].resource],
              b.resources[b.blocking_events[i].resource])
        << i;
  }
}

/// The machine, phase-type (with its ancestor chain), and time-window
/// filters, and no filter, for the golden `name`: the phase type is the
/// third element of the first path at least three deep.
std::vector<TraceFilter> filters_for(const std::string& name) {
  TraceFilter none;
  TraceFilter machines;
  machines.machines = {0, 2};
  TraceFilter window;
  window.time_min = 1'000'000;
  window.time_max = 50'000'000;
  TraceFilter typed;
  const ParseResult all = read_trace_file(golden_path(name));
  for (const PhaseEventRecord& rec : all.log.phase_events) {
    if (rec.path.depth() < 3) continue;
    typed.phase_types = {rec.path.elements[2].type};
    typed.ancestor_types = {rec.path.elements[1].type,
                            rec.path.elements[0].type};
    break;
  }
  EXPECT_FALSE(typed.phase_types.empty()) << name;
  return {none, machines, typed, window};
}

/// The text golden's records with `filter` applied record by record: the
/// reference every filtered read must render to.
std::string filtered_records(const std::string& name,
                             const TraceFilter& filter) {
  ParsedLog log = read_trace_file(golden_path(name)).log;
  std::erase_if(log.phase_events, [&](const PhaseEventRecord& rec) {
    return !filter.matches(rec);
  });
  std::erase_if(log.blocking_events, [&](const BlockingEventRecord& rec) {
    return !filter.matches(rec);
  });
  std::erase_if(log.samples, [&](const MonitoringSampleRecord& rec) {
    return !filter.matches(rec);
  });
  return render(log);
}

TEST(TraceReaderTest, NodeReadsMatchRecordsInEveryFormatThreadCountAndFilter) {
  for (const std::string& name : all_golden_logs()) {
    SCOPED_TRACE(name);
    for (const TraceFilter& filter : filters_for(name)) {
      const std::string expected = filtered_records(name, filter);
      std::optional<NodeLog> baseline;
      for (const std::string& path : {golden_path(name), binary_of(name, 16)}) {
        for (const int threads : {1, 2, 4}) {
          SCOPED_TRACE(path + " at " + std::to_string(threads) + " threads");
          TraceReadOptions options;
          options.threads = threads;
          options.min_chunk_bytes = 512;  // several text chunks
          NodeParseResult nodes = read_trace_nodes(path, options, filter);
          ASSERT_TRUE(nodes.ok());
          EXPECT_EQ(render(render_log(nodes.log)), expected);
          const ParseResult records = read_trace_file(path, options, filter);
          ASSERT_TRUE(records.ok());
          EXPECT_EQ(render(records.log), expected);
          if (!baseline) {
            baseline = std::move(nodes.log);
          } else {
            expect_same_nodes(nodes.log, *baseline);
          }
        }
      }
      // Interning the records gives the readers' nodes too.
      ASSERT_TRUE(baseline.has_value());
      expect_same_nodes(intern_log(read_trace_file(golden_path(name), {},
                                                   filter)
                                       .log),
                        *baseline);
    }
  }
}

TEST(TraceReaderTest, StrictNodeReadStopsAtTheSameFirstBadLine) {
  for (const std::string& name : all_golden_logs()) {
    SCOPED_TRACE(name);
    const std::string text = file_bytes(golden_path(name));
    // A malformed path about two thirds in, then a second bad line.
    std::size_t cut = text.find('\n', text.size() * 2 / 3) + 1;
    const std::string prefix = text.substr(0, cut);
    const std::string damaged = prefix + "PHASE\tB\tJob.0//Execute.0\t5\t0\n" +
                                text.substr(cut) + "BOGUS\n";
    const std::string path = (test_root() / (name + ".damaged.log")).string();
    std::ofstream(path, std::ios::binary) << damaged;
    const std::size_t bad_line =
        static_cast<std::size_t>(std::count(prefix.begin(), prefix.end(),
                                            '\n')) +
        1;
    const std::string expected = render(parse_log_text(prefix).log);
    std::optional<NodeLog> baseline;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      TraceReadOptions strict;
      strict.threads = threads;
      strict.min_chunk_bytes = 512;
      NodeParseResult nodes = read_trace_nodes(path, strict);
      ASSERT_EQ(nodes.error_count, 1u);
      ASSERT_EQ(nodes.errors.size(), 1u);
      EXPECT_EQ(nodes.errors[0].line_number, bad_line);
      EXPECT_EQ(nodes.errors[0].message, "malformed phase path");
      EXPECT_EQ(render(render_log(nodes.log)), expected);
      if (!baseline) {
        baseline = std::move(nodes.log);
      } else {
        expect_same_nodes(nodes.log, *baseline);
      }
    }
  }
}

}  // namespace
}  // namespace g10::trace
