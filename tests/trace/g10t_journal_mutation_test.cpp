// Deterministic mutation test of the two machine-written inputs the tools
// read back: `.g10t` traces and the ensemble's run journal. Both must turn
// arbitrary damage into an error, never a crash or a silently different
// record.
//
// `.g10t`: the engine goldens, encoded in memory with small blocks, are
// damaged byte-wise (edits, truncation) and structurally (a header field, a
// block payload or an index entry edited behind a recomputed checksum or
// hash, so the damage gets past the framing checks). Then
//  - parse_g10t_structure and decode_block never throw;
//  - a block that decodes holds no more records than its index entry's
//    record_count;
//  - a strict read either fails, or its records re-encode and read back
//    unchanged;
//  - a recovering read (g10_analyze's) and a recovering read filtered by a
//    machine and a time window never throw; the recovering read reports
//    an error whenever the strict read failed; every filtered record
//    matches the filter and appears, in order, in the unfiltered read;
//  - the build of the recovering read's node log (g10_analyze's input)
//    against the golden's example model and the build of its records
//    agree, strict and lenient, on every defect, the verdict, the warnings
//    and the instance tree.
//
// Journal: lines built with journal_line are damaged (bytes, truncation,
// number tokens replaced). Then
//  - parse_journal_line never throws;
//  - a parsed entry round-trips through journal_line;
//  - read_journal over a damaged file accounts for every non-empty line as
//    an entry or a dropped line.
//
// The mutants come from fixed seeds, so a failure reproduces exactly; the
// failing mutant is printed with it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/det_hash.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "../grade10/build_parity.hpp"
#include "ensemble/journal.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/trace/execution_trace.hpp"
#include "trace/g10t_format.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"
#include "trace/trace_reader.hpp"

namespace g10 {
namespace {

constexpr std::uint64_t kSeed = 20201017;
constexpr int kMutantsPerTrace = 60;
constexpr int kJournalLineMutants = 600;
constexpr int kJournalFileMutants = 40;
/// Small blocks give every golden several index entries to damage.
constexpr std::size_t kBlockRecords = 256;

std::filesystem::path test_root() {
  static const std::filesystem::path root = [] {
    auto path = std::filesystem::temp_directory_path() /
                ("g10_mutation_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
  }();
  return root;
}

void write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A byte that is often a varint continuation, a zero, or an edge value.
char random_byte(Rng& rng) {
  static constexpr unsigned char kEdges[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
  return static_cast<char>(rng.next_bool(0.5)
                               ? kEdges[rng.next_below(std::size(kEdges))]
                               : rng.next_below(256));
}

// ---- .g10t ------------------------------------------------------------------

std::string encode(const trace::ParsedLog& log) {
  std::ostringstream os;
  trace::G10tWriteOptions options;
  options.block_records = kBlockRecords;
  trace::write_g10t(os, log, options);
  return std::move(os).str();
}

/// An engine golden as an in-memory `.g10t` file, with the example model
/// of its engine.
struct Golden {
  std::string g10t;
  core::ModelDescription model;
};

/// Every engine golden, in name order.
std::vector<Golden> g10t_corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(G10_GOLDEN_TRACE_DIR)) {
    if (entry.path().extension() == ".log") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Golden> goldens;
  for (const auto& path : paths) {
    const trace::ParseResult parsed = trace::read_trace_file(path.string());
    EXPECT_TRUE(parsed.ok()) << path;
    const std::string name = path.filename().string();
    std::ifstream model_file(std::string(G10_EXAMPLE_MODEL_DIR) + "/" +
                             name.substr(0, name.find('_')) + ".g10");
    core::ModelParseResult model = core::parse_model(model_file);
    EXPECT_TRUE(model.ok()) << name;
    goldens.push_back({encode(parsed.log), std::move(model.model)});
  }
  return goldens;
}

std::string render(const trace::ParsedLog& log) {
  std::ostringstream os;
  trace::write_log(os, log.phase_events, log.blocking_events, log.samples,
                   log.meta);
  return std::move(os).str();
}

/// A header value: an edge of the range or anything at all.
std::uint64_t random_field(Rng& rng) {
  static constexpr std::uint64_t kEdges[] = {
      0, 1, 88, 4096, std::uint64_t{1} << 32, std::uint64_t{1} << 62,
      ~std::uint64_t{0}};
  return rng.next_bool(0.5) ? kEdges[rng.next_below(std::size(kEdges))]
                            : rng.next();
}

/// `bytes` with `index` as its block index (the file's last section) and a
/// header whose index size, block count, file size and checksum match.
std::string reframe(std::string_view bytes, const trace::FileHeader& header,
                    const std::vector<trace::IndexEntry>& index) {
  std::string index_bytes;
  for (const auto& entry : index) trace::encode_index_entry(index_bytes, entry);
  std::string out(bytes.substr(0, header.index_offset));
  trace::FileHeader h = header;
  h.index_size = index_bytes.size();
  h.block_count = index.size();
  h.file_size = out.size() + index_bytes.size();
  out += index_bytes;
  out.replace(0, trace::kG10tHeaderSize, trace::encode_header(h));
  return out;
}

/// One damaged copy of the well-formed `file`.
std::string mutate_g10t(const std::string& file, Rng& rng) {
  const trace::G10tStructure clean =
      trace::parse_g10t_structure(file).structure;
  std::string out = file;
  std::vector<trace::IndexEntry> index = clean.index;
  trace::IndexEntry& entry = index[rng.next_below(index.size())];
  switch (rng.next_below(6)) {
    case 0:  // bytes edited anywhere
      for (auto n = 1 + rng.next_below(4); n > 0; --n) {
        out[rng.next_below(out.size())] = random_byte(rng);
      }
      return out;
    case 1:  // cut off
      out.resize(rng.next_below(out.size()));
      return out;
    case 2: {  // a header field edited, checksum recomputed
      trace::FileHeader h = clean.header;
      std::uint64_t* fields[] = {&h.symtab_offset, &h.symtab_size,
                                 &h.meta_offset,   &h.meta_size,
                                 &h.index_offset,  &h.index_size,
                                 &h.block_count,   &h.file_size};
      *fields[rng.next_below(std::size(fields))] = random_field(rng);
      out.replace(0, trace::kG10tHeaderSize, trace::encode_header(h));
      return out;
    }
    case 3:  // payload bytes edited, the block's hash recomputed
      for (auto n = 1 + rng.next_below(3); n > 0; --n) {
        out[entry.offset + rng.next_below(entry.encoded_size)] =
            random_byte(rng);
      }
      entry.payload_hash = fnv1a64(kFnvOffsetBasis, out.data() + entry.offset,
                                   entry.encoded_size);
      return reframe(out, clean.header, index);
    case 4:  // the record count off by a little or a lot
      entry.record_count = rng.next_bool(0.5)
                               ? entry.record_count + rng.next_int(-2, 2)
                               : random_field(rng);
      return reframe(out, clean.header, index);
    default:  // another kind, payload or range for the block
      switch (rng.next_below(3)) {
        case 0:
          entry.kind = static_cast<trace::BlockKind>(rng.next_below(3));
          break;
        case 1:
          entry = clean.index[rng.next_below(clean.index.size())];
          break;
        default:
          entry.time_min = rng.next_int(-5, 5);
          entry.machine_max =
              static_cast<trace::MachineId>(rng.next_int(-2, 8));
          break;
      }
      return reframe(out, clean.header, index);
  }
}

/// One record as its text log line.
template <typename Record>
std::string line(const Record& record) {
  std::ostringstream os;
  if constexpr (std::is_same_v<Record, trace::PhaseEventRecord>) {
    trace::write_log(os, {record}, {}, {}, {});
  } else if constexpr (std::is_same_v<Record, trace::BlockingEventRecord>) {
    trace::write_log(os, {}, {record}, {}, {});
  } else {
    trace::write_log(os, {}, {}, {record}, {});
  }
  return std::move(os).str();
}

/// Every record of `filtered` matches `filter` and appears in `all`, in
/// the same order.
template <typename Record>
void expect_filtered(const std::vector<Record>& filtered,
                     const std::vector<Record>& all,
                     const trace::TraceFilter& filter) {
  std::size_t next = 0;
  for (const Record& record : filtered) {
    EXPECT_TRUE(filter.matches(record)) << line(record);
    const std::string text = line(record);
    while (next < all.size() && line(all[next]) != text) ++next;
    EXPECT_LT(next, all.size()) << "not in the unfiltered read: " << text;
    if (next == all.size()) return;
    ++next;
  }
}

/// Checks the `.g10t` invariants of the header comment on one mutant of a
/// trace of `model`'s engine.
void check_g10t(const std::string& bytes,
                const core::ModelDescription& model) {
  trace::G10tStructureParse parsed;
  EXPECT_NO_THROW(parsed = trace::parse_g10t_structure(bytes));
  if (parsed.ok()) {
    for (const trace::IndexEntry& entry : parsed.structure.index) {
      // parse_g10t_structure keeps every payload inside the file.
      const std::string_view payload =
          std::string_view(bytes).substr(entry.offset, entry.encoded_size);
      trace::DecodedBlock block;
      std::optional<std::string> error;
      EXPECT_NO_THROW(error = trace::decode_block(
                          payload, entry, parsed.structure.symbols, block));
      if (!error) {
        EXPECT_LE(block.phase_events.size() + block.blocking_events.size() +
                      block.samples.size(),
                  entry.record_count);
      }
    }
  }

  trace::TraceReadOptions strict;
  strict.threads = 1;
  const std::filesystem::path path = test_root() / "mutant.g10t";
  write_file(path, bytes);
  trace::ParseResult read;
  EXPECT_NO_THROW(read = trace::read_trace_file(path.string(), strict));

  // The recovering reads g10_analyze makes: unfiltered, and filtered by a
  // machine and a time window.
  trace::TraceReadOptions recover = strict;
  recover.recover = true;
  trace::ParseResult recovered;
  EXPECT_NO_THROW(recovered = trace::read_trace_file(path.string(), recover));
  if (!read.ok()) {
    EXPECT_GE(recovered.error_count, 1u);
  }
  trace::NodeParseResult nodes;
  EXPECT_NO_THROW(nodes = trace::read_trace_nodes(path.string(), recover));
  EXPECT_EQ(nodes.error_count, recovered.error_count);
  for (const bool lenient : {false, true}) {
    core::ExecutionTrace::Options options;
    options.lenient = lenient;
    core::testing::expect_same_build(
        core::ExecutionTrace::build_checked(model.execution, model.resources,
                                            nodes.log, options),
        core::ExecutionTrace::build_checked(
            model.execution, model.resources, recovered.log.phase_events,
            recovered.log.blocking_events, recovered.log.samples, options));
  }
  trace::TraceFilter filter;
  filter.machines = {1};
  filter.time_min = 1'000'000;
  filter.time_max = 200'000'000;
  trace::ParseResult filtered;
  EXPECT_NO_THROW(filtered = trace::read_trace_file(path.string(), recover,
                                                    filter));
  expect_filtered(filtered.log.phase_events, recovered.log.phase_events,
                  filter);
  expect_filtered(filtered.log.blocking_events,
                  recovered.log.blocking_events, filter);
  expect_filtered(filtered.log.samples, recovered.log.samples, filter);
  if (!read.ok()) return;
  const std::filesystem::path again_path = test_root() / "reencoded.g10t";
  write_file(again_path, encode(read.log));
  const trace::ParseResult again =
      trace::read_trace_file(again_path.string(), strict);
  ASSERT_TRUE(again.ok()) << again.errors.front().message;
  EXPECT_EQ(render(again.log), render(read.log));
}

TEST(G10tMutationTest, DamagedTracesFailCleanlyOrRoundTrip) {
  const std::vector<Golden> corpus = g10t_corpus();
  ASSERT_GE(corpus.size(), 5u);
  Rng rng(kSeed);
  for (std::size_t f = 0; f < corpus.size(); ++f) {
    for (int i = 0; i < kMutantsPerTrace; ++i) {
      const std::string mutant = mutate_g10t(corpus[f].g10t, rng);
      check_g10t(mutant, corpus[f].model);
      if (HasFailure()) {
        FAIL() << "golden " << f << " mutant " << i << " ("
               << mutant.size() << " bytes)";
      }
    }
  }
}

// ---- journal ----------------------------------------------------------------

std::vector<std::string> journal_corpus() {
  ensemble::JournalEntry ok;
  ok.key = 0x0123456789abcdefULL;
  ok.scenario = "gas/pagerank/rmat:10/w4c8/i10/s7/faults=crash:w1@40%";
  ok.outcome = ensemble::RunOutcome::kOk;
  ok.attempts = 2;
  ok.wall_ms = 12.5;
  ok.report.makespan_seconds = 1.25;
  ok.report.phase_bottlenecks = {{"GatherStep", "network", 0.1},
                                 {"ApplyStep", "cpu", 1e-300}};
  ok.report.issues = {{"imbalance:GatherThread", 0.18},
                      {"fault-recovery", 123456789.125}};
  ok.report.sync_bug_rediscovered = true;

  ensemble::JournalEntry failed;
  failed.key = 42;
  failed.scenario = "pregel/cdlp/rmat:5/w2c2/i2/s1";
  failed.outcome = ensemble::RunOutcome::kRunFailed;
  failed.attempts = 3;
  failed.wall_ms = 0.0;
  failed.error = "check failed: \"x\" \\ tab\there\nnewline \xc3\xa9";

  ensemble::JournalEntry timeout;
  timeout.key = ~std::uint64_t{0};
  timeout.scenario = "pregel/sssp/datagen:512/w3c8/i5/s99";
  timeout.outcome = ensemble::RunOutcome::kTimeout;
  timeout.attempts = 1;
  timeout.wall_ms = 60000.0;
  timeout.error = "cancelled at stage boundary";
  timeout.report.makespan_seconds = -0.0;

  return {ensemble::journal_line(ok), ensemble::journal_line(failed),
          ensemble::journal_line(timeout)};
}

/// One damaged copy of a journal line.
std::string mutate_line(std::string line, Rng& rng) {
  static constexpr std::string_view kJsonBytes =
      "{}[]\":,\\0123456789.eE+-ntfu ";
  static constexpr std::string_view kTokens[] = {
      "1e999", "-1e999", "1e-999", "1e300", "-0", "9223372036854775808",
      "2147483648", "-2147483649", "0.1e", "null", "true", "\"s\"", "[]", "{}"};
  const std::size_t at = rng.next_below(line.size());
  switch (rng.next_below(6)) {
    case 0:
      line[at] = random_byte(rng);
      break;
    case 1:
      line.erase(at, 1 + rng.next_below(8));
      break;
    case 2:
      line.insert(at, 1, kJsonBytes[rng.next_below(kJsonBytes.size())]);
      break;
    case 3:  // a torn append
      line.resize(at);
      break;
    case 4: {  // a number replaced by another token
      const std::size_t begin = line.find_first_of("-0123456789", at);
      if (begin == std::string::npos) break;
      const std::size_t end = line.find_first_not_of("-0123456789.eE+", begin);
      line.replace(begin, end == std::string::npos ? end : end - begin,
                   kTokens[rng.next_below(std::size(kTokens))]);
      break;
    }
    default:
      line.insert(at, line.substr(rng.next_below(line.size()),
                                  1 + rng.next_below(16)));
      break;
  }
  return line;
}

TEST(JournalMutationTest, DamagedLinesFailCleanlyOrRoundTrip) {
  const std::vector<std::string> corpus = journal_corpus();
  Rng rng(kSeed);
  for (int i = 0; i < kJournalLineMutants; ++i) {
    std::string line = corpus[rng.next_below(corpus.size())];
    for (auto edits = 1 + rng.next_below(2); edits > 0 && !line.empty();
         --edits) {
      line = mutate_line(std::move(line), rng);
    }
    std::optional<ensemble::JournalEntry> parsed;
    EXPECT_NO_THROW(parsed = ensemble::parse_journal_line(line));
    if (parsed) {
      const std::string canonical = ensemble::journal_line(*parsed);
      const auto again = ensemble::parse_journal_line(canonical);
      ASSERT_TRUE(again.has_value()) << canonical;
      EXPECT_EQ(ensemble::journal_line(*again), canonical);
    }
    if (HasFailure()) FAIL() << "mutant " << i << ":\n" << line;
  }
}

TEST(JournalMutationTest, ReplayAccountsForEveryLine) {
  const std::vector<std::string> corpus = journal_corpus();
  std::string clean;
  for (int copy = 0; copy < 3; ++copy) {
    for (const std::string& line : corpus) clean += line + '\n';
  }
  Rng rng(kSeed + 1);
  const std::filesystem::path path = test_root() / "journal.jsonl";
  for (int i = 0; i < kJournalFileMutants; ++i) {
    std::string text = clean;
    for (auto edits = 1 + rng.next_below(4); edits > 0 && !text.empty();
         --edits) {
      // Whole-file edits also split and join lines.
      text = mutate_line(std::move(text), rng);
    }
    write_file(path, text);
    std::size_t lines = 0;
    for (const std::string_view line : split(text, '\n')) {
      if (!line.empty()) ++lines;
    }
    ensemble::JournalReplay replay;
    EXPECT_NO_THROW(replay = ensemble::read_journal(path.string()));
    EXPECT_EQ(replay.entries.size() + replay.dropped_lines, lines);
    if (HasFailure()) FAIL() << "mutant " << i << ":\n" << text;
  }
}

}  // namespace
}  // namespace g10
