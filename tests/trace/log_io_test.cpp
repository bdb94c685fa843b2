#include "trace/log_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/trace_reader.hpp"

namespace g10::trace {
namespace {

/// Round-trips parsed records back to text so two ParseResults can be
/// compared for record-level equality with one string comparison.
std::string serialize(const ParsedLog& log) {
  std::ostringstream os;
  write_log(os, log.phase_events, log.blocking_events, log.samples);
  return os.str();
}

TEST(LogIoTest, WriteParseRoundTrip) {
  std::vector<PhaseEventRecord> phases;
  phases.push_back({PhaseEventRecord::Kind::Begin,
                    PhasePath{}.child("Job", 0), 0, kGlobalMachine});
  phases.push_back({PhaseEventRecord::Kind::End, PhasePath{}.child("Job", 0),
                    5000, kGlobalMachine});
  std::vector<BlockingEventRecord> blocks;
  blocks.push_back({"GC", PhasePath{}.child("Job", 0).child("T", 2), 10, 20, 1});
  std::vector<MonitoringSampleRecord> samples;
  samples.push_back({"cpu", 0, 1000, 3.25});
  samples.push_back({"network", 1, 2000, 1.5e8});

  std::ostringstream os;
  write_log(os, phases, blocks, samples);
  const ParseResult result = parse_log_text(os.str());
  ASSERT_TRUE(result.ok()) << result.errors.front().message;

  ASSERT_EQ(result.log.phase_events.size(), 2u);
  EXPECT_EQ(result.log.phase_events[0].kind, PhaseEventRecord::Kind::Begin);
  EXPECT_EQ(result.log.phase_events[1].time, 5000);
  EXPECT_EQ(result.log.phase_events[0].path.to_string(), "Job.0");

  ASSERT_EQ(result.log.blocking_events.size(), 1u);
  EXPECT_EQ(result.log.blocking_events[0].resource, "GC");
  EXPECT_EQ(result.log.blocking_events[0].begin, 10);
  EXPECT_EQ(result.log.blocking_events[0].end, 20);
  EXPECT_EQ(result.log.blocking_events[0].machine, 1);

  ASSERT_EQ(result.log.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(result.log.samples[0].value, 3.25);
  EXPECT_DOUBLE_EQ(result.log.samples[1].value, 1.5e8);
}

TEST(LogIoTest, MetaRecordsRoundTripAndLookUp) {
  std::vector<PhaseEventRecord> phases;
  phases.push_back({PhaseEventRecord::Kind::Begin,
                    PhasePath{}.child("Job", 0), 0, kGlobalMachine});
  std::ostringstream os;
  write_log(os, phases, {}, {},
            {{"faults", "crash:w1@40%"}, {"engine", "pregel"}});
  // META records follow the header, before any PHASE record.
  EXPECT_EQ(os.str().find("META\tfaults\tcrash:w1@40%"),
            os.str().find('\n') + 1);
  const ParseResult result = parse_log_text(os.str());
  ASSERT_TRUE(result.ok()) << result.errors.front().message;
  ASSERT_EQ(result.log.meta.size(), 2u);
  EXPECT_EQ(result.log.meta_value("faults"), "crash:w1@40%");
  EXPECT_EQ(result.log.meta_value("engine"), "pregel");
  EXPECT_EQ(result.log.meta_value("absent"), std::nullopt);
}

TEST(LogIoTest, MetaValueKeepsEmbeddedTabsAndRejectsMissingFields) {
  const ParseResult tabs = parse_log_text("META\tnote\ta\tb\tc\n");
  ASSERT_TRUE(tabs.ok());
  EXPECT_EQ(tabs.log.meta_value("note"), "a\tb\tc");
  EXPECT_FALSE(parse_log_text("META\tonlykey\n").ok());
  EXPECT_FALSE(parse_log_text("META\t\tvalue\n").ok());
}

TEST(LogIoTest, IgnoresCommentsAndBlankLines) {
  const ParseResult result =
      parse_log_text("# comment\n\nPHASE\tB\tJob.0\t0\t-1\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.log.phase_events.size(), 1u);
}

TEST(LogIoTest, ReportsLineNumberOnError) {
  const ParseResult result = parse_log_text(
      "# ok\nPHASE\tB\tJob.0\t0\t-1\nPHASE\tX\tJob.0\t1\t-1\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.errors.front().line_number, 3u);
  EXPECT_NE(result.errors.front().message.find("B or E"), std::string::npos);
}

TEST(LogIoTest, RejectsBadRecords) {
  const auto fails = [](const std::string& line) {
    return !parse_log_text(line).ok();
  };
  EXPECT_TRUE(fails("WHAT\tis\tthis\n"));
  EXPECT_TRUE(fails("PHASE\tB\tJob.0\t-5\t-1\n"));        // negative time
  EXPECT_TRUE(fails("PHASE\tB\tJob\t0\t-1\n"));           // bad path
  EXPECT_TRUE(fails("PHASE\tB\tJob.0\t0\n"));             // missing field
  EXPECT_TRUE(fails("BLOCK\tGC\tJob.0\t20\t10\t0\n"));    // end < begin
  EXPECT_TRUE(fails("BLOCK\t\tJob.0\t0\t10\t0\n"));       // empty resource
  EXPECT_TRUE(fails("SAMPLE\tcpu\t0\t100\tnotanumber\n"));
}

TEST(LogIoTest, EmptyLogIsValid) {
  EXPECT_TRUE(parse_log_text("").ok());
}

// Robustness: arbitrary mutations of a valid log either parse (when the
// mutation hits a comment/number in a compatible way) or fail cleanly with
// a line number — never crash and never produce out-of-range records.
TEST(LogIoTest, MutatedLogsFailCleanly) {
  std::vector<PhaseEventRecord> phases;
  phases.push_back({PhaseEventRecord::Kind::Begin,
                    PhasePath{}.child("Job", 0), 0, -1});
  phases.push_back({PhaseEventRecord::Kind::End, PhasePath{}.child("Job", 0),
                    5000, -1});
  std::ostringstream os;
  write_log(os, phases, {}, {});
  const std::string original = os.str();
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    for (const char replacement : {'\t', 'x', '-', '0'}) {
      std::string mutated = original;
      mutated[pos] = replacement;
      const ParseResult result = parse_log_text(mutated);  // must not crash
      if (!result.ok()) {
        EXPECT_GT(result.errors.front().line_number, 0u);
        EXPECT_FALSE(result.errors.front().message.empty());
      } else {
        for (const auto& rec : result.log.phase_events) {
          EXPECT_GE(rec.time, 0);
        }
      }
    }
  }
}

TEST(LogIoTest, ErrorCarriesOffendingLineText) {
  const ParseResult result = parse_log_text("PHASE\tX\tJob.0\t1\t-1\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.errors.front().line, "PHASE\tX\tJob.0\t1\t-1");
}

TEST(LogIoTest, RecoveryModeSkipsBadLinesAndKeepsGoing) {
  const std::string text(
      "PHASE\tB\tJob.0\t0\t-1\n"
      "garbage line\n"
      "PHASE\tX\tJob.0\t1\t-1\n"
      "PHASE\tE\tJob.0\t5\t-1\n");
  ParseOptions options;
  options.recover = true;
  const ParseResult result = parse_log_text(text, options);
  // Good records around the damage are all kept.
  EXPECT_EQ(result.log.phase_events.size(), 2u);
  EXPECT_EQ(result.error_count, 2u);
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0].line_number, 2u);
  EXPECT_EQ(result.errors[1].line_number, 3u);
  EXPECT_FALSE(result.ok());
}

TEST(LogIoTest, RecoveryModeCapsStoredErrors) {
  std::ostringstream os;
  for (int i = 0; i < 100; ++i) os << "junk\t" << i << '\n';
  ParseOptions options;
  options.recover = true;
  const ParseResult result = parse_log_text(os.str(), options);
  EXPECT_EQ(result.errors.size(), kMaxStoredParseErrors);
  EXPECT_EQ(result.error_count, 100u);
}

TEST(LogIoTest, TruncatedLastLineFailsCleanlyInStrictMode) {
  // A crashed writer typically leaves a half-written last line.
  const ParseResult result =
      parse_log_text("PHASE\tB\tJob.0\t0\t-1\nPHASE\tE\tJo");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.errors.front().line_number, 2u);
  EXPECT_EQ(result.log.phase_events.size(), 1u);
}

TEST(LogIoTest, HandlesWindowsLineEndings) {
  const ParseResult result = parse_log_text(
      "PHASE\tB\tJob.0\t0\t-1\r\nPHASE\tE\tJob.0\t5\t-1\r\n");
  ASSERT_TRUE(result.ok()) << result.errors.front().message;
  EXPECT_EQ(result.log.phase_events.size(), 2u);
}

TEST(LogIoTest, FinalLineWithoutNewlineIsParsed) {
  const std::string text = "PHASE\tB\tJob.0\t0\t-1\nPHASE\tE\tJob.0\t5\t-1";
  const ParseResult result = parse_log_text(text);
  ASSERT_TRUE(result.ok()) << result.errors.front().message;
  ASSERT_EQ(result.log.phase_events.size(), 2u);
  EXPECT_EQ(result.log.phase_events[1].time, 5);
}

// ---------------------------------------------------------------------------
// Chunked concurrent parsing. min_chunk_bytes is lowered to force tiny logs
// into many chunks; results must match the serial parse exactly.

/// A log with records on every line and damage at the given 1-based lines.
std::string make_log(std::size_t lines, const std::vector<std::size_t>& bad) {
  std::ostringstream os;
  for (std::size_t i = 1; i <= lines; ++i) {
    if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
      os << "BROKEN\trecord\t" << i << '\n';
    } else if (i % 7 == 0) {
      os << "# comment line " << i << '\n';
    } else if (i % 3 == 0) {
      os << "SAMPLE\tcpu\t0\t" << i * 100 << "\t"
         << 0.25 * static_cast<double>(i) << '\n';
    } else {
      os << "PHASE\t" << (i % 2 ? 'B' : 'E') << "\tJob.0\t" << i * 10
         << "\t-1\n";
    }
  }
  return os.str();
}

TEST(LogIoTest, ChunkedLenientParseMatchesSerialExactly) {
  const std::string text = make_log(500, {40, 41, 333, 499});
  ParseOptions serial_options;
  serial_options.recover = true;
  serial_options.threads = 1;
  const ParseResult serial = parse_log_text(text, serial_options);

  ParseOptions chunked_options = serial_options;
  chunked_options.threads = 4;
  chunked_options.min_chunk_bytes = 64;  // force many chunks
  const ParseResult chunked = parse_log_text(text, chunked_options);

  EXPECT_EQ(serialize(chunked.log), serialize(serial.log));
  EXPECT_EQ(chunked.error_count, serial.error_count);
  ASSERT_EQ(chunked.errors.size(), serial.errors.size());
  for (std::size_t i = 0; i < serial.errors.size(); ++i) {
    EXPECT_EQ(chunked.errors[i].line_number, serial.errors[i].line_number);
    EXPECT_EQ(chunked.errors[i].message, serial.errors[i].message);
    EXPECT_EQ(chunked.errors[i].line, serial.errors[i].line);
  }
  ASSERT_FALSE(chunked.errors.empty());
  EXPECT_EQ(chunked.errors.front().line_number, 40u);
}

TEST(LogIoTest, ChunkedLenientParseKeepsExactLineNumbersPerChunk) {
  // Bad lines placed so that (at 64-byte chunks) they land in different
  // chunks; their reported numbers must still be absolute file positions.
  const std::vector<std::size_t> bad = {5, 120, 121, 250};
  const std::string text = make_log(256, bad);
  ParseOptions options;
  options.recover = true;
  options.threads = 8;
  options.min_chunk_bytes = 64;
  const ParseResult result = parse_log_text(text, options);
  ASSERT_EQ(result.errors.size(), bad.size());
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(result.errors[i].line_number, bad[i]);
  }
  EXPECT_EQ(result.error_count, bad.size());
}

TEST(LogIoTest, ChunkedStrictParseStopsAtTheSameFirstError) {
  const std::string text = make_log(300, {142, 260});
  ParseOptions serial_options;  // strict
  serial_options.threads = 1;
  const ParseResult serial = parse_log_text(text, serial_options);

  ParseOptions chunked_options;
  chunked_options.threads = 4;
  chunked_options.min_chunk_bytes = 64;
  const ParseResult chunked = parse_log_text(text, chunked_options);

  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(chunked.ok());
  EXPECT_EQ(chunked.errors.front().line_number, 142u);
  EXPECT_EQ(chunked.errors.front().line_number,
            serial.errors.front().line_number);
  EXPECT_EQ(chunked.errors.front().message, serial.errors.front().message);
  // Records kept before the stop are the same prefix at any thread count.
  EXPECT_EQ(serialize(chunked.log), serialize(serial.log));
  EXPECT_EQ(chunked.error_count, serial.error_count);
}

/// Rewrites every "\n" as "\r\n" (CRLF logs from Windows-side tooling).
std::string with_crlf(const std::string& text) {
  std::string out;
  out.reserve(text.size() * 2);
  for (const char c : text) {
    if (c == '\n') out.push_back('\r');
    out.push_back(c);
  }
  return out;
}

TEST(LogIoTest, CrlfChunkedParseMatchesSerialExactly) {
  const std::string text = with_crlf(make_log(400, {40, 251}));
  ParseOptions serial_options;
  serial_options.recover = true;
  serial_options.threads = 1;
  const ParseResult serial = parse_log_text(text, serial_options);

  ParseOptions chunked_options = serial_options;
  chunked_options.threads = 4;
  chunked_options.min_chunk_bytes = 64;
  const ParseResult chunked = parse_log_text(text, chunked_options);

  EXPECT_EQ(serialize(chunked.log), serialize(serial.log));
  EXPECT_EQ(chunked.error_count, serial.error_count);
  ASSERT_EQ(chunked.errors.size(), serial.errors.size());
  for (std::size_t i = 0; i < serial.errors.size(); ++i) {
    EXPECT_EQ(chunked.errors[i].line_number, serial.errors[i].line_number);
    EXPECT_EQ(chunked.errors[i].line, serial.errors[i].line);
  }
  // CRLF changes bytes, not records: the LF parse yields the same records.
  const ParseResult lf = parse_log_text(make_log(400, {40, 251}),
                                        serial_options);
  EXPECT_EQ(serialize(serial.log), serialize(lf.log));
}

TEST(LogIoTest, MissingFinalNewlineChunkedParseMatchesSerial) {
  std::string text = make_log(300, {});
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();  // crashed writer: last line has no terminator

  const ParseResult serial = parse_log_text(text, {.threads = 1});
  const ParseResult chunked = parse_log_text(
      text, {.threads = 8, .min_chunk_bytes = 64});
  ASSERT_TRUE(serial.ok()) << serial.errors.front().message;
  ASSERT_TRUE(chunked.ok()) << chunked.errors.front().message;
  EXPECT_EQ(serialize(chunked.log), serialize(serial.log));

  // The unterminated record is present, not dropped.
  const ParseResult terminated = parse_log_text(make_log(300, {}),
                                                {.threads = 1});
  EXPECT_EQ(serialize(serial.log), serialize(terminated.log));
}

TEST(LogIoTest, CrlfWithTruncatedFinalLineMatchesSerial) {
  // Both quirks at once: CRLF line endings and a half-written final line.
  std::string text = with_crlf(make_log(200, {}));
  text += "PHASE\tE\tJo";  // no terminator
  ParseOptions serial_options;
  serial_options.recover = true;
  serial_options.threads = 1;
  const ParseResult serial = parse_log_text(text, serial_options);

  ParseOptions chunked_options = serial_options;
  chunked_options.threads = 4;
  chunked_options.min_chunk_bytes = 64;
  const ParseResult chunked = parse_log_text(text, chunked_options);

  EXPECT_EQ(serialize(chunked.log), serialize(serial.log));
  EXPECT_EQ(chunked.error_count, serial.error_count);
  ASSERT_EQ(serial.errors.size(), 1u);
  ASSERT_EQ(chunked.errors.size(), 1u);
  EXPECT_EQ(chunked.errors[0].line_number, serial.errors[0].line_number);
  EXPECT_EQ(chunked.errors[0].line_number, 201u);
}

TEST(LogIoTest, ChunkedParseOfCleanLogMatchesSerial) {
  const std::string text = make_log(1000, {});
  const ParseResult serial = parse_log_text(text, {.threads = 1});
  const ParseResult chunked = parse_log_text(
      text, {.threads = 8, .min_chunk_bytes = 128});
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(serialize(chunked.log), serialize(serial.log));
}

TEST(LogIoTest, ReadTraceFileRoundTripsAndReportsMissingFiles) {
  const std::string path = ::testing::TempDir() + "log_io_test_run.log";
  {
    std::ofstream out(path);
    out << make_log(50, {});
  }
  const ParseResult result = read_trace_file(path);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.log.phase_events.empty());
  std::remove(path.c_str());

  const ParseResult missing = read_trace_file(path + ".does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.errors.front().line_number, 0u);
  EXPECT_NE(missing.errors.front().message.find("cannot open"),
            std::string::npos);
  EXPECT_EQ(missing.error_count, 1u);
}

}  // namespace
}  // namespace g10::trace
