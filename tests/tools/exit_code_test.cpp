// Pins the documented exit-code taxonomy (src/common/exit_codes.hpp) of the
// shipped tools by spawning the real binaries:
//   0 success, 1 internal, 2 bad arguments, 3 parse failure,
//   4 fault abort, 5 analysis error.
// Binary paths are injected at compile time (G10_RUN_BIN & co), so the test
// always exercises the binaries from its own build tree.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/exit_codes.hpp"
#include "common/subprocess.hpp"

namespace g10 {
namespace {

/// Runs a shell command with stdout/stderr discarded; returns its exit code.
int exit_code(const std::string& command) {
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status)) << command << " did not exit normally";
  return WEXITSTATUS(status);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Runs a shell command with stdout and stderr into `printed`; returns its
/// exit code.
int exit_code(const std::string& command, std::string& printed) {
  const std::string path = std::filesystem::temp_directory_path() /
                           ("g10_exit_code_test_" +
                            std::to_string(::getpid()) + ".out");
  const int code = exit_code("(" + command + " > " + path + " 2>&1)");
  printed = slurp(path);
  std::filesystem::remove(path);
  return code;
}

std::filesystem::path test_root() {
  static const std::filesystem::path root = [] {
    auto path = std::filesystem::temp_directory_path() /
                ("g10_exit_code_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
  }();
  return root;
}

/// Polls `ready` every 10 ms for up to a minute; true once it holds.
bool wait_until(const std::function<bool()>& ready) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!ready()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// True once `pid` has a handler installed for `sig` (the SigCgt mask of
/// /proc/<pid>/status).
bool catches(pid_t pid, int sig) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("SigCgt:", 0) != 0) continue;
    std::uint64_t mask = 0;
    std::istringstream(line.substr(7)) >> std::hex >> mask;
    return (mask >> (sig - 1)) & 1;
  }
  return false;
}

/// Number of complete lines in `path` (0 while it does not exist).
int line_count(const std::string& path) {
  std::ifstream in(path);
  int lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

/// Spawns `argv` with stdout and stderr discarded and `env` ("NAME=value",
/// or empty) added to the environment.
Subprocess spawn_quiet(const std::vector<std::string>& argv,
                       const std::string& env = "") {
  const int null_fd = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  EXPECT_GE(null_fd, 0);
  SpawnOptions options;
  options.dup_fds = {{null_fd, 1}, {null_fd, 2}};
  const std::string name = env.substr(0, env.find('='));
  if (!env.empty()) {
    ::setenv(name.c_str(), env.substr(name.size() + 1).c_str(), 1);
  }
  Subprocess child = Subprocess::spawn(argv, options);
  if (!env.empty()) ::unsetenv(name.c_str());
  ::close(null_fd);
  return child;
}

/// Waits for `child`, returning its exit code (-1 when a signal killed it).
int exit_code_of(Subprocess& child) {
  const ExitStatus status = child.wait();
  EXPECT_TRUE(status.exited) << status.describe();
  return status.exited ? status.code : -1;
}

/// A tiny successful g10_run, produced once and shared by the analyze tests.
const std::string& ok_artifacts() {
  static const std::string dir = [] {
    const std::string out = (test_root() / "run_ok").string();
    const int code = exit_code(
        std::string(G10_RUN_BIN) +
        " --engine pregel --algorithm pagerank --dataset rmat:5"
        " --workers 2 --cores 2 --iterations 2 --monitor-ms 20 --out " + out);
    EXPECT_EQ(code, kExitOk);
    return out;
  }();
  return dir;
}

TEST(RunExitCodeTest, SuccessIsZero) {
  ASSERT_EQ(exit_code(std::string(G10_RUN_BIN) +
                      " --engine gas --algorithm bfs --dataset rmat:5"
                      " --workers 2 --cores 2 --iterations 2"
                      " --monitor-ms 20 --out " +
                      (test_root() / "run_gas").string()),
            kExitOk);
}

TEST(RunExitCodeTest, UnknownFlagIsBadArgs) {
  EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) + " --bogus 1"), kExitBadArgs);
  EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) + " --workers 0"),
            kExitBadArgs);
  // The batching knobs are gone: each engine has one delivery path.
  EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) + " --batch-bytes 0"),
            kExitBadArgs);
  EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) + " --batch-flush-us 1000"),
            kExitBadArgs);
}

TEST(RunExitCodeTest, UnknownEngineOrAlgorithmIsBadArgs) {
  // Rejected while parsing the arguments, before a dataset of this size
  // would be generated.
  const std::string base = std::string(G10_RUN_BIN) +
                           " --dataset rmat:16 --out " +
                           (test_root() / "unknown_name").string();
  EXPECT_EQ(exit_code(base + " --algorithm foo"), kExitBadArgs);
  EXPECT_EQ(exit_code(base + " --engine spark"), kExitBadArgs);
}

TEST(RunExitCodeTest, BadNumericFlagsAreBadArgs) {
  // Garbage used to run with the default (seed 2020, 400 ms), 2^32+1
  // workers wrapped around to 1, a zero or negative --monitor-ms failed a
  // CHECK after the whole run, and a huge one overflowed.
  const std::string base =
      std::string(G10_RUN_BIN) +
      " --engine pregel --algorithm pagerank --dataset rmat:5"
      " --workers 2 --cores 2 --iterations 2 --out " +
      (test_root() / "bad_numeric").string();
  for (const char* flags :
       {" --seed abc", " --seed -1", " --monitor-ms abc", " --monitor-ms 0",
        " --monitor-ms -5", " --monitor-ms 99999999999999",
        " --workers 4294967297", " --cores 2x", " --iterations -3",
        " --det-check 4294967298", " --threads 2000"}) {
    EXPECT_EQ(exit_code(base + flags), kExitBadArgs) << flags;
  }
}

TEST(RunExitCodeTest, DeletedRetryAndHeartbeatFlagsAreUnknown) {
  // The retry and heartbeat knobs are gone; valid values are still
  // rejected as unknown flags.
  const std::string base =
      std::string(G10_RUN_BIN) +
      " --engine pregel --algorithm pagerank --dataset rmat:5"
      " --workers 2 --cores 2 --iterations 2 --out " +
      (test_root() / "deleted_flags").string();
  for (const char* flags :
       {" --retry-timeout-ms 20", " --retry-max-attempts 4",
        " --heartbeat-ms 10", " --heartbeat-timeout-ms 50"}) {
    EXPECT_EQ(exit_code(base + flags), kExitBadArgs) << flags;
  }
}

TEST(RunExitCodeTest, BadDatasetSizeIsBadArgs) {
  // A non-numeric size used to run scale 14 (or 16384 vertices), and 2^32+5
  // wrapped around to scale 5.
  const std::string base =
      std::string(G10_RUN_BIN) +
      " --engine pregel --algorithm pagerank --workers 2 --cores 2"
      " --iterations 2 --out " +
      (test_root() / "bad_dataset").string();
  for (const char* dataset :
       {"rmat:abc", "rmat:", "rmat", "rmat:0", "rmat:-1", "rmat:31",
        "rmat:4294967301", "rmat:5:6", "datagen:x", "datagen:1"}) {
    EXPECT_EQ(exit_code(base + " --dataset " + dataset), kExitBadArgs)
        << dataset;
  }
}

TEST(RunExitCodeTest, UnparseableFaultSpecIsParseFailure) {
  EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) +
                      " --faults gremlins-everywhere --out " +
                      (test_root() / "unused").string()),
            kExitParseFailure);
}

TEST(RunExitCodeTest, UnknownDatasetIsParseFailure) {
  EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) +
                      " --dataset mystery:9 --out " +
                      (test_root() / "unused").string()),
            kExitParseFailure);
}

TEST(RunExitCodeTest, FaultOutsideTheClusterIsFaultAbort) {
  // Parses fine, but worker 7 does not exist in a 2-machine cluster.
  EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) +
                      " --workers 2 --faults crash:w7@40% --out " +
                      (test_root() / "unused").string()),
            kExitFaultAbort);
}

TEST(AnalyzeExitCodeTest, MissingFlagsIsBadArgs) {
  EXPECT_EQ(exit_code(std::string(G10_ANALYZE_BIN)), kExitBadArgs);
  EXPECT_EQ(exit_code(std::string(G10_ANALYZE_BIN) + " --bogus 1"),
            kExitBadArgs);
}

TEST(AnalyzeExitCodeTest, UnreadableModelIsParseFailure) {
  EXPECT_EQ(exit_code(std::string(G10_ANALYZE_BIN) +
                      " --model /nonexistent.g10 --log /nonexistent.log"),
            kExitParseFailure);
}

TEST(AnalyzeExitCodeTest, GoodRunAnalyzesCleanly) {
  const std::string& dir = ok_artifacts();
  EXPECT_EQ(exit_code(std::string(G10_ANALYZE_BIN) + " --model " + dir +
                      "/model.g10 --log " + dir + "/run.log"),
            kExitOk);
}

TEST(AnalyzeExitCodeTest, DamagedLogIsParseFailureUnlessLenient) {
  const std::string& dir = ok_artifacts();
  const std::string damaged = (test_root() / "damaged.log").string();
  std::filesystem::copy_file(dir + "/run.log", damaged,
                             std::filesystem::copy_options::overwrite_existing);
  {
    std::ofstream out(damaged, std::ios::app);
    out << "THIS IS NOT A LOG RECORD\n";
  }
  const std::string base = std::string(G10_ANALYZE_BIN) + " --model " + dir +
                           "/model.g10 --log " + damaged;
  EXPECT_EQ(exit_code(base), kExitParseFailure);  // strict is the default
  EXPECT_EQ(exit_code(base + " --lenient"), kExitOk);
}

TEST(AnalyzeExitCodeTest, TruncatedCrashLogIsAnalysisError) {
  // A crash with a truncated log leaves BEGIN-without-END records: every
  // line parses, but strict characterization refuses the damaged trace.
  const std::string dir = (test_root() / "run_truncated").string();
  ASSERT_EQ(exit_code(std::string(G10_RUN_BIN) +
                      " --engine pregel --algorithm pagerank --dataset rmat:5"
                      " --workers 2 --cores 2 --iterations 4 --monitor-ms 20"
                      " --faults crash:w1@40% --crash-log truncated --out " +
                      dir),
            kExitOk);
  const std::string base = std::string(G10_ANALYZE_BIN) + " --model " + dir +
                           "/model.g10 --log " + dir +
                           "/run.log --no-preflight";
  EXPECT_EQ(exit_code(base), kExitAnalysisError);
  EXPECT_EQ(exit_code(base + " --lenient"), kExitOk);
}

TEST(AnalyzeExitCodeTest, MalformedSampleSeriesAreRepairedWhenLenient) {
  // Three damaged copies of a clean run's log, each edited at its first
  // sample: one more sample at t=0 before it (no window: the first starts
  // at 0), the sample line twice, and a negative rate. Strict rejects each
  // with lint's message, in preflight (exit 3) and in the build (exit 5);
  // --lenient repairs each and lists the repair.
  const std::string& dir = ok_artifacts();
  const std::string log = slurp(dir + "/run.log");
  const std::size_t at = log.find("\nSAMPLE\t") + 1;
  ASSERT_NE(at, 0u);
  const std::string line = log.substr(at, log.find('\n', at) + 1 - at);
  std::vector<std::string> fields;
  for (std::size_t from = 0; from < line.size();) {
    const std::size_t to = line.find_first_of("\t\n", from);
    fields.push_back(line.substr(from, to - from));
    from = to + 1;
  }
  ASSERT_EQ(fields.size(), 5u) << line;
  const std::string series = fields[1] + "@" + fields[2];
  const std::string prefix = "SAMPLE\t" + fields[1] + "\t" + fields[2] + "\t";
  struct Case {
    std::string name;
    std::string edited;  ///< what replaces the first sample line
    std::string message;
    std::string repair;
  };
  const std::vector<Case> cases = {
      {"at_zero", prefix + "0\t" + fields[4] + "\n" + line,
       "series repeats or decreases its sample time at 0ns",
       "sorted monitoring series " + series +
           "; dropped 1 sample(s) that did not advance"},
      {"duplicated", line + line,
       "series repeats or decreases its sample time at " + fields[3] + "ns",
       "sorted monitoring series " + series +
           "; dropped 1 sample(s) that did not advance"},
      {"negative", prefix + fields[3] + "\t-1.5\n",
       "sample reports a negative rate -1.500",
       "clamped 1 negative monitoring sample(s) to 0: " + series}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path =
        (test_root() / ("sample_" + c.name + ".log")).string();
    std::ofstream(path, std::ios::binary)
        << log.substr(0, at) << c.edited << log.substr(at + line.size());
    const std::string base = std::string(G10_ANALYZE_BIN) + " --model " +
                             dir + "/model.g10 --log " + path;
    std::string printed;
    EXPECT_EQ(exit_code(base, printed), kExitParseFailure);
    EXPECT_NE(printed.find(c.message + "  (" + series + ")"),
              std::string::npos)
        << printed;
    EXPECT_EQ(exit_code(base + " --no-preflight", printed),
              kExitAnalysisError);
    EXPECT_NE(printed.find("damaged trace: " + series + ": " + c.message),
              std::string::npos)
        << printed;
    EXPECT_EQ(exit_code(base + " --lenient", printed), kExitOk);
    EXPECT_NE(printed.find("lenient repairs"), std::string::npos) << printed;
    EXPECT_NE(printed.find("  " + c.repair + "\n"), std::string::npos)
        << printed;
  }
}

/// A small valid `.g10t`, converted once from the shared run artifacts.
const std::string& ok_binary_trace() {
  static const std::string path = [] {
    const std::string out = (test_root() / "run_ok.g10t").string();
    EXPECT_EQ(exit_code(std::string(G10_CONVERT_BIN) + " --in " +
                        ok_artifacts() + "/run.log --out " + out +
                        " --verify"),
              kExitOk);
    return out;
  }();
  return path;
}

/// Copies the valid binary trace and flips one header byte.
std::string corrupt_header_trace() {
  const std::string out = (test_root() / "corrupt_header.g10t").string();
  std::ifstream in(ok_binary_trace(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_GT(bytes.size(), 40u);
  bytes[24] ^= 0x5c;
  std::ofstream(out, std::ios::binary) << bytes;
  return out;
}

TEST(ConvertExitCodeTest, MissingOrUnknownFlagsAreBadArgs) {
  EXPECT_EQ(exit_code(std::string(G10_CONVERT_BIN)), kExitBadArgs);
  EXPECT_EQ(exit_code(std::string(G10_CONVERT_BIN) + " --in a --out b"
                      " --to protobuf"),
            kExitBadArgs);
  EXPECT_EQ(exit_code(std::string(G10_CONVERT_BIN) + " --in a --out b"
                      " --block-records 0"),
            kExitBadArgs);
}

TEST(ConvertExitCodeTest, MissingInputIsParseFailure) {
  EXPECT_EQ(exit_code(std::string(G10_CONVERT_BIN) +
                      " --in /nonexistent.log --out " +
                      (test_root() / "x.g10t").string()),
            kExitParseFailure);
}

TEST(ConvertExitCodeTest, RoundTripBothDirectionsIsZero) {
  const std::string back = (test_root() / "back.log").string();
  EXPECT_EQ(exit_code(std::string(G10_CONVERT_BIN) + " --in " +
                      ok_binary_trace() + " --out " + back + " --verify"),
            kExitOk);
}

TEST(ConvertExitCodeTest, TruncatedHeaderIsParseFailure) {
  const std::string truncated = (test_root() / "truncated.g10t").string();
  {
    std::ifstream in(ok_binary_trace(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream(truncated, std::ios::binary) << bytes.substr(0, 40);
  }
  EXPECT_EQ(exit_code(std::string(G10_CONVERT_BIN) + " --in " + truncated +
                      " --out " + (test_root() / "y.log").string()),
            kExitParseFailure);
}

TEST(ConvertExitCodeTest, CorruptHeaderIsParseFailure) {
  EXPECT_EQ(exit_code(std::string(G10_CONVERT_BIN) + " --in " +
                      corrupt_header_trace() + " --out " +
                      (test_root() / "z.log").string()),
            kExitParseFailure);
}

TEST(AnalyzeExitCodeTest, BinaryTraceAnalyzesCleanly) {
  EXPECT_EQ(exit_code(std::string(G10_ANALYZE_BIN) + " --model " +
                      ok_artifacts() + "/model.g10 --log " +
                      ok_binary_trace()),
            kExitOk);
}

TEST(AnalyzeExitCodeTest, CorruptBinaryHeaderIsParseFailure) {
  EXPECT_EQ(exit_code(std::string(G10_ANALYZE_BIN) + " --model " +
                      ok_artifacts() + "/model.g10 --log " +
                      corrupt_header_trace()),
            kExitParseFailure);
}

TEST(AnalyzeExitCodeTest, BadFilterSyntaxIsBadArgs) {
  const std::string base = std::string(G10_ANALYZE_BIN) + " --model " +
                           ok_artifacts() + "/model.g10 --log " +
                           ok_binary_trace();
  EXPECT_EQ(exit_code(base + " --phases Superstep,,WorkerCompute"),
            kExitBadArgs);
  EXPECT_EQ(exit_code(base + " --time-range 10"), kExitBadArgs);
  EXPECT_EQ(exit_code(base + " --time-range 50:10"), kExitBadArgs);
  EXPECT_EQ(exit_code(base + " --machines 1,x"), kExitBadArgs);
}

TEST(AnalyzeExitCodeTest, BadNumericFlagsAreBadArgs) {
  // Out-of-range or unparseable values used to fail late (exit 1 on a zero
  // timeslice) or silently fall back to the defaults (exit 0).
  const std::string base = std::string(G10_ANALYZE_BIN) + " --model " +
                           ok_artifacts() + "/model.g10 --log " +
                           ok_binary_trace();
  for (const char* flags :
       {" --timeslice-ms 0", " --timeslice-ms -5", " --timeslice-ms abc",
        " --timeslice-ms 99999999999999", " --min-impact abc",
        " --min-impact nan", " --threads abc", " --threads -1",
        " --threads 4294967296", " --det-check abc"}) {
    EXPECT_EQ(exit_code(base + flags), kExitBadArgs) << flags;
  }
}

TEST(LintExitCodeTest, BadThreadsIsBadArgs) {
  // Garbage used to run as 0 (auto), and 2^32+1 wrapped around to 1.
  const std::string base = std::string(G10_LINT_BIN) + " --model " +
                           ok_artifacts() + "/model.g10 --log " +
                           ok_artifacts() + "/run.log";
  EXPECT_EQ(exit_code(base + " --threads 2"), kExitOk);
  for (const char* flags :
       {" --threads abc", " --threads 2x", " --threads -1",
        " --threads 4294967297"}) {
    EXPECT_EQ(exit_code(base + flags), kExitBadArgs) << flags;
  }
}

/// A model whose phase A is ordered before itself, on line 3.
std::string self_ordered_model() {
  const std::string path = (test_root() / "self_ordered.g10").string();
  std::ofstream(path) << "PHASE Job\nPHASE A PARENT=Job\nORDER A A\n";
  return path;
}

TEST(AnalyzeExitCodeTest, SelfOrderedPhaseIsParseFailure) {
  // Used to escape parse_model as an internal check failure (exit 1).
  const std::string model = self_ordered_model();
  const std::string err = (test_root() / "self_ordered.err").string();
  EXPECT_EQ(exit_code("(" + std::string(G10_ANALYZE_BIN) + " --model " +
                      model + " --log " + ok_artifacts() + "/run.log 2>" +
                      err + ")"),
            kExitParseFailure);
  const std::string message = slurp(err);
  EXPECT_NE(message.find(model + ":3: ORDER edges among siblings of 'Job' "
                                 "form a cycle"),
            std::string::npos)
      << message;
  EXPECT_EQ(message.find("check failed"), std::string::npos) << message;
}

TEST(LintExitCodeTest, SelfOrderedPhaseIsAFinding) {
  // Reported as a model finding; the trace lint is skipped, not crashed.
  const std::string out = (test_root() / "self_ordered.out").string();
  EXPECT_EQ(exit_code("(" + std::string(G10_LINT_BIN) + " --model " +
                      self_ordered_model() + " --log " + ok_artifacts() +
                      "/run.log >" + out + ")"),
            1);
  EXPECT_NE(slurp(out).find(":3: error: [model-order-cycle]"),
            std::string::npos)
      << slurp(out);
}

TEST(DetCheckExitCodeTest, IdenticalExecutionsAreZero) {
  EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) +
                      " --engine pregel --algorithm pagerank --dataset rmat:5"
                      " --workers 2 --cores 2 --iterations 2 --det-check 2"),
            kExitOk);
}

TEST(DetCheckExitCodeTest, InjectedDivergenceIsAnalysisError) {
  // The G10_DET_INJECT hook perturbs the named phase's hash in the second
  // execution; the oracle must flag it and exit 5.
  EXPECT_EQ(exit_code("G10_DET_INJECT=Superstep " + std::string(G10_RUN_BIN) +
                      " --engine pregel --algorithm pagerank --dataset rmat:5"
                      " --workers 2 --cores 2 --iterations 2 --det-check 2"),
            kExitAnalysisError);
}

TEST(DetCheckExitCodeTest, SingleExecutionCountIsBadArgs) {
  EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) + " --det-check 1"),
            kExitBadArgs);
}

TEST(DetCheckExitCodeTest, AnalyzeThreadSweepIsZero) {
  const std::string& dir = ok_artifacts();
  EXPECT_EQ(exit_code(std::string(G10_ANALYZE_BIN) + " --model " + dir +
                      "/model.g10 --log " + dir + "/run.log --det-check 4"),
            kExitOk);
}

TEST(SrclintExitCodeTest, NoPathsIsBadArgs) {
  EXPECT_EQ(exit_code(std::string(G10_SRCLINT_BIN)), kExitBadArgs);
  EXPECT_EQ(exit_code(std::string(G10_SRCLINT_BIN) + " --bogus"),
            kExitBadArgs);
  EXPECT_EQ(exit_code(std::string(G10_SRCLINT_BIN) + " /nonexistent.cpp"),
            kExitBadArgs);
}

TEST(SrclintExitCodeTest, CleanFixtureIsZeroFindingsAreOne) {
  const std::string fixtures = G10_SRCLINT_FIXTURE_DIR;
  EXPECT_EQ(exit_code(std::string(G10_SRCLINT_BIN) + " --werror " + fixtures +
                      "/clean.cpp"),
            kExitOk);
  EXPECT_EQ(exit_code(std::string(G10_SRCLINT_BIN) + " " + fixtures +
                      "/unordered_iter.cpp"),
            1);
  // Warnings only: zero by default, nonzero under --werror.
  EXPECT_EQ(exit_code(std::string(G10_SRCLINT_BIN) + " " + fixtures +
                      "/waivers.cpp"),
            kExitOk);
  EXPECT_EQ(exit_code(std::string(G10_SRCLINT_BIN) + " --werror " + fixtures +
                      "/waivers.cpp"),
            1);
}

TEST(SrclintExitCodeTest, BareWaiverIsBadArgs) {
  EXPECT_EQ(exit_code(std::string(G10_SRCLINT_BIN) + " " +
                      std::string(G10_SRCLINT_FIXTURE_DIR) +
                      "/bare_waiver.cpp"),
            kExitBadArgs);
}

TEST(EnsembleExitCodeTest, UnknownFlagIsBadArgs) {
  EXPECT_EQ(exit_code(std::string(G10_ENSEMBLE_BIN) + " --bogus 1"),
            kExitBadArgs);
}

TEST(EnsembleExitCodeTest, UnparseableFaultSpecIsParseFailure) {
  EXPECT_EQ(exit_code(std::string(G10_ENSEMBLE_BIN) + " --out " +
                      (test_root() / "unused").string() + " --faults junk"),
            kExitParseFailure);
}

TEST(EnsembleExitCodeTest, BadNumericFlagsAreBadArgs) {
  // These used to run: garbage as 0 (or the default), 2^32+1 wrapped around
  // to 1, a negative seed base to 2^64-1, and rmat:abc as scale 14.
  const std::string base = std::string(G10_ENSEMBLE_BIN) + " --out " +
                           (test_root() / "bad_numeric_fleet").string() +
                           " --engines gas --dataset rmat:5 --workers 2"
                           " --cores 2 --iterations 2 --seeds 1 --quiet";
  for (const char* flags :
       {" --workers 4294967297", " --cores abc", " --iterations 0",
        " --seeds 4294967297", " --seed-base -1",
        " --sampled-faults 4294967296", " --max-attempts 4294967297",
        " --crash-budget 2x", " --dataset rmat:abc", " --dataset rmat:0",
        " --dataset datagen:1"}) {
    EXPECT_EQ(exit_code(base + flags), kExitBadArgs) << flags;
  }
}

TEST(EnsembleExitCodeTest, UnknownAlgorithmIsBadArgs) {
  // Used to exit 0 with every run failed and coverage 0.0%.
  EXPECT_EQ(exit_code(std::string(G10_ENSEMBLE_BIN) + " --out " +
                      (test_root() / "unknown_algorithm_fleet").string() +
                      " --engines pregel --algorithm foo --dataset rmat:5"
                      " --workers 2 --cores 2 --iterations 2 --seeds 2"
                      " --quiet"),
            kExitBadArgs);
}

TEST(EnsembleExitCodeTest, UnknownDatasetIsParseFailure) {
  EXPECT_EQ(exit_code(std::string(G10_ENSEMBLE_BIN) + " --out " +
                      (test_root() / "unused").string() +
                      " --dataset mystery:9"),
            kExitParseFailure);
}

TEST(EnsembleExitCodeTest, FreshStartOverAJournalIsRefused) {
  const std::string out = (test_root() / "fleet").string();
  const std::string base = std::string(G10_ENSEMBLE_BIN) + " --out " + out +
                           " --engines gas --dataset rmat:5 --workers 2"
                           " --cores 2 --iterations 2 --seeds 1 --quiet";
  ASSERT_EQ(exit_code(base), kExitOk);
  EXPECT_EQ(exit_code(base), kExitBadArgs);  // would silently mix fleets
  EXPECT_EQ(exit_code(base + " --resume"), kExitOk);
}

/// Shared prefix for a tiny real fleet.
std::string tiny_fleet(const std::string& out) {
  return std::string(G10_ENSEMBLE_BIN) + " --out " + out +
         " --engines pregel --dataset rmat:5 --workers 2 --cores 2"
         " --iterations 2 --seeds 3 --quiet";
}

TEST(EnsembleExitCodeTest, ZeroJobsIsBadArgs) {
  const std::string out = (test_root() / "combos").string();
  EXPECT_EQ(exit_code(tiny_fleet(out) + " --jobs 0"), kExitBadArgs);
}

TEST(EnsembleExitCodeTest, DeletedInProcessFlagsAreUnknown) {
  // Worker processes are the only execution path: the in-process pool's
  // flags are gone, and --deadline-s is the wedge timeout. The rlimit
  // flags apply whenever they are set, so --isolate is gone too.
  const std::string out = (test_root() / "deleted_flags_fleet").string();
  for (const char* flags : {" --threads 2", " --limit 1",
                            " --wedge-timeout-s 60", " --isolate"}) {
    EXPECT_EQ(exit_code(tiny_fleet(out) + flags), kExitBadArgs) << flags;
  }
}

TEST(EnsembleExitCodeTest, AddressSpaceTooSmallToStartAbandonsTheShard) {
  if (kAddressSanitizer) {
    GTEST_SKIP() << "ASan builds install no RLIMIT_AS sandbox";
  }
  // 1 MiB holds no worker: each dies before it finishes a scenario, and
  // after the respawn cap the supervisor abandons the shard. The fleet
  // still exits 0, with every scenario missing.
  const std::string out = (test_root() / "rlimit_fleet").string();
  std::string printed;
  ASSERT_EQ(exit_code(tiny_fleet(out) + " --jobs 1 --rlimit-as-mb 1", printed),
            kExitOk);
  EXPECT_NE(printed.find("abandoned_shards=1"), std::string::npos)
      << printed;
  EXPECT_NE(printed.find("remaining 3 runs"), std::string::npos) << printed;
}

TEST(EnsembleExitCodeTest, SegfaultingWorkerSurfacesRunFailedWithSignal) {
  const std::string out = (test_root() / "segv_fleet").string();
  // The test-crash hook makes any worker that starts a seed=2 scenario die
  // by SIGSEGV; with a 1-attempt budget the supervisor journals run_failed
  // with the signal name, and the rest of the fleet completes: exit 0.
  ASSERT_EQ(exit_code("G10_ENSEMBLE_TEST_CRASH=segv:seed=2 " +
                      tiny_fleet(out) + " --jobs 2 --max-attempts 1"),
            kExitOk);
  const std::string journal = slurp(out + "/journal.jsonl");
  EXPECT_NE(journal.find("\"outcome\":\"run_failed\""), std::string::npos);
  EXPECT_NE(journal.find("SIGSEGV"), std::string::npos);
  EXPECT_NE(journal.find("\"outcome\":\"ok\""), std::string::npos);
  // Reports were still written: a crashed scenario degrades coverage, it
  // does not fail the fleet.
  EXPECT_FALSE(slurp(out + "/report.json").empty());
}

TEST(EnsembleExitCodeTest, SigkilledWorkerSurfacesRunFailedWithSignal) {
  const std::string out = (test_root() / "kill_fleet").string();
  // SIGKILL is what the OOM killer delivers: same containment path.
  ASSERT_EQ(exit_code("G10_ENSEMBLE_TEST_CRASH=kill:seed=3 " +
                      tiny_fleet(out) + " --jobs 2 --max-attempts 1"),
            kExitOk);
  const std::string journal = slurp(out + "/journal.jsonl");
  EXPECT_NE(journal.find("\"outcome\":\"run_failed\""), std::string::npos);
  EXPECT_NE(journal.find("SIGKILL"), std::string::npos);
}

TEST(EnsembleExitCodeTest, SpinningRunIsJournaledTimeoutPastTheDeadline) {
  const std::string out = (test_root() / "wedge_fleet").string();
  const std::string journal_path = out + "/journal.jsonl";
  // The healthy scenarios run first, with no deadline, so no host speed
  // can time them out: the whole fleet runs, and the seed=2 scenario's
  // line is then dropped from the journal so that a resume runs it again.
  ASSERT_EQ(exit_code(tiny_fleet(out)), kExitOk);
  {
    std::string kept;
    int dropped = 0;
    std::ifstream journal(journal_path);
    for (std::string line; std::getline(journal, line);) {
      if (line.find("seed=2 ") != std::string::npos) {
        ++dropped;
      } else {
        kept += line + '\n';
      }
    }
    ASSERT_EQ(dropped, 1);
    std::ofstream(journal_path, std::ios::binary | std::ios::trunc) << kept;
  }
  // The hook parks any worker that starts a seed=2 scenario, heartbeats
  // still flowing; past --deadline-s the supervisor kills it and, with a
  // 1-attempt budget, journals timeout. The resume then completes.
  ASSERT_EQ(exit_code("G10_ENSEMBLE_TEST_CRASH=spin:seed=2 " +
                      tiny_fleet(out) +
                      " --resume --deadline-s 1 --max-attempts 1"),
            kExitOk);
  std::ifstream journal(journal_path);
  int lines = 0;
  for (std::string line; std::getline(journal, line); ++lines) {
    if (line.find("seed=2 ") != std::string::npos) {
      EXPECT_NE(line.find("\"outcome\":\"timeout\""), std::string::npos)
          << line;
      EXPECT_NE(line.find("worker wedged"), std::string::npos) << line;
    } else {
      EXPECT_NE(line.find("\"outcome\":\"ok\""), std::string::npos) << line;
    }
  }
  EXPECT_EQ(lines, 3);
}

TEST(EnsembleExitCodeTest, ReportsAreByteIdenticalAcrossJobs) {
  const std::string one = (test_root() / "j1_fleet").string();
  const std::string three = (test_root() / "j3_fleet").string();
  ASSERT_EQ(exit_code(tiny_fleet(one) + " --jobs 1"), kExitOk);
  ASSERT_EQ(exit_code(tiny_fleet(three) +
                      " --jobs 3 --rlimit-as-mb 8192 --rlimit-cpu-s 600"),
            kExitOk);
  EXPECT_EQ(slurp(one + "/report.json"), slurp(three + "/report.json"));
  EXPECT_EQ(slurp(one + "/report.txt"), slurp(three + "/report.txt"));
}

TEST(InterruptExitCodeTest, SigtermedEnsembleExitsInterrupted) {
  const std::string out = (test_root() / "interrupted_fleet").string();
  // The spin hook parks every seed=7 scenario, so the fleet is still
  // running when the SIGTERM lands; it is sent once the journal holds a
  // run, well after the supervisor installed its handler. The supervisor
  // terminates its workers and exits 6 with the journal flushed and
  // resumable.
  std::vector<std::string> fleet = {
      G10_ENSEMBLE_BIN, "--out", out, "--engines", "pregel,gas",
      "--dataset", "rmat:14", "--workers", "4", "--cores", "4",
      "--iterations", "10", "--seeds", "30", "--quiet"};
  Subprocess supervisor =
      spawn_quiet(fleet, "G10_ENSEMBLE_TEST_CRASH=spin:seed=7 ");
  ASSERT_TRUE(
      wait_until([&] { return line_count(out + "/journal.jsonl") >= 1; }));
  supervisor.kill(SIGTERM);
  EXPECT_EQ(exit_code_of(supervisor), kExitInterrupted);
  // The interrupted journal resumes cleanly.
  fleet.push_back("--resume");
  Subprocess resumed = spawn_quiet(fleet);
  EXPECT_EQ(exit_code_of(resumed), kExitOk);
}

TEST(InterruptExitCodeTest, SigtermedRunExitsInterrupted) {
  // The SIGTERM is sent once g10_run has installed its handler; eight
  // det-check executions of rmat:16 take far longer than the graph stage,
  // so it lands before the run could finish.
  Subprocess run = spawn_quiet(
      {G10_RUN_BIN, "--engine", "pregel", "--algorithm", "pagerank",
       "--dataset", "rmat:16", "--workers", "4", "--cores", "4",
       "--iterations", "20", "--det-check", "8"});
  ASSERT_TRUE(wait_until([&] { return catches(run.pid(), SIGTERM); }));
  run.kill(SIGTERM);
  EXPECT_EQ(exit_code_of(run), kExitInterrupted);
}

}  // namespace
}  // namespace g10
