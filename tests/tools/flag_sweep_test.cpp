// Feeds every flag of every tool the same seven values — garbage, a
// negative, 0, 2^31, nan, inf and one valid value — and pins the exit code
// of each (src/common/exit_codes.hpp). A switch takes no value, so the
// first six become a stray argument after it. Valid values run on a tiny
// dataset, with --threads 1 where the tool has it (the ensemble's fleets
// run one scenario, so one worker process, instead). Rows marked
// "was ..." exited otherwise before the flag tables bounded them.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/exit_codes.hpp"

namespace g10 {
namespace {

int exit_code(const std::string& command) {
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  EXPECT_TRUE(WIFEXITED(status)) << command << " did not exit normally";
  return WEXITSTATUS(status);
}

std::filesystem::path test_root() {
  static const std::filesystem::path root = [] {
    auto path = std::filesystem::temp_directory_path() /
                ("g10_flag_sweep_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
  }();
  return root;
}

/// Removes the sweep's directories (dozens of tiny fleets) after the run.
class RemoveTestRoot : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(test_root()); }
};
const auto* const kRemoveTestRoot =
    ::testing::AddGlobalTestEnvironment(new RemoveTestRoot);

/// A tiny run's artifacts, shared by the analysis tools' rows.
const std::string& artifacts() {
  static const std::string dir = [] {
    const std::string out = (test_root() / "run").string();
    EXPECT_EQ(exit_code(std::string(G10_RUN_BIN) +
                        " --engine pregel --algorithm pagerank"
                        " --dataset rmat:5 --workers 2 --cores 2"
                        " --iterations 2 --monitor-ms 20 --out " +
                        out),
              kExitOk);
    return out;
  }();
  return dir;
}

std::string expand(std::string text) {
  for (const auto& [key, value] :
       {std::pair<std::string, std::string>{"{model}",
                                            artifacts() + "/model.g10"},
        {"{log}", artifacts() + "/run.log"},
        {"{fixtures}", G10_SRCLINT_FIXTURE_DIR}}) {
    for (std::size_t at; (at = text.find(key)) != std::string::npos;) {
      text.replace(at, key.size(), value);
    }
  }
  return text;
}

struct Row {
  const char* flag;
  const char* valid;  ///< nullptr for a switch
  const char* codes;  ///< one exit code per value, in kValues order
  const char* context = "";  ///< extra arguments the valid value needs
  /// An accepted invalid value would start that many threads or workers:
  /// a bad --faults spec after it then exits 3 while parsing, before any
  /// starts, so a broken bound shows as 3 instead of a fork bomb.
  bool guard = false;
};

const char* const kValues[] = {"abc", "-1", "0", "2147483648", "nan", "inf"};

/// Runs every row of one tool in its own directory. `base` is the command
/// line that precedes the flag; "{n}" in it becomes a fresh number.
void sweep(const std::string& tool, const std::string& bin,
           const std::string& base, const std::vector<Row>& rows) {
  const std::filesystem::path cwd = test_root() / tool;
  std::filesystem::create_directories(cwd);
  int n = 0;
  for (const Row& row : rows) {
    std::string codes;
    for (int i = 0; i <= 6; ++i) {
      std::string numbered = base;
      if (const auto at = numbered.find("{n}"); at != std::string::npos) {
        numbered.replace(at, 3, std::to_string(++n));
      }
      std::string command = "cd " + cwd.string() + " && " + bin + " " +
                            expand(numbered) + " " + row.flag;
      if (i == 6) {
        if (*row.context != '\0') command += std::string(" ") + row.context;
        if (row.valid != nullptr) command += " " + expand(row.valid);
      } else {
        command += std::string(" ") + kValues[i];
        if (row.guard) command += " --faults junk";
      }
      codes += std::to_string(exit_code(command));
    }
    EXPECT_EQ(codes, row.codes) << tool << ' ' << row.flag;
  }
}

TEST(FlagSweepTest, Run) {
  sweep("run", G10_RUN_BIN,
        "--engine pregel --algorithm pagerank --dataset rmat:5 --workers 2"
        " --cores 2 --iterations 2 --monitor-ms 20 --out out --threads 1",
        {{"--engine", "gas", "2222220"},
         {"--algorithm", "bfs", "2222220"},
         {"--dataset", "rmat:4", "3333330"},
         {"--out", "out2", "0000000"},
         {"--workers", "3", "2222220"},
         {"--cores", "1", "2222220"},
         {"--iterations", "3", "2222220"},
         {"--seed", "7", "2200220"},
         {"--monitor-ms", "10", "2220220"},
         {"--sync-bug", nullptr, "2222220"},
         {"--faults", "crash:w1@40%", "3333330"},
         {"--crash-log", "truncated", "2222220"},
         {"--det-check", "2", "2222220"},
         {"--threads", "2", "2232220", "", true},
         {"--trace-format", "both", "2222220"}});
}

TEST(FlagSweepTest, Analyze) {
  sweep("analyze", G10_ANALYZE_BIN, "--model {model} --log {log} --threads 1",
        {{"--model", "{model}", "3333330"},
         {"--log", "{log}", "3333330"},
         {"--timeslice-ms", "10", "2220220"},
         {"--min-impact", "0", "2000220"},
         {"--threads", "2", "2202220"},
         {"--chrome-trace", "t.json", "0000000"},
         {"--det-check", "2", "2222220"},
         // was 2000220: 2^31 wrapped to a negative machine id
         {"--machines", "0,1", "2002220"},
         {"--phases", "Superstep", "0000000"},
         {"--time-range", "0:1000000000", "2222220"},
         {"--lenient", nullptr, "2222220"},
         {"--strict", nullptr, "2222220"},
         {"--no-preflight", nullptr, "2222220"}});
}

TEST(FlagSweepTest, Convert) {
  sweep("convert", G10_CONVERT_BIN, "--in {log} --out c.g10t --threads 1",
        {{"--in", "{log}", "3333330"},
         {"--out", "d.g10t", "0000000"},
         {"--to", "text", "2222220"},
         {"--block-records", "64", "2220220"},
         {"--threads", "2", "2202220"},
         {"--verify", nullptr, "2222220"},
         {"--lenient", nullptr, "2222220"}});
}

TEST(FlagSweepTest, Lint) {
  sweep("lint", G10_LINT_BIN, "--model {model} --log {log} --threads 1",
        {{"--model", "{model}", "2222220"},
         {"--log", "{log}", "2222220"},
         {"--threads", "2", "2202220"},
         {"--json", nullptr, "2222220"},
         {"--werror", nullptr, "2222220"},
         {"--rules", nullptr, "2222220"}});
}

TEST(FlagSweepTest, Srclint) {
  // A stray value is a path that does not exist, except "-1", which is an
  // unknown flag; --rules ignores paths.
  sweep("srclint", G10_SRCLINT_BIN, "{fixtures}/clean.cpp",
        {{"--json", nullptr, "2222220"},
         {"--werror", nullptr, "2222220"},
         {"--rules", nullptr, "0200000"}});
}

TEST(FlagSweepTest, Ensemble) {
  sweep("ensemble", G10_ENSEMBLE_BIN,
        "--out fleet{n} --engines pregel --dataset rmat:5 --workers 2"
        " --cores 2 --iterations 2 --seeds 1 --quiet",
        {{"--out", "fleet", "0000000"},
         {"--engines", "gas", "2222220"},
         {"--algorithm", "bfs", "2222220"},
         {"--dataset", "rmat:4", "3333330"},
         {"--workers", "3", "2222220"},
         {"--cores", "1", "2222220"},
         {"--iterations", "3", "2222220"},
         {"--seeds", "2", "2222220"},
         {"--seed-base", "5", "2200220"},
         {"--faults", "crash:w1@40%", "3333330"},
         {"--sampled-faults", "1", "2202220"},
         {"--jitter", "0.1", "2202220"},
         {"--sync-bug", nullptr, "2222220"},
         // was 2220000: 2^31, nan and inf ran
         {"--deadline-s", "30", "2222220"},
         {"--max-attempts", "2", "2222220"},
         // was 2223220: 2^31 worker processes were accepted
         {"--jobs", "1", "2222220", "", true},
         // was 2220220: 0 (no limit) was refused
         {"--rlimit-as-mb", "8192", "2200220"},
         // was 2200000: 2^31, nan and inf ran
         {"--rlimit-cpu-s", "60", "2202220"},
         // was 2220000
         {"--hb-timeout-s", "5", "2222220"},
         {"--crash-budget", "2", "2222220"},
         {"--resume", nullptr, "2222220"},
         {"--quiet", nullptr, "2222220"},
         // A worker needs its fleet's directory, which a fresh --out lacks.
         {"--worker-shard", "0:1", "2222222"},
         {"--status-fd", "3", "2202220"},
         {"--defer-key", "0123456789abcdef", "2222220"}});
}

TEST(FlagSweepTest, ConcurrencyIsBoundedAt1024) {
  // Each command is rejected while parsing; were the bound broken, the
  // input after it would fail before any thread or worker starts (exit 3
  // for the first four, 1 for lint's unparseable model).
  const std::string model = (test_root() / "self_ordered.g10").string();
  std::ofstream(model) << "PHASE Job\nPHASE A PARENT=Job\nORDER A A\n";
  const std::string analyze = std::string(G10_ANALYZE_BIN) +
                              " --model /nonexistent.g10 --log " +
                              artifacts() + "/run.log";
  const std::string fleet = std::string(G10_ENSEMBLE_BIN) + " --out " +
                            (test_root() / "bounded").string() +
                            " --dataset rmat:5 --seeds 1 --quiet";
  for (const std::string& command :
       {analyze + " --threads 1025", analyze + " --det-check 1025",
        std::string(G10_RUN_BIN) + " --threads 1025 --faults junk",
        std::string(G10_CONVERT_BIN) +
            " --in /nonexistent.log --out " +
            (test_root() / "x.g10t").string() + " --threads 1025",
        std::string(G10_LINT_BIN) + " --model " + model + " --log " +
            artifacts() + "/run.log --threads 1025",
        fleet + " --jobs 1025 --faults junk"}) {
    EXPECT_EQ(exit_code(command), kExitBadArgs) << command;
  }
}

TEST(FlagSweepTest, ValuesThatDidNotFitTheirTargetAreBadArgs) {
  // Each of these used to run: on nan or the default, into an
  // out-of-range float-to-integer conversion, or with a wrapped value.
  const std::string fleet = std::string(G10_ENSEMBLE_BIN) + " --out " +
                            (test_root() / "unfit").string() +
                            " --dataset rmat:5 --seeds 1 --quiet --jobs 1";
  for (const std::string& flags :
       {std::string(" --deadline-s nan"), std::string(" --hb-timeout-s nan"),
        std::string(" --hb-timeout-s 1e300"),
        std::string(" --rlimit-cpu-s inf"),
        std::string(" --rlimit-as-mb 17592186044416")}) {
    EXPECT_EQ(exit_code(fleet + flags), kExitBadArgs) << flags;
  }
  EXPECT_EQ(exit_code(std::string(G10_ANALYZE_BIN) + " --model " +
                      artifacts() + "/model.g10 --log " + artifacts() +
                      "/run.log --machines 4294967296"),
            kExitBadArgs);
}

}  // namespace
}  // namespace g10
