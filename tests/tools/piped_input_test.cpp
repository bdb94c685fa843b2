// A trace read through a pipe or a FIFO is the same input as the file:
// g10_analyze and g10_lint print the same stdout for `--log <(cat L)` and
// for a FIFO as for `--log L`, and `cat L | g10_convert --in /dev/stdin`
// writes the same bytes as converting L. Covered for the text goldens and
// their `.g10t` conversions. Binary paths are injected at compile time
// (G10_ANALYZE_BIN & co).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <vector>

#include "common/exit_codes.hpp"

namespace g10 {
namespace {

struct Golden {
  std::string model;  ///< examples/models file stem
  std::string log;    ///< tests/engine/golden file name
};

/// One clean golden and two whose lint findings name the trace file.
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> all = {
      {"pregel", "pregel_pagerank_d512_s99_batched.log"},
      {"gas", "gas_pagerank_d512_s99_faulted.log"},
      {"pregel", "pregel_pagerank_d512_s99_faulted_lossy.log"},
  };
  return all;
}

std::filesystem::path test_root() {
  static const std::filesystem::path root = [] {
    auto path = std::filesystem::temp_directory_path() /
                ("g10_piped_input_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
  }();
  return root;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Single-quotes `text` for bash.
std::string quoted(const std::string& text) {
  std::string out = "'";
  for (const char c : text) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

struct Outcome {
  int exit_code = -1;
  std::string out;
};

/// Runs `script` under bash with stderr discarded; returns its exit code
/// and stdout.
Outcome run(const std::string& script) {
  Outcome outcome;
  FILE* pipe =
      ::popen(("bash -c " + quoted(script) + " 2>/dev/null").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << script;
  if (pipe == nullptr) return outcome;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    outcome.out.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status)) << script;
  outcome.exit_code = WEXITSTATUS(status);
  return outcome;
}

/// `out` with each `name` (findings carry the trace's name) as "<trace>".
std::string without_trace_name(std::string out, const std::string& name) {
  for (std::size_t at = out.find(name); at != std::string::npos;
       at = out.find(name, at)) {
    out.replace(at, name.size(), "<trace>");
  }
  return out;
}

std::string model_path(const Golden& golden) {
  return std::string(G10_EXAMPLE_MODEL_DIR) + "/" + golden.model + ".g10";
}

std::string text_path(const Golden& golden) {
  return std::string(G10_GOLDEN_TRACE_DIR) + "/" + golden.log;
}

/// The golden's `.g10t` conversion, written once.
std::string binary_path(const Golden& golden) {
  const std::string out = (test_root() / (golden.log + ".g10t")).string();
  if (!std::filesystem::exists(out)) {
    EXPECT_EQ(run(std::string(G10_CONVERT_BIN) + " --in " +
                  text_path(golden) + " --out " + out)
                  .exit_code,
              kExitOk);
  }
  return out;
}

/// `tool_prefix --log <trace>` from the file, through process
/// substitution, and through a FIFO: same exit code, same stdout.
void expect_same_from_pipe_and_fifo(const std::string& tool_prefix,
                                    const std::string& trace) {
  const Outcome file = run(tool_prefix + " --log " + trace);
  ASSERT_FALSE(file.out.empty()) << trace;
  const std::string expected = without_trace_name(file.out, trace);

  const Outcome piped = run(tool_prefix + " --log <(cat " + trace + ")");
  EXPECT_EQ(piped.exit_code, file.exit_code) << trace << " via a pipe";
  EXPECT_EQ(std::regex_replace(piped.out, std::regex("/dev/fd/[0-9]+"),
                               "<trace>"),
            expected)
      << trace << " via a pipe";

  const std::string fifo = (test_root() / "trace.fifo").string();
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const Outcome through_fifo =
      run("cat " + trace + " > " + fifo + " & " + tool_prefix + " --log " +
          fifo + "; rc=$?; wait; exit $rc");
  EXPECT_EQ(through_fifo.exit_code, file.exit_code) << trace << " via a FIFO";
  EXPECT_EQ(without_trace_name(through_fifo.out, fifo), expected)
      << trace << " via a FIFO";
}

TEST(PipedInputTest, AnalyzeReadsPipesAndFifosLikeTheFile) {
  for (const Golden& golden : goldens()) {
    const std::string analyze =
        std::string(G10_ANALYZE_BIN) + " --model " + model_path(golden);
    expect_same_from_pipe_and_fifo(analyze, text_path(golden));
    expect_same_from_pipe_and_fifo(analyze, binary_path(golden));
  }
}

TEST(PipedInputTest, LintReadsPipesAndFifosLikeTheFile) {
  for (const Golden& golden : goldens()) {
    const std::string lint =
        std::string(G10_LINT_BIN) + " --model " + model_path(golden);
    expect_same_from_pipe_and_fifo(lint, text_path(golden));
    expect_same_from_pipe_and_fifo(lint, binary_path(golden));
  }
}

TEST(PipedInputTest, DetCheckRefusesAPipe) {
  // --det-check re-reads the trace at each thread count; from a pipe the
  // later reads would get nothing and report a false divergence.
  const Golden& golden = goldens().front();
  const Outcome piped =
      run(std::string(G10_ANALYZE_BIN) + " --model " + model_path(golden) +
          " --log <(cat " + text_path(golden) + ") --det-check 2");
  EXPECT_EQ(piped.exit_code, kExitBadArgs);
  EXPECT_EQ(piped.out, "");
}

TEST(PipedInputTest, ConvertFromStdinWritesTheFileConversionsBytes) {
  for (const Golden& golden : goldens()) {
    for (const std::string& in : {text_path(golden), binary_path(golden)}) {
      const std::string ext = in == text_path(golden) ? ".g10t" : ".log";
      const std::string from_file = (test_root() / ("file" + ext)).string();
      const std::string from_pipe = (test_root() / ("pipe" + ext)).string();
      ASSERT_EQ(run(std::string(G10_CONVERT_BIN) + " --in " + in +
                    " --out " + from_file + " --verify")
                    .exit_code,
                kExitOk)
          << in;
      ASSERT_EQ(run("cat " + in + " | " + G10_CONVERT_BIN +
                    " --in /dev/stdin --out " + from_pipe + " --verify")
                    .exit_code,
                kExitOk)
          << in;
      const std::string expected = slurp(from_file);
      EXPECT_GT(expected.size(), 1000u) << in;
      EXPECT_EQ(slurp(from_pipe), expected) << in;
    }
  }
}

}  // namespace
}  // namespace g10
