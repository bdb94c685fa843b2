// srclint: the determinism & concurrency source lint (DESIGN.md §14).
//
// Three layers under test: the lexer (comments/strings/preprocessor lines
// must not leak tokens), the rules D1-D5 against the bad-source fixture
// corpus (each must fire at its known file:line), and the waiver grammar
// (reasoned waivers suppress, bare waivers are errors, stale waivers warn).
// The final tests scan the real shipped tree and assert it is clean — the
// same gate CI's `g10_srclint --werror src tools bench` enforces.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "srclint/source_lexer.hpp"
#include "srclint/srclint.hpp"

namespace g10::srclint {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return std::move(buffer).str();
}

lint::LintReport scan_fixture(const std::string& name,
                              ScanStats* stats = nullptr) {
  const std::string path = std::string(G10_SRCLINT_FIXTURE_DIR) + "/" + name;
  return scan_source(slurp(path), path, stats);
}

std::vector<std::size_t> lines_of(const lint::LintReport& report,
                                  std::string_view rule_id) {
  std::vector<std::size_t> lines;
  for (const lint::LintFinding& finding : report.findings()) {
    if (finding.rule_id == rule_id) lines.push_back(finding.location.line);
  }
  return lines;
}

// ---------------------------------------------------------------- lexer --

TEST(SourceLexer, StripsCommentsAndPreprocessorLines) {
  const LexedSource lexed = lex_source(
      "#include <mutex>\n"
      "// std::mutex in a comment\n"
      "int x; /* std::mutex in a block */\n");
  for (const Token& token : lexed.tokens) {
    EXPECT_NE(token.text, "mutex") << "leaked from line " << token.line;
  }
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_FALSE(lexed.comments[0].code_before);
  EXPECT_TRUE(lexed.comments[1].code_before);
}

TEST(SourceLexer, StringsAndRawStringsAreOpaque) {
  const LexedSource lexed = lex_source(
      "const char* a = \"std::mutex getenv\";\n"
      "const char* b = R\"x(rand() time())x\";\n");
  for (const Token& token : lexed.tokens) {
    if (token.kind == TokenKind::kString) continue;
    EXPECT_NE(token.text, "mutex");
    EXPECT_NE(token.text, "getenv");
    EXPECT_NE(token.text, "rand");
  }
}

TEST(SourceLexer, TracksLinesAcrossBlockComments) {
  const LexedSource lexed = lex_source("/* one\ntwo\nthree */\nint x;\n");
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens.front().text, "int");
  EXPECT_EQ(lexed.tokens.front().line, 4u);
  ASSERT_EQ(lexed.comments.size(), 1u);
  EXPECT_EQ(lexed.comments[0].line, 1u);
  EXPECT_EQ(lexed.comments[0].end_line, 3u);
}

// ------------------------------------------------------- fixture corpus --

TEST(SrcLintRules, UnorderedIterFiresAtKnownLine) {
  const lint::LintReport report = scan_fixture("unordered_iter.cpp");
  EXPECT_EQ(lines_of(report, "src-unordered-iter"),
            (std::vector<std::size_t>{9}));
  EXPECT_EQ(report.error_count(), 1u);
}

TEST(SrcLintRules, RawEntropyFiresAtKnownLines) {
  const lint::LintReport report = scan_fixture("raw_entropy.cpp");
  EXPECT_EQ(lines_of(report, "src-raw-entropy"),
            (std::vector<std::size_t>{6, 7, 8}));
  EXPECT_EQ(report.error_count(), 3u);
}

TEST(SrcLintRules, RawMutexFiresAtKnownLines) {
  const lint::LintReport report = scan_fixture("raw_mutex.cpp");
  // Line 6 declares a lock_guard *of* a std::mutex: two raw uses.
  EXPECT_EQ(lines_of(report, "src-raw-mutex"),
            (std::vector<std::size_t>{5, 6, 6}));
}

TEST(SrcLintRules, PointerKeyFiresAtKnownLines) {
  const lint::LintReport report = scan_fixture("pointer_key.cpp");
  EXPECT_EQ(lines_of(report, "src-pointer-key"),
            (std::vector<std::size_t>{8, 9}));
}

TEST(SrcLintRules, FpParallelReduceFiresAtKnownLines) {
  const lint::LintReport report = scan_fixture("fp_parallel_reduce.cpp");
  EXPECT_EQ(lines_of(report, "src-fp-parallel-reduce"),
            (std::vector<std::size_t>{14, 15}));
}

TEST(SrcLintRules, CleanFixtureIsClean) {
  const lint::LintReport report = scan_fixture("clean.cpp");
  EXPECT_TRUE(report.clean()) << report.findings().size() << " finding(s)";
}

TEST(SrcLintRules, EntropyIsExemptInToolMainsAndRngHome) {
  const std::string text = "#include <cstdlib>\n"
                           "int f() { return std::rand(); }\n";
  EXPECT_TRUE(scan_source(text, "tools/run_workload.cpp").clean());
  EXPECT_TRUE(scan_source(text, "src/common/rng.cpp").clean());
  EXPECT_FALSE(scan_source(text, "src/engine/foo.cpp").clean());
}

TEST(SrcLintRules, MemberTimeCallsAreNotEntropy) {
  // clock.time() is a method call, not ::time(); only the free call fires.
  const std::string text =
      "int f(Clock& clock) { return clock.time() + time(nullptr); }\n";
  const lint::LintReport report = scan_source(text, "src/x.cpp");
  EXPECT_EQ(lines_of(report, "src-raw-entropy").size(), 1u);
}

TEST(SrcLintRules, PointerValueIsNotAPointerKey) {
  // Pointer *values* are fine; only pointer keys order by address.
  const std::string text = "#include <map>\n"
                           "std::map<int, Node*> by_id;\n";
  EXPECT_TRUE(scan_source(text, "src/x.cpp").clean());
}

// ----------------------------------------------------------- waivers --

TEST(SrcLintWaivers, ReasonedWaiversSuppressEveryRule) {
  ScanStats stats;
  const lint::LintReport report = scan_fixture("waivers.cpp", &stats);
  // Only the stale waiver survives, as a warning.
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_EQ(lines_of(report, "src-waiver-unused"),
            (std::vector<std::size_t>{33}));
  EXPECT_EQ(stats.waivers, 6u);
  EXPECT_EQ(stats.suppressed, 5u);
  EXPECT_EQ(stats.bare_waivers, 0u);
}

TEST(SrcLintWaivers, BareWaiverIsAnErrorAndSuppressesNothing) {
  ScanStats stats;
  const lint::LintReport report = scan_fixture("bare_waiver.cpp", &stats);
  EXPECT_EQ(lines_of(report, "src-waiver-bare"),
            (std::vector<std::size_t>{5}));
  // The finding the bare waiver pretended to excuse still fires.
  EXPECT_EQ(lines_of(report, "src-raw-entropy"),
            (std::vector<std::size_t>{5}));
  EXPECT_EQ(stats.bare_waivers, 1u);
  EXPECT_EQ(stats.suppressed, 0u);
}

TEST(SrcLintWaivers, EmptyReasonIsBare) {
  const std::string text =
      "#include <cstdlib>\n"
      "int f() { return std::rand(); }  // srclint: entropy-ok(  )\n";
  const lint::LintReport report = scan_source(text, "src/x.cpp");
  EXPECT_TRUE(report.has_rule("src-waiver-bare"));
}

TEST(SrcLintWaivers, UnknownTagIsAnError) {
  const std::string text = "int x;  // srclint: sloppy-ok(not a real tag)\n";
  const lint::LintReport report = scan_source(text, "src/x.cpp");
  EXPECT_TRUE(report.has_rule("src-waiver-unknown"));
  EXPECT_EQ(report.error_count(), 1u);
}

TEST(SrcLintWaivers, ProseMentionOfTheGrammarIsNotAWaiver) {
  const std::string text =
      "// suppress with a trailing // srclint: entropy-ok(reason) comment\n"
      "int x;\n";
  EXPECT_TRUE(scan_source(text, "src/x.cpp").clean());
}

TEST(SrcLintWaivers, OwnLineWaiverTargetsTheNextLine) {
  const std::string text =
      "#include <cstdlib>\n"
      "// srclint: entropy-ok(covers the call below)\n"
      "int f() { return std::rand(); }\n";
  ScanStats stats;
  const lint::LintReport report = scan_source(text, "src/x.cpp", &stats);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(stats.suppressed, 1u);
}

// ------------------------------------------------------------- catalog --

TEST(SrcLintCatalog, SortedUniqueAndPrefixed) {
  const auto& catalog = rule_catalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog[i].id.substr(0, 4), "src-");
    if (i > 0) {
      EXPECT_LT(catalog[i - 1].id, catalog[i].id);
    }
  }
}

// ------------------------------------------------------- self-scan gate --

/// Scans a real repo directory the way the CLI does.
void scan_tree(const std::string& root, lint::LintReport& report,
               ScanStats& stats) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (fs::recursive_directory_iterator it(root), end; it != end; ++it) {
    const std::string name = it->path().filename().string();
    if (it->is_directory() &&
        (name == "build" || (name.size() > 1 && name.front() == '.'))) {
      it.disable_recursion_pending();
      continue;
    }
    const std::string ext = it->path().extension().string();
    if (it->is_regular_file() &&
        (ext == ".cpp" || ext == ".hpp" || ext == ".h")) {
      files.push_back(it->path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& path : files) {
    report.merge(scan_source(slurp(path), path, &stats));
  }
}

TEST(SrcLintSelfScan, ShippedTreeIsClean) {
  lint::LintReport report;
  ScanStats stats;
  scan_tree(G10_REPO_SRC_DIR, report, stats);
  scan_tree(G10_REPO_TOOLS_DIR, report, stats);
  scan_tree(G10_REPO_BENCH_DIR, report, stats);
  std::ostringstream rendered;
  lint::render_text(rendered, report);
  EXPECT_TRUE(report.clean()) << rendered.str();
  EXPECT_EQ(stats.bare_waivers, 0u) << rendered.str();
  EXPECT_GT(stats.files, 100u) << "tree walk found too few files";
  // Every live waiver must actually suppress something (no stale excuses),
  // and the suppression count is pinned so new waivers show up in review.
  EXPECT_EQ(stats.waivers, stats.suppressed);
}

}  // namespace
}  // namespace g10::srclint
