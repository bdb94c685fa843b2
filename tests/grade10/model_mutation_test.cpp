// Deterministic mutation test of the model reader. Damaged copies of the
// model lint fixtures and the shipped example models (lines deleted,
// duplicated, swapped or cut off; tokens swapped, duplicated or replaced;
// numbers edited) go through parse_model. Whatever the damage:
//  - nothing throws (crashes fail the test run itself);
//  - every defect names a rule of the lint catalog, and it is rejected
//    exactly when lint calls it an error (model-rule-conflict aside: the
//    parser accepts it, last rule wins);
//  - parse_model fails exactly when a rejecting defect exists;
//  - a model that parses writes out as a fixed point: writing it, reading
//    that back and writing again yields the same bytes.
// The mutants come from a fixed seed, so a failure reproduces exactly; the
// failing mutant's text is printed with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "grade10/lint/lint.hpp"
#include "grade10/model/model_io.hpp"

namespace g10::lint {
namespace {

constexpr std::uint64_t kSeed = 20201017;
constexpr int kMutantsPerModel = 400;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << "missing model: " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return std::move(buffer).str();
}

/// The model fixtures and example models, by name so the mutants do not
/// depend on the order the directories list them in, plus a phase ordered
/// before itself.
std::vector<std::string> corpus() {
  std::vector<std::filesystem::path> paths;
  for (const char* dir : {G10_LINT_FIXTURE_DIR, G10_EXAMPLE_MODEL_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".g10") && name != "trace-model.g10") {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) texts.push_back(slurp(path));
  texts.push_back("PHASE Job\nPHASE A PARENT=Job\nORDER A A\n");
  return texts;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> tokens;
  for (const std::string_view token : split(line, ' ')) {
    tokens.emplace_back(token);
  }
  return tokens;
}

/// A number to put where the model expects one, ordinary or not.
std::string number(Rng& rng) {
  static const std::vector<std::string> kEdgeCases = {
      "0",    "-1",  "-0",         "1e-9",       "0.0000004", "nan",
      "inf",  "1e400", "2147483648", "4294967297", "1x",        ""};
  if (rng.next_bool(0.5)) return std::to_string(rng.next_int(1, 64));
  return kEdgeCases[rng.next_below(kEdgeCases.size())];
}

/// Replaces one number of the file (a token holding a digit), if it has
/// any, with number().
void edit_number(std::vector<std::string>& lines, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> numbers;
  for (std::size_t l = 0; l < lines.size(); ++l) {
    const std::vector<std::string> tokens = tokens_of(lines[l]);
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      if (tokens[t].find_first_of("0123456789") != std::string::npos) {
        numbers.emplace_back(l, t);
      }
    }
  }
  if (numbers.empty()) return;
  const auto [l, t] = numbers[rng.next_below(numbers.size())];
  std::vector<std::string> tokens = tokens_of(lines[l]);
  const std::size_t eq = tokens[t].find('=');
  tokens[t] = eq == std::string::npos
                  ? number(rng)
                  : tokens[t].substr(0, eq + 1) + number(rng);
  lines[l] = join(tokens, " ");
}

/// Applies one random edit to `lines`.
void mutate(std::vector<std::string>& lines, Rng& rng) {
  if (lines.empty()) return;
  const std::size_t at = rng.next_below(lines.size());
  std::vector<std::string> tokens = tokens_of(lines[at]);
  const std::size_t t = rng.next_below(tokens.size());
  switch (rng.next_below(8)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      return;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_below(lines.size() + 1)),
                   lines[at]);
      return;
    case 2:
      std::swap(lines[at], lines[rng.next_below(lines.size())]);
      return;
    case 3:
      lines.resize(at);
      return;
    case 4:
      std::swap(tokens[t], tokens[rng.next_below(tokens.size())]);
      break;
    case 5:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                    tokens[t]);
      break;
    case 6: {
      // A token from elsewhere in the file: a name, keyword or attribute.
      const std::vector<std::string> donor =
          tokens_of(lines[rng.next_below(lines.size())]);
      tokens[t] = donor[rng.next_below(donor.size())];
      break;
    }
    default:
      edit_number(lines, rng);
      return;
  }
  lines[at] = join(tokens, " ");
}

std::string written(const core::ModelDescription& model) {
  std::ostringstream os;
  core::write_model(os, model.execution, model.resources, model.rules);
  return os.str();
}

core::ModelParseResult parse(const std::string& text) {
  std::istringstream is(text);
  return core::parse_model(is);
}

/// Runs one mutant through the reader, checking the header's invariants.
void check(const std::string& text) {
  core::ModelParseResult result;
  ASSERT_NO_THROW(result = parse(text));
  bool rejected = false;
  for (const core::ModelDefect& defect : result.defects) {
    const RuleInfo* rule = find_rule(defect.rule_id);
    ASSERT_NE(rule, nullptr) << "defect without a lint rule: "
                             << defect.message;
    const bool rejects =
        defect.response == core::ModelDefect::Response::kReject;
    EXPECT_EQ(rejects, rule->severity == Severity::kError &&
                           defect.rule_id != "model-rule-conflict")
        << defect.rule_id;
    rejected = rejected || rejects;
  }
  ASSERT_EQ(result.ok(), !rejected);
  if (!result.ok()) return;
  const std::string once = written(result.model);
  const core::ModelParseResult reread = parse(once);
  ASSERT_TRUE(reread.ok()) << "written model does not parse: "
                           << reread.error->message << "\n" << once;
  EXPECT_EQ(written(reread.model), once);
}

TEST(ModelMutationTest, ReaderRecordsEveryDefectOfDamagedModels) {
  const std::vector<std::string> models = corpus();
  ASSERT_GE(models.size(), 20u);
  Rng rng(kSeed);
  for (std::size_t m = 0; m < models.size(); ++m) {
    std::vector<std::string> original;
    for (const std::string_view line : split(models[m], '\n')) {
      original.emplace_back(line);
    }
    check(models[m]);
    for (int i = 0; i < kMutantsPerModel && !HasFailure(); ++i) {
      std::vector<std::string> lines = original;
      for (auto edits = 1 + rng.next_below(3); edits > 0; --edits) {
        mutate(lines, rng);
      }
      check(join(lines, "\n"));
      if (HasFailure()) {
        FAIL() << "model " << m << " mutant " << i << ":\n"
               << join(lines, "\n");
      }
    }
  }
}

}  // namespace
}  // namespace g10::lint
