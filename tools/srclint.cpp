// g10_srclint — determinism & concurrency lint over this repository's own
// C++ sources (DESIGN.md §14):
//
//   g10_srclint [--json] [--werror] <file-or-dir>...
//   g10_srclint --rules                (--help lists the flags, exit 2)
//
// Directories are walked recursively for *.cpp / *.hpp / *.h, skipping
// build trees and hidden directories; files are scanned in sorted path
// order so output is byte-stable across filesystems. After the findings, a
// one-line suppression account is printed (files, waivers, suppressed
// findings) so reviewers can see how much of the tree is excused rather
// than clean.
//
// Exit codes (common/exit_codes.hpp): 0 = clean or warnings only, 1 =
// errors (or any finding with --werror), 2 = usage/I-O failure or a bare
// waiver — a suppression without a reason is malformed input, not a mere
// finding.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "srclint/srclint.hpp"

namespace g10 {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::vector<std::string> paths;
  bool json = false;
  bool werror = false;
  bool list_rules = false;
};

cli::Table flag_table(Args& args) {
  return {"g10_srclint [flags] <file-or-dir>...\n       g10_srclint --rules",
          {{"--json", cli::Switch{&args.json}, "findings as JSON"},
           {"--werror", cli::Switch{&args.werror}, "exit 1 on warnings too"},
           {"--rules", cli::Switch{&args.list_rules}, "list every rule id"}}};
}

int list_rules() {
  for (const lint::RuleInfo& rule : srclint::rule_catalog()) {
    std::cout << rule.id << " (" << lint::to_string(rule.severity) << "): "
              << rule.summary << '\n';
  }
  return kExitOk;
}

bool is_source_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

bool skip_dir(const fs::path& path) {
  const std::string name = path.filename().string();
  return name == "build" || (name.size() > 1 && name.front() == '.');
}

/// Expands the argument list into a sorted list of source files.
std::optional<std::vector<std::string>> collect_files(
    const std::vector<std::string>& roots) {
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    const fs::file_status status = fs::status(root, ec);
    if (ec || status.type() == fs::file_type::not_found) {
      std::cerr << "cannot open: " << root << '\n';
      return std::nullopt;
    }
    if (status.type() != fs::file_type::directory) {
      files.push_back(root);
      continue;
    }
    fs::recursive_directory_iterator it(root, ec);
    const fs::recursive_directory_iterator end;
    for (; it != end; it.increment(ec)) {
      if (ec) {
        std::cerr << "cannot walk: " << root << ": " << ec.message() << '\n';
        return std::nullopt;
      }
      if (it->is_directory() && skip_dir(it->path())) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && is_source_file(it->path())) {
        files.push_back(it->path().generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return std::move(buffer).str();
}

int run(const Args& args) {
  const auto files = collect_files(args.paths);
  if (!files) return kExitBadArgs;

  lint::LintReport report;
  srclint::ScanStats stats;
  for (const std::string& path : *files) {
    const auto text = slurp(path);
    if (!text) {
      std::cerr << "cannot open: " << path << '\n';
      return kExitBadArgs;
    }
    report.merge(srclint::scan_source(*text, path, &stats));
  }

  if (args.json) {
    lint::render_json(std::cout, report);
  } else {
    lint::render_text(std::cout, report);
    std::cout << stats.files << " file(s), " << stats.waivers
              << " waiver(s), " << stats.suppressed
              << " finding(s) suppressed\n";
  }
  if (stats.bare_waivers > 0) return kExitBadArgs;
  if (report.error_count() > 0) return 1;
  if (args.werror && !report.clean()) return 1;
  return kExitOk;
}

}  // namespace
}  // namespace g10

int main(int argc, char** argv) {
  g10::Args args;
  const g10::cli::Table table = g10::flag_table(args);
  if (const int rc = g10::cli::parse(table, argc, argv, &args.paths)) {
    return rc;
  }
  if (args.list_rules) return g10::list_rules();
  if (args.paths.empty()) return g10::cli::usage_error(table);
  try {
    return g10::run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return g10::kExitInternalError;
  }
}
