// The command line of the tools (DESIGN.md §18). Each tool declares its
// flags once, as rows of a table: a name, a typed target, an inclusive
// range, a help line and a hidden bit. parse() reads argv against the
// table, range-checks every value and stores it in order; usage() renders
// the help text from the same rows. A bad or out-of-range value, an
// unknown flag and a missing value all exit 2 (kExitBadArgs).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace g10::cli {

/// Upper bound of every thread, process and worker count a flag sets.
inline constexpr int kMaxConcurrency = 1024;
/// Upper bound of every flag in seconds (such a flag is also finite).
inline constexpr double kMaxSeconds = 1e9;
/// Lower bound of a number that must be greater than 0.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/// A flag without a value: stores `value` in `*target`.
struct Switch {
  bool* target = nullptr;
  bool value = true;
};

/// A value named from a fixed list; store(i) stores what names[i] means.
struct Enum {
  std::vector<std::string> names;
  std::function<void(std::size_t)> store;
};

/// An Enum that stores the chosen name itself.
Enum one_of(std::string* target, std::span<const std::string_view> names);

/// An Enum that stores the value paired with the chosen name.
template <typename T>
Enum one_of(T* target, std::vector<std::pair<std::string, T>> choices) {
  Enum out;
  for (const auto& choice : choices) out.names.push_back(choice.first);
  out.store = [target, choices = std::move(choices)](std::size_t i) {
    *target = choices[i].second;
  };
  return out;
}

/// Parses a list or spec value and stores it. Returns kExitOk, or the exit
/// code the value earns: kExitBadArgs, or kExitParseFailure for a spec
/// with a grammar of its own (after printing why).
using Setter = std::function<int(const std::string& value)>;

using Target = std::variant<Switch, int*, std::int64_t*, std::uint64_t*,
                            double*, std::string*, Enum, Setter>;

/// One row of a flag table.
struct Flag {
  /// The flag, then the usage text's placeholder for its value:
  /// "--workers N". An Enum lists its names instead.
  std::string name;
  Target target;
  std::string help;  ///< one line of usage text
  /// Inclusive range of a number; an integer must also fit its target. The
  /// default admits every finite value, so nan and inf are always refused.
  double lo = -std::numeric_limits<double>::max();
  double hi = std::numeric_limits<double>::max();
  bool hidden = false;  ///< parsed, but left out of the usage text
};

/// A tool's command line.
struct Table {
  std::string synopsis;  ///< the line(s) after "usage: "
  std::vector<Flag> flags;
};

/// Parses argv[1..argc) against `table`, storing each value as it is read;
/// a later flag overrides an earlier one. An argument that is not a flag
/// and does not start with '-' goes to `positional` when it is given.
/// Returns kExitOk; or, on a bad argument, prints what was wrong and the
/// usage text to stderr and returns kExitBadArgs; or a Setter's code.
int parse(const Table& table, int argc, const char* const* argv,
          std::vector<std::string>* positional = nullptr);

/// The usage text: the synopsis, then one line per visible flag.
std::string usage(const Table& table);

/// Prints `problem` (when set) and usage(table) to stderr and returns
/// kExitBadArgs: also the exit of a command line that parses but is
/// incomplete or inconsistent.
int usage_error(const Table& table, const std::string& problem = "");

/// The arguments of argv[1..argc) that are flags of `subset`, each with
/// its value, in order. argv must have parsed against `table`.
std::vector<std::string> pick(const Table& table, std::span<const Flag> subset,
                              int argc, const char* const* argv);

/// Raised by SIGTERM and SIGINT once install_stop_handlers() has run; the
/// tools poll it at their stage boundaries. The store is lock-free, so it
/// is safe in a signal handler.
std::atomic<bool>& stop_requested();
void install_stop_handlers();

}  // namespace g10::cli
