#include "common/cli.hpp"

#include <signal.h>

#include <algorithm>
#include <charconv>
#include <iostream>
#include <type_traits>

#include "common/exit_codes.hpp"
#include "common/strings.hpp"

namespace g10::cli {
namespace {

/// The row whose name, up to its placeholder, is `arg`.
const Flag* find(std::span<const Flag> flags, std::string_view arg) {
  for (const Flag& flag : flags) {
    if (flag.name.substr(0, flag.name.find(' ')) == arg) return &flag;
  }
  return nullptr;
}

using Int64 = std::numeric_limits<std::int64_t>;

/// Shortest round-trip text of a double, or of an int64 in a long double.
template <typename Number>
std::string number(Number value) {
  char buf[64];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Stores `value` into the flag's target, which is not a Switch or a
/// Setter. Returns "", or what the value should have been.
std::string store(const Flag& flag, const std::string& value) {
  return std::visit(
      [&](const auto& target) -> std::string {
        using T = std::remove_cvref_t<decltype(target)>;
        if constexpr (std::is_same_v<T, std::string*>) {
          *target = value;
        } else if constexpr (std::is_same_v<T, double*>) {
          const auto parsed = parse_double(value);
          if (!parsed || !(*parsed >= flag.lo && *parsed <= flag.hi)) {
            return flag.lo == Flag{}.lo && flag.hi == Flag{}.hi
                       ? "a finite number"
                       : "a number in [" + number(flag.lo) + ", " +
                             number(flag.hi) + "]";
          }
          *target = *parsed;
        } else if constexpr (std::is_same_v<T, Enum>) {
          const auto& names = target.names;
          const auto it = std::find(names.begin(), names.end(), value);
          if (it == names.end()) return "one of " + join(names, "|");
          target.store(static_cast<std::size_t>(it - names.begin()));
        } else if constexpr (std::is_pointer_v<T>) {  // an integer
          // parse_int reads an int64, which caps every target.
          using Int = std::remove_pointer_t<T>;
          const long double lo = std::max<long double>(
              {flag.lo, std::numeric_limits<Int>::min(), Int64::min()});
          const long double hi = std::min<long double>(
              {flag.hi, std::numeric_limits<Int>::max(), Int64::max()});
          const auto parsed = parse_int(value);
          if (!parsed || *parsed < lo || *parsed > hi) {
            return "an integer in [" + number(lo) + ", " + number(hi) + "]";
          }
          *target = static_cast<Int>(*parsed);
        }
        return {};
      },
      flag.target);
}

std::atomic<bool> g_stop{false};

}  // namespace

Enum one_of(std::string* target, std::span<const std::string_view> names) {
  Enum out{{names.begin(), names.end()}, {}};
  out.store = [target, all = out.names](std::size_t i) { *target = all[i]; };
  return out;
}

int parse(const Table& table, int argc, const char* const* argv,
          std::vector<std::string>* positional) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const Flag* flag = find(table.flags, arg);
    if (flag == nullptr && positional != nullptr && !starts_with(arg, "-")) {
      positional->push_back(arg);
    } else if (flag == nullptr) {
      return usage_error(table, "unknown argument '" + arg + "'");
    } else if (const auto* on = std::get_if<Switch>(&flag->target)) {
      *on->target = on->value;
    } else if (i + 1 == argc) {
      return usage_error(table, arg + " needs a value");
    } else if (const auto* set = std::get_if<Setter>(&flag->target)) {
      const int code = (*set)(argv[++i]);
      if (code == kExitBadArgs) {
        return usage_error(table, arg + ": bad value '" + argv[i] + "'");
      }
      if (code != kExitOk) return code;
    } else if (const std::string want = store(*flag, argv[++i]);
               !want.empty()) {
      return usage_error(
          table, arg + ": want " + want + ", got '" + argv[i] + "'");
    }
  }
  return kExitOk;
}

std::string usage(const Table& table) {
  constexpr std::size_t kHelpColumn = 32;
  std::string out = "usage: " + table.synopsis + '\n';
  for (const Flag& flag : table.flags) {
    if (flag.hidden) continue;
    std::string left = "  " + flag.name;
    if (const auto* choice = std::get_if<Enum>(&flag.target)) {
      left += ' ' + join(choice->names, "|");
    }
    if (left.size() + 2 > kHelpColumn) left += '\n';
    const std::size_t used = left.size() - (left.rfind('\n') + 1);
    out += left + std::string(kHelpColumn - used, ' ') + flag.help + '\n';
  }
  return out;
}

int usage_error(const Table& table, const std::string& problem) {
  std::cerr << problem << (problem.empty() ? "" : "\n") << usage(table);
  return kExitBadArgs;
}

std::vector<std::string> pick(const Table& table, std::span<const Flag> subset,
                              int argc, const char* const* argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const Flag* flag = find(table.flags, argv[i]);
    const int valued = flag != nullptr && i + 1 < argc &&
                       !std::holds_alternative<Switch>(flag->target);
    if (flag != nullptr && find(subset, argv[i]) != nullptr) {
      out.insert(out.end(), argv + i, argv + i + 1 + valued);
    }
    i += valued;
  }
  return out;
}

std::atomic<bool>& stop_requested() { return g_stop; }

void install_stop_handlers() {
  struct sigaction action {};
  action.sa_handler = [](int) {
    g_stop.store(true, std::memory_order_release);
  };
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

}  // namespace g10::cli
