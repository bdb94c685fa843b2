// Small string utilities used by the trace parsers and report renderers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace g10 {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char delim);

/// split() into a caller-owned vector (cleared first). Hot parse loops
/// reuse one scratch vector instead of allocating per line.
void split_into(std::string_view s, char delim,
                std::vector<std::string_view>& out);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Joins parts with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

bool starts_with(std::string_view s, std::string_view prefix);

/// Strict integer / double parsing; nullopt on any trailing garbage.
std::optional<std::int64_t> parse_int(std::string_view s);
std::optional<double> parse_double(std::string_view s);

/// parse_int() of a value that must lie in [lo, INT_MAX], so it fits an int.
std::optional<int> parse_int_at_least(std::string_view s, int lo);

/// Formats a double with fixed precision (reporting helper).
std::string format_fixed(double value, int decimals);

/// "12.3%" style helper: value 0.123 -> "12.3%".
std::string format_percent(double fraction, int decimals = 1);

}  // namespace g10
