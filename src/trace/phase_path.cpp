#include "trace/phase_path.hpp"

#include <charconv>

#include "common/strings.hpp"

namespace g10::trace {

PhasePath PhasePath::parent() const {
  PhasePath p;
  if (elements.size() > 1) {
    p.elements.assign(elements.begin(), elements.end() - 1);
  }
  return p;
}

PhasePath PhasePath::child(std::string type, std::int64_t index) const {
  PhasePath p = *this;
  p.elements.push_back(PathElement{std::move(type), index});
  return p;
}

std::string PhasePath::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void PhasePath::append_to(std::string& out) const {
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i != 0) out += '/';
    out += elements[i].type;
    out += '.';
    char digits[24];
    const auto end =
        std::to_chars(digits, digits + sizeof(digits), elements[i].index).ptr;
    out.append(digits, end);
  }
}

bool tokenize_phase_path(std::string_view text, std::vector<PathToken>& out) {
  out.clear();
  for (std::size_t pos = 0;;) {
    const std::size_t slash = text.find('/', pos);
    const std::string_view part = text.substr(
        pos, slash == std::string_view::npos ? slash : slash - pos);
    const std::size_t dot = part.rfind('.');
    if (dot == std::string_view::npos) return false;
    const auto index = parse_int(part.substr(dot + 1));
    if (!index) return false;
    out.push_back(PathToken{part.substr(0, dot), *index});
    if (slash == std::string_view::npos) break;
    pos = slash + 1;
  }
  return !phase_path_defect(out);
}

PhasePath to_phase_path(std::span<const PathToken> tokens) {
  PhasePath path;
  path.elements.reserve(tokens.size());
  for (const PathToken& token : tokens) {
    path.elements.push_back(PathElement{std::string(token.type), token.index});
  }
  return path;
}

std::optional<PhasePath> parse_phase_path(std::string_view text) {
  std::vector<PathToken> tokens;
  if (!tokenize_phase_path(text, tokens)) return std::nullopt;
  return to_phase_path(tokens);
}

std::optional<std::string> phase_path_defect(std::span<const PathToken> path) {
  if (path.empty()) return "empty phase path";
  for (const PathToken& element : path) {
    if (element.type.empty()) return "phase path element with an empty type";
    if (element.type.find('/') != std::string_view::npos) {
      return "phase type '" + std::string(element.type) + "' contains '/'";
    }
    if (element.index < 0) {
      return "negative phase index " + std::to_string(element.index);
    }
  }
  return std::nullopt;
}

}  // namespace g10::trace
