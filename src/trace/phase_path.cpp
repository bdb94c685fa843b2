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

std::optional<PhasePath> parse_phase_path(std::string_view text) {
  PhasePath path;
  for (std::string_view part : split(text, '/')) {
    const std::size_t dot = part.rfind('.');
    if (dot == std::string_view::npos) return std::nullopt;
    const auto index = parse_int(part.substr(dot + 1));
    if (!index) return std::nullopt;
    path.elements.push_back(
        PathElement{std::string(part.substr(0, dot)), *index});
  }
  if (phase_path_defect(path)) return std::nullopt;
  return path;
}

std::optional<std::string> phase_path_defect(const PhasePath& path) {
  if (path.empty()) return "empty phase path";
  for (const PathElement& element : path.elements) {
    if (element.type.empty()) return "phase path element with an empty type";
    if (element.type.find('/') != std::string::npos) {
      return "phase type '" + element.type + "' contains '/'";
    }
    if (element.index < 0) {
      return "negative phase index " + std::to_string(element.index);
    }
  }
  return std::nullopt;
}

}  // namespace g10::trace
