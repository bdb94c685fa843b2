#include "grade10/lint/model_lint.hpp"

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"

namespace g10::lint {

namespace {

struct PhaseDecl {
  std::string name;
  std::string parent;  ///< empty for the root
  bool parent_resolved = false;
  std::size_t line = 0;
};

struct ResourceDecl {
  std::string name;
  bool blocking = false;
  double capacity = 0.0;
  std::size_t line = 0;
};

struct OrderDecl {
  std::string before;
  std::string after;
  std::size_t line = 0;
};

struct RuleDecl {
  std::string phase;
  std::string resource;
  char kind = 'V';  ///< 'N'one, 'E'xact, 'V'ariable
  double amount = 0.0;
  std::size_t line = 0;
};

/// Loose model-file reader: keeps every declaration it can make sense of
/// and reports (rather than stops at) malformed statements.
class ModelLinter {
 public:
  ModelLinter(std::string_view text, std::string_view filename)
      : text_(text), file_(filename) {}

  LintReport run() {
    scan();
    check_roots();
    check_reachability();
    check_order();
    check_rules();
    return std::move(report_);
  }

 private:
  Location at(std::size_t line, std::string context = {}) const {
    return Location{file_, line, std::move(context)};
  }

  void syntax(std::size_t line, std::string message, std::string context = {}) {
    report_.add("model-syntax", Severity::kError, at(line, std::move(context)),
                std::move(message));
  }

  const PhaseDecl* find_phase(std::string_view name) const {
    for (const PhaseDecl& p : phases_) {
      if (p.name == name) return &p;
    }
    return nullptr;
  }

  const ResourceDecl* find_resource(std::string_view name) const {
    for (const ResourceDecl& r : resources_) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }

  void scan() {
    std::istringstream is{std::string(text_)};
    std::string line;
    std::size_t line_number = 0;
    std::vector<std::string_view> fields;
    while (std::getline(is, line)) {
      ++line_number;
      const std::string_view trimmed = trim(line);
      if (trimmed.empty() || trimmed.front() == '#') continue;
      fields.clear();
      for (const auto part : split(trimmed, ' ')) {
        const auto token = trim(part);
        if (!token.empty()) fields.push_back(token);
      }
      if (fields[0] == "PHASE") {
        scan_phase(fields, line_number);
      } else if (fields[0] == "ORDER") {
        scan_order(fields, line_number);
      } else if (fields[0] == "RESOURCE") {
        scan_resource(fields, line_number);
      } else if (fields[0] == "RULE") {
        scan_rule(fields, line_number);
      } else if (fields[0] == "DEFAULT") {
        scan_default(fields, line_number);
      } else {
        syntax(line_number, "unknown statement: " + std::string(fields[0]));
      }
    }
    if (phases_.empty()) {
      report_.add("model-empty", Severity::kError, at(line_number),
                  "the model declares no phase types");
    }
  }

  void scan_phase(const std::vector<std::string_view>& f, std::size_t line) {
    if (f.size() < 2) {
      syntax(line, "PHASE needs a name");
      return;
    }
    PhaseDecl decl;
    decl.name = std::string(f[1]);
    decl.line = line;
    bool has_parent = false;
    for (std::size_t i = 2; i < f.size(); ++i) {
      const std::string_view arg = f[i];
      if (arg == "REPEATED" || arg == "WAIT") {
        // No lint rules key off these flags yet.
      } else if (starts_with(arg, "PARENT=")) {
        has_parent = true;
        decl.parent = std::string(arg.substr(7));
      } else if (starts_with(arg, "LIMIT=")) {
        const auto value = parse_int(arg.substr(6));
        if (!value || *value <= 0) {
          syntax(line, "bad LIMIT value", decl.name);
        }
      } else {
        syntax(line, "unknown PHASE attribute: " + std::string(arg),
               decl.name);
      }
    }
    if (find_phase(decl.name) != nullptr) {
      report_.add("model-duplicate-phase", Severity::kError,
                  at(line, decl.name),
                  "phase '" + decl.name + "' is declared more than once");
      return;
    }
    if (has_parent) {
      // Mirror parse_model(): a parent must be declared *before* its child.
      if (find_phase(decl.parent) != nullptr) {
        decl.parent_resolved = true;
      } else {
        report_.add("model-unknown-parent", Severity::kError,
                    at(line, decl.name),
                    "phase '" + decl.name + "' names parent '" + decl.parent +
                        "', which is not declared before it");
      }
    }
    phases_.push_back(std::move(decl));
  }

  void scan_order(const std::vector<std::string_view>& f, std::size_t line) {
    if (f.size() != 3) {
      syntax(line, "ORDER needs two phase names");
      return;
    }
    OrderDecl decl{std::string(f[1]), std::string(f[2]), line};
    bool known = true;
    for (const std::string& name : {decl.before, decl.after}) {
      if (find_phase(name) == nullptr) {
        report_.add("model-order-unknown-phase", Severity::kError,
                    at(line, name),
                    "ORDER references undeclared phase '" + name + "'");
        known = false;
      }
    }
    if (known) orders_.push_back(std::move(decl));
  }

  void scan_resource(const std::vector<std::string_view>& f,
                     std::size_t line) {
    if (f.size() < 3) {
      syntax(line, "RESOURCE needs a name and a kind");
      return;
    }
    ResourceDecl decl;
    decl.name = std::string(f[1]);
    decl.line = line;
    if (find_resource(decl.name) != nullptr) {
      report_.add("model-duplicate-resource", Severity::kError,
                  at(line, decl.name),
                  "resource '" + decl.name + "' is declared more than once");
      return;
    }
    if (f[2] == "BLOCKING") {
      decl.blocking = true;
    } else if (f[2] != "CONSUMABLE") {
      syntax(line, "RESOURCE kind must be CONSUMABLE or BLOCKING", decl.name);
      return;
    }
    std::optional<double> capacity;
    for (std::size_t i = 3; i < f.size(); ++i) {
      if (f[i] == "GLOBAL") {
        // Scope does not feed any lint rule.
      } else if (!decl.blocking && starts_with(f[i], "CAPACITY=")) {
        capacity = parse_double(f[i].substr(9));
      } else {
        syntax(line, "unknown RESOURCE attribute: " + std::string(f[i]),
               decl.name);
      }
    }
    if (!decl.blocking) {
      if (!capacity || *capacity <= 0.0) {
        syntax(line, "CONSUMABLE resource needs CAPACITY=<positive>",
               decl.name);
        return;
      }
      decl.capacity = *capacity;
    }
    resources_.push_back(std::move(decl));
  }

  /// Parses "NONE" / "EXACT <x>" / "VARIABLE <x>" starting at f[at].
  /// Returns false (after reporting) when the spec is malformed.
  bool scan_rule_spec(const std::vector<std::string_view>& f, std::size_t at,
                      std::size_t line, char& kind, double& amount) {
    if (f.size() <= at) {
      syntax(line, "missing rule spec");
      return false;
    }
    if (f[at] == "NONE") {
      if (f.size() != at + 1) {
        syntax(line, "NONE takes no argument");
        return false;
      }
      kind = 'N';
      return true;
    }
    if (f[at] != "EXACT" && f[at] != "VARIABLE") {
      syntax(line, "rule kind must be NONE, EXACT or VARIABLE");
      return false;
    }
    if (f.size() != at + 2) {
      syntax(line, "rule needs exactly one numeric argument");
      return false;
    }
    const auto value = parse_double(f[at + 1]);
    if (!value || *value <= 0.0) {
      syntax(line, "rule amount must be positive");
      return false;
    }
    kind = f[at] == "EXACT" ? 'E' : 'V';
    amount = *value;
    return true;
  }

  void scan_rule(const std::vector<std::string_view>& f, std::size_t line) {
    if (f.size() < 4) {
      syntax(line, "RULE needs <phase> <resource> <spec>");
      return;
    }
    RuleDecl decl;
    decl.phase = std::string(f[1]);
    decl.resource = std::string(f[2]);
    decl.line = line;
    bool known = true;
    if (find_phase(decl.phase) == nullptr) {
      report_.add("model-rule-unknown-phase", Severity::kError,
                  at(line, decl.phase),
                  "RULE references undeclared phase '" + decl.phase + "'");
      known = false;
    }
    if (find_resource(decl.resource) == nullptr) {
      report_.add("model-rule-unknown-resource", Severity::kError,
                  at(line, decl.resource),
                  "RULE references undeclared resource '" + decl.resource +
                      "'");
      known = false;
    }
    if (!scan_rule_spec(f, 3, line, decl.kind, decl.amount)) return;
    if (known) rules_.push_back(std::move(decl));
  }

  void scan_default(const std::vector<std::string_view>& f,
                    std::size_t line) {
    char kind = 'V';
    double amount = 0.0;
    if (!scan_rule_spec(f, 1, line, kind, amount)) return;
    if (kind == 'E') syntax(line, "DEFAULT cannot be EXACT");
  }

  void check_roots() {
    bool seen_root = false;
    for (const PhaseDecl& p : phases_) {
      const bool is_root = p.parent.empty() && !p.parent_resolved;
      if (!is_root) continue;
      if (seen_root) {
        report_.add("model-multiple-roots", Severity::kError,
                    at(p.line, p.name),
                    "phase '" + p.name +
                        "' has no PARENT= but the root is already declared");
      }
      seen_root = true;
    }
  }

  void check_reachability() {
    // The root (first parentless phase) is reachable; a child is reachable
    // iff its parent resolved and is reachable. Phases whose parent did not
    // resolve were already reported as model-unknown-parent, so only their
    // *descendants* are reported here.
    std::set<std::string> reachable;
    for (const PhaseDecl& p : phases_) {
      if (p.parent.empty()) {
        if (reachable.empty()) reachable.insert(p.name);
        continue;  // extra roots reported by check_roots()
      }
      if (p.parent_resolved && reachable.count(p.parent) > 0) {
        reachable.insert(p.name);
      } else if (p.parent_resolved) {
        report_.add("model-unreachable-phase", Severity::kError,
                    at(p.line, p.name),
                    "phase '" + p.name +
                        "' descends from an unplaceable phase and can never "
                        "appear in a trace");
      }
    }
  }

  void check_order() {
    // Sibling check, then a Kahn pass per sibling group to find cycles.
    std::map<std::string, std::vector<const OrderDecl*>> by_parent;
    for (const OrderDecl& o : orders_) {
      const PhaseDecl* before = find_phase(o.before);
      const PhaseDecl* after = find_phase(o.after);
      if (before->parent != after->parent) {
        report_.add("model-order-not-siblings", Severity::kError,
                    at(o.line, o.before + " -> " + o.after),
                    "ORDER phases '" + o.before + "' and '" + o.after +
                        "' have different parents");
        continue;
      }
      by_parent[before->parent].push_back(&o);
    }
    for (const auto& [parent, edges] : by_parent) {
      std::map<std::string, std::set<std::string>> succ;
      std::map<std::string, int> indegree;
      for (const OrderDecl* e : edges) {
        indegree.try_emplace(e->before, 0);
        indegree.try_emplace(e->after, 0);
        if (succ[e->before].insert(e->after).second) ++indegree[e->after];
      }
      std::vector<std::string> queue;
      for (const auto& [name, deg] : indegree) {
        if (deg == 0) queue.push_back(name);
      }
      std::size_t removed = 0;
      while (!queue.empty()) {
        const std::string name = std::move(queue.back());
        queue.pop_back();
        ++removed;
        for (const std::string& next : succ[name]) {
          if (--indegree[next] == 0) queue.push_back(next);
        }
      }
      if (removed == indegree.size()) continue;
      std::vector<std::string> cycle;
      for (const auto& [name, deg] : indegree) {
        if (deg > 0) cycle.push_back(name);
      }
      report_.add("model-order-cycle", Severity::kError,
                  at(edges.front()->line, join(cycle, ", ")),
                  "ORDER edges among siblings of '" +
                      (parent.empty() ? std::string("<root>") : parent) +
                      "' form a cycle; no instance order can satisfy them");
    }
  }

  void check_rules() {
    std::set<std::string> interior;
    for (const PhaseDecl& p : phases_) {
      if (p.parent_resolved) interior.insert(p.parent);
    }
    std::map<std::pair<std::string, std::string>, const RuleDecl*> last;
    for (const RuleDecl& r : rules_) {
      const std::string pair = r.phase + "/" + r.resource;
      const auto [it, inserted] =
          last.try_emplace({r.phase, r.resource}, &r);
      if (!inserted) {
        const RuleDecl& prev = *it->second;
        if (prev.kind == r.kind && prev.amount == r.amount) {
          report_.add("model-rule-shadowed", Severity::kWarning,
                      at(r.line, pair),
                      "rule repeats the identical rule on line " +
                          std::to_string(prev.line));
        } else {
          report_.add("model-rule-conflict", Severity::kError,
                      at(r.line, pair),
                      "rule contradicts the rule on line " +
                          std::to_string(prev.line) +
                          " for the same phase and resource");
        }
        it->second = &r;
        continue;
      }
      const ResourceDecl& resource = *find_resource(r.resource);
      if (resource.blocking && r.kind != 'N') {
        report_.add("model-rule-blocking-resource", Severity::kWarning,
                    at(r.line, pair),
                    "resource '" + r.resource +
                        "' is BLOCKING; demand rules only apply to "
                        "consumable resources and this rule is ignored");
      }
      if (interior.count(r.phase) > 0 && r.kind != 'N') {
        report_.add("model-rule-interior-phase", Severity::kWarning,
                    at(r.line, pair),
                    "phase '" + r.phase +
                        "' has children; demand is estimated for leaf "
                        "phases only, so this rule is ignored");
      }
      if (!resource.blocking && r.kind == 'E' &&
          r.amount > resource.capacity) {
        report_.add("model-exact-exceeds-capacity", Severity::kWarning,
                    at(r.line, pair),
                    "EXACT demand " + format_fixed(r.amount, 3) +
                        " exceeds the capacity " +
                        format_fixed(resource.capacity, 3) + " of '" +
                        r.resource + "' (unit mismatch?)");
      }
    }
  }

  std::string_view text_;
  std::string file_;
  LintReport report_;
  std::vector<PhaseDecl> phases_;
  std::vector<ResourceDecl> resources_;
  std::vector<OrderDecl> orders_;
  std::vector<RuleDecl> rules_;
};

}  // namespace

LintReport lint_model_text(std::string_view text, std::string_view filename) {
  return ModelLinter(text, filename).run();
}

}  // namespace g10::lint
