#include "grade10/model/model_io.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/strings.hpp"

namespace g10::core {

namespace {

/// Six decimals, the format's precision; a positive amount they would round
/// to zero keeps six significant digits instead, so it reads back positive.
std::string format_amount(double value) {
  std::string text = format_fixed(value, 6);
  if (value > 0.0 && parse_double(text) == 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    text = buf;
  }
  return text;
}

}  // namespace

void write_model(std::ostream& os, const ExecutionModel& execution,
                 const ResourceModel& resources,
                 const AttributionRuleSet& rules) {
  os << "# grade10 model v1\n";
  for (PhaseTypeId id = 0; id < static_cast<PhaseTypeId>(execution.type_count());
       ++id) {
    const PhaseType& type = execution.type(id);
    os << "PHASE " << type.name;
    if (type.parent != kNoPhaseType) {
      os << " PARENT=" << execution.type(type.parent).name;
    }
    if (type.repeated) os << " REPEATED";
    if (type.wait) os << " WAIT";
    if (type.concurrency_limit > 0) os << " LIMIT=" << type.concurrency_limit;
    os << '\n';
  }
  for (PhaseTypeId id = 0; id < static_cast<PhaseTypeId>(execution.type_count());
       ++id) {
    for (const PhaseTypeId succ : execution.type(id).successors) {
      os << "ORDER " << execution.type(id).name << ' '
         << execution.type(succ).name << '\n';
    }
  }
  for (ResourceId id = 0;
       id < static_cast<ResourceId>(resources.resource_count()); ++id) {
    const Resource& resource = resources.resource(id);
    os << "RESOURCE " << resource.name << ' ';
    if (resource.kind == ResourceKind::kConsumable) {
      os << "CONSUMABLE CAPACITY=" << format_amount(resource.capacity);
    } else {
      os << "BLOCKING";
    }
    if (resource.scope == ResourceScope::kGlobal) os << " GLOBAL";
    os << '\n';
  }
  const AttributionRule& dflt = rules.default_rule();
  if (dflt.is_none()) {
    os << "DEFAULT NONE\n";
  } else if (dflt.is_variable()) {
    os << "DEFAULT VARIABLE " << format_amount(dflt.amount) << '\n';
  }
  for (const auto& [key, rule] : rules.explicit_rules()) {
    os << "RULE " << execution.type(key.first).name << ' '
       << resources.resource(key.second).name << ' ';
    if (rule.is_none()) {
      os << "NONE";
    } else if (rule.is_exact()) {
      os << "EXACT " << format_amount(rule.amount);
    } else {
      os << "VARIABLE " << format_amount(rule.amount);
    }
    os << '\n';
  }
}

namespace {

using Fields = std::vector<std::string_view>;
using Response = ModelDefect::Response;

/// The order defects are reported in: statement defects as the pass meets
/// them, then each check across statements, in file order.
enum class Stage {
  kStatement,
  kEmpty,
  kRoots,
  kReachability,
  kOrder,
  kCycles,
  kRules,
};

/// The one pass over a model file's statements.
class Parser {
 public:
  void statement(std::size_t line, const Fields& f) {
    line_ = line;
    if (f[0] == "PHASE") {
      phase(f);
    } else if (f[0] == "ORDER") {
      order(f);
    } else if (f[0] == "RESOURCE") {
      resource(f);
    } else if (f[0] == "RULE") {
      rule(f);
    } else if (f[0] == "DEFAULT") {
      default_rule(f);
    } else {
      syntax("unknown statement: " + std::string(f[0]));
    }
  }

  /// Runs the checks across statements; `last_line` is the file's length.
  ModelParseResult finish(std::size_t last_line) {
    line_ = last_line;
    if (model_.execution.type_count() == 0) {
      reject("model-empty", {}, "the model declares no phase types",
             Stage::kEmpty);
    }
    check_cycles();
    // A rule on a phase type with children is ignored by attribution.
    std::erase_if(entries_, [&](const Entry& entry) {
      return entry.unless_leaf != kNoPhaseType &&
             !has_children(entry.unless_leaf);
    });
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.stage < b.stage;
                     });
    ModelParseResult result;
    for (Entry& entry : entries_) {
      const ModelDefect& defect =
          result.defects.emplace_back(std::move(entry.defect));
      if (defect.response == Response::kReject &&
          (!result.error || defect.line < result.error->line_number)) {
        result.error = ModelParseError{defect.line, defect.message};
      }
    }
    result.model = std::move(model_);
    return result;
  }

 private:
  struct Entry {
    Stage stage;
    ModelDefect defect;
    /// Dropped at the end unless this phase type has children.
    PhaseTypeId unless_leaf = kNoPhaseType;
  };

  void reject(std::string rule_id, std::string context, std::string message,
              Stage stage = Stage::kStatement) {
    entries_.push_back({stage, {std::move(rule_id), line_, std::move(context),
                                std::move(message), Response::kReject}});
  }

  /// Records a defect the parse tolerates; with `unless_leaf`, only if that
  /// phase type ends up with children.
  void report(std::string rule_id, std::string context, std::string message,
              PhaseTypeId unless_leaf = kNoPhaseType) {
    entries_.push_back({Stage::kRules,
                        {std::move(rule_id), line_, std::move(context),
                         std::move(message), Response::kReport},
                        unless_leaf});
  }

  void syntax(std::string message, std::string context = {}) {
    reject("model-syntax", std::move(context), std::move(message));
  }

  bool declared(std::string_view name) const {
    return model_.execution.find(name) != kNoPhaseType;
  }

  // A phase the tree cannot hold still goes into the execution model, so
  // its ORDER and RULE statements are checked like any other's: a phase
  // naming an undeclared parent hangs under a stand-in type for that name,
  // and a second root under the stand-in for no name. Stand-in names start
  // with a space, which no token holds. Such a model is rejected.
  static bool is_stand_in(const PhaseType& type) {
    return type.name.front() == ' ';
  }

  PhaseTypeId stand_in(const std::string& parent) {
    const std::string name = " " + parent;
    ExecutionModel& execution = model_.execution;
    if (const PhaseTypeId id = execution.find(name); id != kNoPhaseType) {
      return id;
    }
    return execution.type_count() == 0 ? execution.add_root(name)
                                       : execution.add_child(0, name);
  }

  /// The parent name a placed phase was declared with; empty for a root.
  std::string_view parent_of(PhaseTypeId id) const {
    const PhaseTypeId parent = model_.execution.type(id).parent;
    if (parent == kNoPhaseType) return {};
    const std::string_view name = model_.execution.type(parent).name;
    return is_stand_in(model_.execution.type(parent)) ? name.substr(1) : name;
  }

  /// Whether the root reaches `id` through declared phases only.
  bool reachable(PhaseTypeId id) const {
    for (; id != kNoPhaseType; id = model_.execution.type(id).parent) {
      if (id == root_) return true;
      if (is_stand_in(model_.execution.type(id))) return false;
    }
    return false;
  }

  bool has_children(PhaseTypeId id) const {
    const auto& children = model_.execution.type(id).children;
    return std::any_of(children.begin(), children.end(), [&](PhaseTypeId c) {
      return !is_stand_in(model_.execution.type(c));
    });
  }

  void phase(const Fields& f) {
    if (f.size() < 2) {
      syntax("PHASE needs a name");
      return;
    }
    const std::string name(f[1]);
    std::vector<std::string> parents;  // of every PARENT=; the last counts
    bool repeated = false;
    bool wait = false;
    int limit = 0;
    for (std::size_t i = 2; i < f.size(); ++i) {
      const std::string_view arg = f[i];
      if (arg == "REPEATED") {
        repeated = true;
      } else if (arg == "WAIT") {
        wait = true;
      } else if (starts_with(arg, "PARENT=")) {
        parents.emplace_back(arg.substr(7));
      } else if (starts_with(arg, "LIMIT=")) {
        if (const auto value = parse_int_at_least(arg.substr(6), 1)) {
          limit = *value;
        } else {
          syntax("bad LIMIT value", name);
        }
      } else {
        syntax("unknown PHASE attribute: " + std::string(arg), name);
      }
    }
    if (declared(name)) {
      reject("model-duplicate-phase", name,
             "phase '" + name + "' is declared more than once");
      return;
    }
    // Every parent named must be declared before; each is reported once.
    for (auto it = parents.begin(); it != parents.end(); ++it) {
      if (!declared(*it) &&
          std::find(it + 1, parents.end(), *it) == parents.end()) {
        reject("model-unknown-parent", name,
               "phase '" + name + "' names parent '" + *it +
                   "', which is not declared before it");
      }
    }
    std::optional<std::string> parent;
    if (!parents.empty()) parent = parents.back();
    ExecutionModel& execution = model_.execution;
    if (parent && !declared(*parent)) {
      if (!parent->empty()) {
        execution.add_child(stand_in(*parent), name);
        return;
      }
      parent.reset();  // a bare "PARENT=" reads as no parent
    }
    if (!parent) {
      if (root_ != kNoPhaseType) {
        reject("model-multiple-roots", name,
               "phase '" + name +
                   "' has no PARENT= but the root is already declared",
               Stage::kRoots);
      }
      const PhaseTypeId id = execution.type_count() == 0
                                 ? execution.add_root(name)
                                 : execution.add_child(stand_in(""), name);
      if (root_ == kNoPhaseType) root_ = id;
      return;
    }
    const PhaseTypeId parent_id = execution.find(*parent);
    if (!reachable(parent_id)) {
      reject("model-unreachable-phase", name,
             "phase '" + name +
                 "' descends from an unplaceable phase and can never appear "
                 "in a trace",
             Stage::kReachability);
    }
    const PhaseTypeId id = execution.add_child(parent_id, name, repeated);
    if (wait) execution.set_wait(id);
    if (limit > 0) execution.set_concurrency_limit(id, limit);
  }

  void order(const Fields& f) {
    if (f.size() != 3) {
      syntax("ORDER needs two phase names");
      return;
    }
    bool known = true;
    for (const std::string_view name : {f[1], f[2]}) {
      if (!declared(name)) {
        reject("model-order-unknown-phase", std::string(name),
               "ORDER references undeclared phase '" + std::string(name) +
                   "'");
        known = false;
      }
    }
    if (!known) return;
    ExecutionModel& execution = model_.execution;
    const PhaseTypeId before = execution.find(f[1]);
    const PhaseTypeId after = execution.find(f[2]);
    const std::string_view parent = parent_of(before);
    if (parent != parent_of(after)) {
      const std::string names[] = {std::string(f[1]), std::string(f[2])};
      reject("model-order-not-siblings", names[0] + " -> " + names[1],
             "ORDER phases '" + names[0] + "' and '" + names[1] +
                 "' have different parents",
             Stage::kOrder);
      return;
    }
    order_lines_.try_emplace(std::string(parent), line_);
    if (before == after) {
      self_ordered_.push_back(before);
    } else if (execution.type(before).parent == execution.type(after).parent) {
      execution.add_order(before, after);
    }
  }

  /// One finding per sibling group whose ORDER edges form a cycle (a phase
  /// ordered before itself included), at the group's first ORDER line,
  /// groups in the order of their parent's name.
  void check_cycles() {
    const ExecutionModel& execution = model_.execution;
    std::map<std::string, std::set<std::string>> cyclic;  // by parent name
    for (const ExecutionModel::OrderCycle& cycle : execution.order_cycles()) {
      for (const PhaseTypeId type : cycle.types) {
        cyclic[std::string(parent_of(type))].insert(execution.type(type).name);
      }
    }
    for (const PhaseTypeId type : self_ordered_) {
      cyclic[std::string(parent_of(type))].insert(execution.type(type).name);
    }
    for (const auto& [parent, names] : cyclic) {
      line_ = order_lines_.at(parent);
      reject("model-order-cycle",
             join(std::vector<std::string>(names.begin(), names.end()), ", "),
             "ORDER edges among siblings of '" +
                 (parent.empty() ? std::string("<root>") : parent) +
                 "' form a cycle; no instance order can satisfy them",
             Stage::kCycles);
    }
  }

  void resource(const Fields& f) {
    if (f.size() < 3) {
      syntax("RESOURCE needs a name and a kind");
      return;
    }
    const std::string name(f[1]);
    if (model_.resources.find(name) != kNoResource) {
      reject("model-duplicate-resource", name,
             "resource '" + name + "' is declared more than once");
      return;
    }
    const bool blocking = f[2] == "BLOCKING";
    if (!blocking && f[2] != "CONSUMABLE") {
      syntax("RESOURCE kind must be CONSUMABLE or BLOCKING", name);
      return;
    }
    ResourceScope scope = ResourceScope::kPerMachine;
    std::optional<double> capacity;
    for (std::size_t i = 3; i < f.size(); ++i) {
      if (f[i] == "GLOBAL") {
        scope = ResourceScope::kGlobal;
      } else if (!blocking && starts_with(f[i], "CAPACITY=")) {
        capacity = parse_double(f[i].substr(9));
      } else {
        syntax("unknown RESOURCE attribute: " + std::string(f[i]), name);
      }
    }
    if (blocking) {
      model_.resources.add_blocking(name, scope);
    } else if (capacity && *capacity > 0.0) {
      model_.resources.add_consumable(name, *capacity, scope);
    } else {
      syntax("CONSUMABLE resource needs CAPACITY=<positive>", name);
    }
  }

  /// Reads "NONE" / "EXACT <x>" / "VARIABLE <x>" at f[at]; nullopt (after
  /// reporting) when it is malformed.
  std::optional<AttributionRule> rule_spec(const Fields& f, std::size_t at) {
    const char* error = nullptr;
    if (f.size() <= at) {
      error = "missing rule spec";
    } else if (f[at] == "NONE") {
      if (f.size() == at + 1) return AttributionRule::none();
      error = "NONE takes no argument";
    } else if (f[at] != "EXACT" && f[at] != "VARIABLE") {
      error = "rule kind must be NONE, EXACT or VARIABLE";
    } else if (f.size() != at + 2) {
      error = "rule needs exactly one numeric argument";
    } else {
      const auto amount = parse_double(f[at + 1]);
      if (amount && *amount > 0.0) {
        return f[at] == "EXACT" ? AttributionRule::exact(*amount)
                                : AttributionRule::variable(*amount);
      }
      error = "rule amount must be positive";
    }
    syntax(error);
    return std::nullopt;
  }

  void rule(const Fields& f) {
    if (f.size() < 4) {
      syntax("RULE needs <phase> <resource> <spec>");
      return;
    }
    const std::string phase(f[1]);
    const std::string resource(f[2]);
    if (!declared(phase)) {
      reject("model-rule-unknown-phase", phase,
             "RULE references undeclared phase '" + phase + "'");
    }
    const ResourceId resource_id = model_.resources.find(resource);
    if (resource_id == kNoResource) {
      reject("model-rule-unknown-resource", resource,
             "RULE references undeclared resource '" + resource + "'");
    }
    const std::optional<AttributionRule> spec = rule_spec(f, 3);
    const PhaseTypeId phase_id = model_.execution.find(phase);
    if (!spec || phase_id == kNoPhaseType || resource_id == kNoResource) {
      return;
    }
    const std::string pair = phase + "/" + resource;
    const auto [it, first] =
        rule_lines_.try_emplace({phase_id, resource_id}, line_);
    if (!first) {
      const std::string previous =
          std::to_string(std::exchange(it->second, line_));
      if (model_.rules.get(phase_id, resource_id) == *spec) {
        report("model-rule-shadowed", pair,
               "rule repeats the identical rule on line " + previous);
      } else {
        report("model-rule-conflict", pair,
               "rule contradicts the rule on line " + previous +
                   " for the same phase and resource");
      }
      model_.rules.set(phase_id, resource_id, *spec);
      return;
    }
    const Resource& target = model_.resources.resource(resource_id);
    const bool blocking = target.kind == ResourceKind::kBlocking;
    if (blocking && !spec->is_none()) {
      report("model-rule-blocking-resource", pair,
             "resource '" + resource +
                 "' is BLOCKING; demand rules only apply to consumable "
                 "resources and this rule is ignored");
    }
    if (!spec->is_none()) {
      report("model-rule-interior-phase", pair,
             "phase '" + phase +
                 "' has children; demand is estimated for leaf phases only, "
                 "so this rule is ignored",
             phase_id);
    }
    if (!blocking && spec->is_exact() && spec->amount > target.capacity) {
      report("model-exact-exceeds-capacity", pair,
             "EXACT demand " + format_fixed(spec->amount, 3) +
                 " exceeds the capacity " + format_fixed(target.capacity, 3) +
                 " of '" + resource + "' (unit mismatch?)");
    }
    model_.rules.set(phase_id, resource_id, *spec);
  }

  void default_rule(const Fields& f) {
    const std::optional<AttributionRule> spec = rule_spec(f, 1);
    if (!spec) return;
    if (spec->is_exact()) {
      syntax("DEFAULT cannot be EXACT");
      return;
    }
    // Re-seat the rule set, keeping explicit entries (none exist yet if
    // DEFAULT comes first, which the writer guarantees; otherwise copy).
    AttributionRuleSet replacement(*spec);
    for (const auto& [key, value] : model_.rules.explicit_rules()) {
      replacement.set(key.first, key.second, value);
    }
    model_.rules = std::move(replacement);
  }

  ModelDescription model_;
  std::size_t line_ = 0;  ///< of the statement being read
  std::vector<Entry> entries_;
  PhaseTypeId root_ = kNoPhaseType;  ///< the first phase without a parent
  /// The first ORDER line of each sibling group, by parent name.
  std::map<std::string, std::size_t> order_lines_;
  std::vector<PhaseTypeId> self_ordered_;
  /// The line of the last rule for each (phase, resource).
  std::map<std::pair<PhaseTypeId, ResourceId>, std::size_t> rule_lines_;
};

}  // namespace

ModelParseResult parse_model(std::istream& is) {
  Parser parser;
  std::string line;
  std::size_t line_number = 0;
  Fields fields;
  while (std::getline(is, line)) {
    ++line_number;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    // Statements are whitespace-separated tokens.
    fields.clear();
    for (const auto part : split(trimmed, ' ')) {
      const auto token = trim(part);
      if (!token.empty()) fields.push_back(token);
    }
    parser.statement(line_number, fields);
  }
  return parser.finish(line_number);
}

}  // namespace g10::core
