#include "trace/symbol_table.hpp"

#include <limits>

namespace g10::trace {

SymbolTable& SymbolTable::global() {
  static SymbolTable* table = new SymbolTable();  // never destroyed
  return *table;
}

Symbol SymbolTable::intern(std::string_view name) {
  MutexLock lock(mutex_);
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  G10_CHECK(names_.size() < std::numeric_limits<Symbol>::max());
  const auto symbol = static_cast<Symbol>(names_.size());
  names_.emplace_back(name);
  index_.emplace(std::string_view(names_.back()), symbol);
  return symbol;
}

std::string_view SymbolTable::name(Symbol symbol) const {
  MutexLock lock(mutex_);
  G10_CHECK_MSG(symbol < names_.size(), "unknown symbol: " << symbol);
  // Deque storage is stable: the view outlives the lock.
  return names_[symbol];
}

std::size_t SymbolTable::size() const {
  MutexLock lock(mutex_);
  return names_.size();
}

void PathRef::push(Symbol type, std::int64_t index) {
  const PathEntry entry{type, index};
  if (size_ < kInlineCapacity) {
    inline_[size_] = entry;
  } else {
    if (size_ == kInlineCapacity) {
      overflow_.assign(inline_, inline_ + kInlineCapacity);
    }
    overflow_.push_back(entry);
  }
  ++size_;
}

PathRef PathRef::child(Symbol type, std::int64_t index) const {
  PathRef result = *this;
  result.push(type, index);
  return result;
}

PathRef PathRef::parent() const {
  PathRef result;
  if (size_ > 1) {
    for (std::size_t i = 0; i + 1 < size_; ++i) {
      result.push(data()[i].type, data()[i].index);
    }
  }
  return result;
}

std::string PathRef::to_string() const {
  const SymbolTable& table = SymbolTable::global();
  std::string out;
  for (std::size_t i = 0; i < size_; ++i) {
    if (i != 0) out += '/';
    out += table.name(data()[i].type);
    out += '.';
    out += std::to_string(data()[i].index);
  }
  return out;
}

}  // namespace g10::trace
