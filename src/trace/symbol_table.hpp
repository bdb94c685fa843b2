// Interned names and compact phase paths for the trace-generation fast path.
//
// Engines emit millions of hierarchical phase paths like
//   Job.0/Execute.0/Superstep.3/WorkerCompute.2/ComputeThread.5
// Building a PhasePath allocates one std::string per element and keying a
// map by its rendered form allocates the full string again. The fast path
// replaces both: phase-type and resource names are interned once in a
// process-wide SymbolTable, and paths travel as PathRef — an inline
// small-vector of (symbol, index) pairs — until the phase logger keys them
// into its path table (trace/path_index.hpp), which renders them.
//
// Symbols are process-local handles: their numeric values depend on intern
// order and must never be persisted. Rendered output always goes through
// the interned names, so logs are byte-identical regardless of intern
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace g10::trace {

/// Handle to an interned name. Never persisted; only meaningful within the
/// owning SymbolTable (in practice, SymbolTable::global()).
using Symbol = std::uint32_t;

/// Thread-safe append-only intern table. Interning is mutex-protected (log
/// ingestion is multi-threaded); the returned string_views stay valid for
/// the table's lifetime because names live in a deque.
class SymbolTable {
 public:
  /// The process-wide table used by PathRef and the engines.
  static SymbolTable& global();

  /// Returns the symbol for `name`, interning it on first use.
  Symbol intern(std::string_view name);

  /// The interned spelling of `symbol`.
  std::string_view name(Symbol symbol) const;

  std::size_t size() const;

 private:
  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable Mutex mutex_;
  std::deque<std::string> names_ G10_GUARDED_BY(mutex_);
  std::unordered_map<std::string_view, Symbol, TransparentHash,
                     std::equal_to<>>
      index_ G10_GUARDED_BY(mutex_);
};

/// One (phase-type, instance-index) path element in interned form.
struct PathEntry {
  Symbol type = 0;
  std::int64_t index = 0;

  friend bool operator==(const PathEntry&, const PathEntry&) = default;
};

/// A phase-instance path in interned form: an inline small-vector of
/// PathEntry. Copying never allocates for depths up
/// to kInlineCapacity (the built-in models max out at depth 5); deeper
/// paths spill to a heap vector.
class PathRef {
 public:
  static constexpr std::size_t kInlineCapacity = 8;

  PathRef() = default;

  bool empty() const { return size_ == 0; }
  std::size_t depth() const { return size_; }

  const PathEntry* begin() const { return data(); }
  const PathEntry* end() const { return data() + size_; }
  const PathEntry& operator[](std::size_t i) const { return data()[i]; }
  const PathEntry& leaf() const { return data()[size_ - 1]; }

  /// Appends an element in place.
  void push(Symbol type, std::int64_t index);

  /// Appends an element, interning `type` in the global table. Engines use
  /// this to build cached path templates; hot loops then copy the template
  /// instead of re-interning.
  void push(std::string_view type, std::int64_t index) {
    push(SymbolTable::global().intern(type), index);
  }

  /// Child path with one more element (interned-symbol and interning forms).
  PathRef child(Symbol type, std::int64_t index) const;
  PathRef child(std::string_view type, std::int64_t index) const {
    return child(SymbolTable::global().intern(type), index);
  }

  /// Parent path (all but the last element).
  PathRef parent() const;

  friend bool operator==(const PathRef& a, const PathRef& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.data()[i] != b.data()[i]) return false;
    }
    return true;
  }

  /// The rendered path, as PhasePath::to_string would give it (for
  /// diagnostics).
  std::string to_string() const;

 private:
  const PathEntry* data() const {
    return size_ <= kInlineCapacity ? inline_ : overflow_.data();
  }

  std::size_t size_ = 0;
  PathEntry inline_[kInlineCapacity] = {};
  std::vector<PathEntry> overflow_;  // holds ALL entries once spilled
};

}  // namespace g10::trace
