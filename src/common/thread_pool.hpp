// The fan-out shared by the analysis pipeline, the text log parser and the
// `.g10t` block decoder: an OpenMP-style parallel loop over independent
// output slots.
//
// Properties callers rely on:
//  1. Determinism: parallel_for / parallel_map place every result by its
//     input index, so the output of a parallel stage is bit-identical to
//     the serial stage regardless of thread count or scheduling.
//  2. No regression at one thread: a pool with thread_count() == 1, or a
//     loop that fits in one chunk, starts no thread and runs inline on the
//     caller.
//  3. Safe nesting: a parallel_for issued from inside a fan-out runs inline
//     on its calling thread, so stacked parallel stages never multiply
//     threads and cannot deadlock.
//
// A ThreadPool holds only its resolved thread count. Each parallel_for
// starts up to thread_count() - 1 helper threads; the helpers and the caller
// claim chunks from one atomic cursor, and the helpers are joined before the
// call returns. There is no queue and no persistent worker.
//
// Thread count resolution (resolve_threads): an explicit request wins, then
// the G10_THREADS environment variable, then std::thread::hardware_concurrency.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace g10 {

class ThreadPool {
 public:
  struct Options {
    /// Total concurrency including the calling thread. 0 resolves via
    /// resolve_threads.
    std::size_t threads = 0;
    /// Ignored. Kept only because perfbench/layer_trace.cpp still passes
    /// it; drop it together with that argument.
    std::size_t queue_capacity = 4096;
  };

  explicit ThreadPool(Options options) : ThreadPool(options.threads) {}
  explicit ThreadPool(std::size_t threads)
      : threads_(resolve_threads(threads)) {}

  /// Total concurrency: helper threads plus the caller. Always >= 1.
  std::size_t thread_count() const { return threads_; }

  /// Runs body(i) for every i in [0, n), fanned out in `grain`-sized
  /// contiguous chunks. The caller participates; returns once all n
  /// iterations completed. If any body threw, rethrows the exception of
  /// the lowest-indexed failing chunk (deterministic across schedules).
  /// If a helper thread cannot be started, the caller runs its chunks.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& body) const;

  /// Resolves a requested thread count: `requested` if nonzero, else
  /// G10_THREADS (when set to an integer in [1, 1024]), else hardware
  /// concurrency. Never returns 0.
  static std::size_t resolve_threads(std::size_t requested);

 private:
  std::size_t threads_;
};

/// parallel_for through an optional pool: nullptr runs serially inline.
void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& body);

/// Maps f over items with results placed by index — output order (and, for
/// floating-point work, every bit of it) is independent of thread count.
/// The result type must be default-constructible and movable.
template <typename T, typename F>
auto parallel_map(ThreadPool* pool, const std::vector<T>& items, F&& f)
    -> std::vector<std::decay_t<decltype(f(items[0]))>> {
  std::vector<std::decay_t<decltype(f(items[0]))>> out(items.size());
  parallel_for(pool, items.size(), 1,
               [&](std::size_t i) { out[i] = f(items[i]); });
  return out;
}

}  // namespace g10
