#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/cli.hpp"

namespace g10 {

namespace {

std::size_t env_threads() {
  // srclint: entropy-ok(documented G10_THREADS override; selects parallelism, never results)
  const char* raw = std::getenv("G10_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  // An overflow yields LONG_MAX, so the upper bound also rejects it.
  if (end == raw || *end != '\0' || value <= 0 ||
      value > cli::kMaxConcurrency) {
    return 0;
  }
  return static_cast<std::size_t>(value);
}

/// Set on every thread while it runs chunks of a fan-out: a parallel_for
/// issued from there runs inline.
thread_local bool t_in_fan_out = false;

/// The chunk cursor of one parallel_for, shared by the caller and helpers.
struct FanOut {
  std::size_t n;
  std::size_t grain;
  std::size_t chunk_count;
  const std::function<void(std::size_t)>& body;
  std::atomic<std::size_t> next_chunk{0};

  /// The first failure one thread saw. A thread claims chunks in increasing
  /// order, so that is also its lowest-indexed failing chunk.
  struct Failure {
    std::size_t chunk = 0;
    std::exception_ptr error;
  };

  /// Claims and runs chunks until none are left.
  Failure drain() {
    Failure first;
    while (true) {
      const std::size_t chunk =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunk_count) return first;
      const std::size_t begin = chunk * grain;
      const std::size_t end = std::min(n, begin + grain);
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        if (!first.error) first = {chunk, std::current_exception()};
      }
    }
  }
};

}  // namespace

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const std::size_t env = env_threads(); env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t)>& body) const {
  if (grain == 0) grain = 1;
  if (threads_ <= 1 || n <= grain || t_in_fan_out) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  FanOut fan{n, grain, (n + grain - 1) / grain, body};
  const std::size_t helper_count =
      std::min(threads_ - 1, fan.chunk_count - 1);
  // Slot k belongs to helper k; the last slot is the caller's.
  std::vector<FanOut::Failure> failures(helper_count + 1);
  std::vector<std::thread> helpers;
  helpers.reserve(helper_count);
  for (std::size_t k = 0; k < helper_count; ++k) {
    try {
      helpers.emplace_back([&fan, &failures, k] {
        t_in_fan_out = true;
        failures[k] = fan.drain();
      });
    } catch (const std::exception&) {
      // std::system_error, or std::bad_alloc for the thread's state: the
      // caller and the helpers already started do the rest.
      break;
    }
  }
  t_in_fan_out = true;
  failures.back() = fan.drain();
  t_in_fan_out = false;
  for (std::thread& helper : helpers) helper.join();

  const FanOut::Failure* lowest = nullptr;
  for (const FanOut::Failure& failure : failures) {
    if (failure.error && (lowest == nullptr || failure.chunk < lowest->chunk)) {
      lowest = &failure;
    }
  }
  if (lowest != nullptr) std::rethrow_exception(lowest->error);
}

void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& body) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool->parallel_for(n, grain, body);
}

}  // namespace g10
