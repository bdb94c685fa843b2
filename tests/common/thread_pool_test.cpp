#include "common/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace g10 {
namespace {

TEST(ThreadPoolTest, ResolveThreadsExplicitRequestWins) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
}

TEST(ThreadPoolTest, ResolveThreadsReadsEnvironment) {
  ::setenv("G10_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 5u);
  // An explicit request still beats the environment.
  EXPECT_EQ(ThreadPool::resolve_threads(2), 2u);
  // Garbage and non-positive values fall through to hardware concurrency.
  ::setenv("G10_THREADS", "banana", 1);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  ::setenv("G10_THREADS", "-4", 1);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  ::unsetenv("G10_THREADS");
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  // Above the 1024 cap --threads enforces, and on strtol overflow, the
  // value is invalid too: the hardware count wins.
  const std::size_t hardware = ThreadPool::resolve_threads(0);
  ::setenv("G10_THREADS", "1024", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 1024u);
  ::setenv("G10_THREADS", "1025", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), hardware);
  ::setenv("G10_THREADS", "99999999999999999999", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), hardware);
  ::unsetenv("G10_THREADS");
}

TEST(ThreadPoolTest, SingleThreadPoolSpawnsNoWorkers) {
  const ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(100);
  pool.parallel_for(ran_on.size(), 1, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ParallelForUsesAtMostOneThreadPerChunk) {
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{2}, std::size_t{3},
                                std::size_t{200}}) {
      std::vector<std::atomic<int>> hits(n);
      std::vector<std::thread::id> ran_on(n);
      pool.parallel_for(n, 1, [&](std::size_t i) {
        ++hits[i];
        ran_on[i] = std::this_thread::get_id();
      });
      const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
      EXPECT_LE(distinct.size(), std::min(threads, n))
          << "threads=" << threads << " n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000}}) {
    for (const std::size_t grain : {std::size_t{1}, std::size_t{3},
                                    std::size_t{16}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, grain, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelMapPlacesResultsByInputIndex) {
  ThreadPool pool(4);
  std::vector<int> items(200);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<std::string> mapped = parallel_map(
      &pool, items, [](int v) { return std::to_string(v * v); });
  ASSERT_EQ(mapped.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(mapped[i], std::to_string(static_cast<int>(i * i)));
  }
}

TEST(ThreadPoolTest, FreeFunctionWithNullPoolRunsSerially) {
  std::vector<std::size_t> order;
  parallel_for(nullptr, 10, 3, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);  // strictly in-order: fully inline
}

TEST(ThreadPoolTest, RethrowsLowestIndexedChunkException) {
  ThreadPool pool(4);
  // Two failing iterations; the lower index must win regardless of which
  // worker reaches its chunk first.
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      pool.parallel_for(100, 1, [&](std::size_t i) {
        if (i == 17 || i == 83) {
          throw std::runtime_error("bad " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "bad 17");
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForMakesProgress) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(8, 1, [&](std::size_t outer) {
    pool.parallel_for(32, 4, [&](std::size_t inner) {
      sum += static_cast<long>(outer * 100 + inner);
    });
  });
  long expected = 0;
  for (long outer = 0; outer < 8; ++outer) {
    for (long inner = 0; inner < 32; ++inner) expected += outer * 100 + inner;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, NestedParallelForRunsOnItsCallersThread) {
  const ThreadPool outer_pool(4);
  const ThreadPool inner_pool(4);
  std::atomic<int> off_thread{0};
  std::atomic<int> inner_calls{0};
  outer_pool.parallel_for(8, 1, [&](std::size_t) {
    const std::thread::id caller = std::this_thread::get_id();
    // Another pool too: nesting is a property of the thread, not the pool.
    inner_pool.parallel_for(32, 4, [&](std::size_t) {
      ++inner_calls;
      if (std::this_thread::get_id() != caller) ++off_thread;
      // Long enough that a helper, if one were started, would claim chunks.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  });
  EXPECT_EQ(inner_calls.load(), 8 * 32);
  EXPECT_EQ(off_thread.load(), 0);
}

// Sanitizer runtimes reserve terabytes of address space up front, so an
// address-space cap cannot single out thread stacks there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Caps the address space 1 MiB above what the process maps now, so no
/// thread stack fits and every helper start fails, then runs a fan-out.
/// Returns 0 when every index ran once on the calling thread.
int fan_out_without_helpers() {
  std::ifstream statm("/proc/self/statm");
  rlim_t pages = 0;
  statm >> pages;
  const rlim_t cap =
      pages * static_cast<rlim_t>(::sysconf(_SC_PAGESIZE)) + (1 << 20);
  const rlimit limit{cap, cap};
  if (pages == 0 || ::setrlimit(RLIMIT_AS, &limit) != 0) return 2;
  const ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> off_thread{0};
  pool.parallel_for(hits.size(), 1, [&](std::size_t i) {
    ++hits[i];
    if (std::this_thread::get_id() != caller) ++off_thread;
  });
  for (const std::atomic<int>& hit : hits) {
    if (hit.load() != 1) return 1;
  }
  return off_thread.load() == 0 ? 0 : 1;
}

TEST(ThreadPoolDeathTest, HelperStartFailureLeavesChunksToTheCaller) {
  if (kSanitized) GTEST_SKIP() << "needs an unsanitized build";
  EXPECT_EXIT(std::_Exit(fan_out_without_helpers()),
              ::testing::ExitedWithCode(0), "");
}

TEST(ThreadPoolTest, ParallelForResultsMatchSerialBitForBit) {
  // Floating-point per-index results must be identical to the serial loop
  // because each index is computed independently and placed by index.
  const auto value = [](std::size_t i) {
    double x = 1.0;
    for (std::size_t k = 0; k < i % 17; ++k) x = x * 1.000001 + 0.5;
    return x;
  };
  std::vector<double> serial(500);
  for (std::size_t i = 0; i < serial.size(); ++i) serial[i] = value(i);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<double> parallel(serial.size());
    pool.parallel_for(parallel.size(), 7,
                      [&](std::size_t i) { parallel[i] = value(i); });
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace g10
