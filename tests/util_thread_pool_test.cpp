// Unit tests for the thread pool and parallel reduction helpers.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/radix_sort.hpp"

namespace sfc::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroSizesToTheAvailableCpusAndAnExplicitCountIsKept) {
  EXPECT_GE(available_cpus(), 1u);
  ThreadPool automatic(0);
  EXPECT_EQ(automatic.size(), available_cpus());
  // Oversubscription stays possible: the thread-count suites need more
  // workers than a small host has CPUs.
  ThreadPool oversubscribed(available_cpus() + 2);
  EXPECT_EQ(oversubscribed.size(), available_cpus() + 2);
}

TEST(ParallelReduce, SumMatchesSerial) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  const std::uint64_t expected = kN * (kN - 1) / 2;
  const auto result = parallel_reduce_chunks(
      pool, 0, kN, 64, std::uint64_t{0}, [](std::size_t lo, std::size_t hi) {
        std::uint64_t s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += i;
        return s;
      });
  EXPECT_EQ(result, expected);
}

TEST(ParallelReduce, RespectsInit) {
  ThreadPool pool(2);
  const auto result = parallel_reduce_chunks(
      pool, 0, 10, 1, std::uint64_t{1000},
      [](std::size_t lo, std::size_t hi) {
        return static_cast<std::uint64_t>(hi - lo);
      });
  EXPECT_EQ(result, 1010u);
}

TEST(ParallelReduce, SingleWorkerFallback) {
  ThreadPool pool(1);
  const auto result = parallel_reduce_chunks(
      pool, 0, 1000, 1, std::uint64_t{0}, [](std::size_t lo, std::size_t hi) {
        return static_cast<std::uint64_t>(hi - lo);
      });
  EXPECT_EQ(result, 1000u);
}

TEST(RadixSort, ThreadedSortsFromEveryWorkerAtOnceFinish) {
  // Both workers of a 2-worker pool meet, then each fans a segmented
  // radix sort out over that same pool with parallel_reduce_chunks. With
  // no idle worker left, the chunk tasks can only run if the joins help
  // drain the queue; a join that sleeps instead deadlocks the pool.
  constexpr std::size_t kN = 20000;
  constexpr std::size_t kSegment = 500;
  auto input = [](std::uint64_t salt) {
    std::vector<std::vector<KeyIndex>> segments(kN / kSegment);
    std::uint64_t x = 0x9e3779b97f4a7c15ull ^ salt;
    for (auto& segment : segments) {
      segment.resize(kSegment);
      for (std::size_t i = 0; i < kSegment; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        segment[i] = {x & 0xfffffu, static_cast<std::uint32_t>(i)};
      }
    }
    return segments;
  };
  std::vector<std::vector<KeyIndex>> expected[2] = {input(1), input(2)};
  for (auto& segments : expected) {
    for (auto& segment : segments) radix_sort_pairs(segment);
  }

  ThreadPool pool(2);
  std::vector<std::vector<KeyIndex>> sorted[2] = {input(1), input(2)};
  Latch met(2);
  Latch done(2);
  for (auto& segments : sorted) {
    pool.submit([&met, &done, &segments, &pool] {
      met.count_down();
      met.wait();
      const std::size_t count = parallel_reduce_chunks(
          pool, 0, segments.size(), 1, std::size_t{0},
          [&segments](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
              radix_sort_pairs(segments[s]);
            }
            return hi - lo;
          });
      EXPECT_EQ(count, segments.size());
      done.count_down();
    });
  }
  done.wait();  // a plain wait: this thread must not run the chunks
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_EQ(sorted[k].size(), expected[k].size());
    for (std::size_t s = 0; s < sorted[k].size(); ++s) {
      for (std::size_t i = 0; i < kSegment; ++i) {
        ASSERT_EQ(sorted[k][s][i].key, expected[k][s][i].key) << k << ", " << s;
        ASSERT_EQ(sorted[k][s][i].index, expected[k][s][i].index)
            << k << ", " << s;
      }
    }
  }
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

}  // namespace
}  // namespace sfc::util
