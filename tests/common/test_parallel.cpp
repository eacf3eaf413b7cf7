// The persistent worker pool behind parallel_for_chunks (common/parallel.h):
// exact coverage under every grain and thread count, worker indices inside
// planned_worker_count, first-exception-wins with the remaining chunks
// abandoned, and the inline fallback for concurrent callers and nested
// regions. Labelled `parallel` so the TSan presets run it.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gstg {
namespace {

/// Runs one region and checks that every index is visited exactly once, by
/// workers below the planned count, in chunks no longer than `grain` when
/// the region runs on the pool (a single planned worker runs inline).
void expect_exact_cover(std::size_t n, std::size_t threads, std::size_t grain) {
  const std::size_t planned = planned_worker_count(n, threads);
  std::vector<std::atomic<int>> visits(n);
  std::atomic<std::size_t> max_worker{0};
  std::atomic<std::size_t> max_chunk{0};
  const std::size_t offset = 5;  // a non-zero begin must shift every chunk
  parallel_for_chunks(
      offset, offset + n,
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        for (std::size_t i = lo; i < hi; ++i) {
          visits[i - offset].fetch_add(1, std::memory_order_relaxed);
        }
        std::size_t seen = max_worker.load();
        while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
        }
        seen = max_chunk.load();
        while (hi - lo > seen && !max_chunk.compare_exchange_weak(seen, hi - lo)) {
        }
      },
      threads, grain);

  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i << " n=" << n << " threads=" << threads
                                   << " grain=" << grain;
  }
  EXPECT_LT(max_worker.load(), planned) << "n=" << n << " threads=" << threads;
  if (planned > 1 && grain != 0) {
    EXPECT_LE(max_chunk.load(), grain) << "n=" << n << " threads=" << threads;
  }
}

TEST(ParallelPool, EveryIndexVisitedExactlyOnce) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{255}, std::size_t{256},
                              std::size_t{10007}}) {
    for (std::size_t threads = 1; threads <= 8; ++threads) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
        expect_exact_cover(n, threads, grain);
      }
    }
  }
}

TEST(ParallelPool, PlannedWorkerCountIsThreadsCappedByItems) {
  EXPECT_EQ(planned_worker_count(0, 4), 1u);
  EXPECT_EQ(planned_worker_count(3, 8), 3u);
  EXPECT_EQ(planned_worker_count(24, 4), 4u);  // no small-range cutoff
  EXPECT_EQ(planned_worker_count(10007, 1), 1u);
  EXPECT_GE(planned_worker_count(10007), 1u);
}

TEST(ParallelPool, CellGrainIsAboutEightChunksPerWorker) {
  EXPECT_EQ(cell_grain(527, 2), 32u);  // a 489x272 image's 16-px tiles
  EXPECT_EQ(cell_grain(24, 4), 1u);    // a group grid: one group per chunk
  EXPECT_EQ(cell_grain(5, 1), 1u);
  EXPECT_EQ(cell_grain(0, 4), 1u);
}

TEST(ParallelPool, DefaultGrainIsOneContiguousRangePerWorker) {
  std::atomic<std::size_t> chunks{0};
  parallel_for_chunks(
      0, 1000, [&](std::size_t, std::size_t, std::size_t) { chunks.fetch_add(1); }, 4);
  EXPECT_EQ(chunks.load(), 4u);
}

TEST(ParallelPool, PoolGrowsOnlyToTheLargestRequest) {
  const std::size_t before = detail::pool_helper_count();
  parallel_for_chunks(0, 64, [](std::size_t, std::size_t, std::size_t) {}, 3, 1);
  EXPECT_EQ(detail::pool_helper_count(), std::max<std::size_t>(before, 2));
  parallel_for_chunks(0, 64, [](std::size_t, std::size_t, std::size_t) {}, 2, 1);
  EXPECT_EQ(detail::pool_helper_count(), std::max<std::size_t>(before, 2));
}

TEST(ParallelPool, FirstExceptionWinsAndRemainingChunksAreAbandoned) {
  constexpr std::size_t kItems = 20000;
  std::atomic<std::size_t> visited{0};
  const auto run = [&] {
    parallel_for_chunks(
        0, kItems,
        [&](std::size_t lo, std::size_t, std::size_t) {
          visited.fetch_add(1, std::memory_order_relaxed);
          if (lo == 0) throw std::out_of_range("chunk 0 failed");
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        },
        4, 1);
  };
  EXPECT_THROW(run(), std::out_of_range);
  // Unabandoned, the sleeping chunks alone would take ~0.1 s per worker;
  // after the throw the workers stop claiming.
  EXPECT_LT(visited.load(), kItems / 2);

  // The pool is still usable after a failed region.
  std::atomic<std::size_t> after{0};
  parallel_for_chunks(
      0, 100, [&](std::size_t lo, std::size_t hi, std::size_t) { after.fetch_add(hi - lo); }, 4,
      1);
  EXPECT_EQ(after.load(), 100u);
}

TEST(ParallelPool, ConcurrentCallersAllFinish) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kItems = 1000;
  constexpr int kRounds = 25;
  std::vector<std::vector<int>> sums(kCallers, std::vector<int>(kItems, 0));
  {
    std::vector<std::jthread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&sums, c] {
        for (int round = 0; round < kRounds; ++round) {
          // Disjoint slots: whichever caller owns the pool, the others run
          // inline on their own threads.
          parallel_for_chunks(
              0, kItems,
              [&](std::size_t lo, std::size_t hi, std::size_t) {
                for (std::size_t i = lo; i < hi; ++i) ++sums[c][i];
              },
              4, 1);
        }
      });
    }
  }
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(sums[c][i], kRounds) << "caller " << c << " index " << i;
    }
  }
}

TEST(ParallelPool, NestedRegionRunsInlineOnItsWorker) {
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 300;
  std::vector<std::vector<int>> visits(kOuter, std::vector<int>(kInner, 0));
  std::atomic<std::size_t> nonzero_inner_worker{0};
  parallel_for_chunks(
      0, kOuter,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t o = lo; o < hi; ++o) {
          parallel_for_chunks(
              0, kInner,
              [&](std::size_t ilo, std::size_t ihi, std::size_t inner_worker) {
                if (inner_worker != 0) nonzero_inner_worker.fetch_add(1);
                for (std::size_t i = ilo; i < ihi; ++i) ++visits[o][i];
              },
              4, 1);
        }
      },
      4, 1);
  EXPECT_EQ(nonzero_inner_worker.load(), 0u);
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) ASSERT_EQ(visits[o][i], 1);
  }
}

}  // namespace
}  // namespace gstg
