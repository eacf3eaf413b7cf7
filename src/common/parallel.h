// Data-parallel loops on one process-wide persistent worker pool.
//
// Pool: helper threads are created lazily, the first time a region asks for
// more workers than the pool holds, and then live for the rest of the
// process (so each owns exactly one trace ring). Between regions they block
// on a condition variable; they never spin. The calling thread joins every
// region as worker 0.
//
// Scheduling: workers claim chunks of `grain` consecutive items from a
// shared atomic cursor until the range is exhausted. cell_grain() balances
// loops whose items vary widely in cost (tiles, groups, cells, and the
// binning passes' splat chunks); grain = 0 selects ceil(n / workers), one
// contiguous chunk per worker, for cheap uniform-cost passes (the temporal
// cache snapshot) where more chunks would only add cursor claims.
//
// Inline fallback: one region owns the pool at a time. A region that starts
// while another caller owns it — a service thread, or a region nested
// inside a chunk, such as the stages of a frame that render_batch runs as
// one of its view chunks — runs fn(begin, end, 0) on its own thread
// instead. It never waits for the pool, so it cannot deadlock.
//
// Determinism contract: which worker runs which chunk changes from run to
// run. Workers write only to disjoint output slots or to per-worker
// accumulators whose merge does not depend on that assignment (integer
// sums; floating-point totals are reduced in item order after the join), so
// results are independent of the thread count and of the schedule.
//
// Exception contract: the first exception thrown by fn wins. Workers stop
// claiming chunks, every joined worker returns, and the exception is
// rethrown on the calling thread — so bad input discovered deep inside a
// parallel stage (e.g. a malformed cloud) surfaces as a normal catchable
// error.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>

#include "common/runconfig.h"

namespace gstg {

/// Upper bound (exclusive) on the worker indices parallel_for_chunks passes
/// for a range of n items under the same `threads` request:
/// min(threads, n), at least 1. threads == 0 selects worker_thread_count().
/// Callers size per-worker accumulator arrays from this, so a worker index
/// can never alias another slot. Not every index need run a chunk.
inline std::size_t planned_worker_count(std::size_t n, std::size_t threads = 0) {
  if (n == 0) return 1;
  const std::size_t workers = threads == 0 ? worker_thread_count() : threads;
  return std::min(workers, n);
}

/// Grain for loops over grid cells (tiles, groups), whose costs differ by
/// orders of magnitude: about eight contiguous chunks per
/// worker. That is enough chunks for the cursor to even out the costs, and
/// each chunk keeps a run of neighbouring cells — and the splats they share
/// — on one core (one cell per chunk measured ~5% slower in both rasters at
/// 2 threads on a 4-vCPU x86 VM). Grids with fewer than eight cells per
/// worker (the group grid) get one cell per chunk. Binning uses the same
/// grain over splats: its splat costs are just as uneven, because huge
/// footprints cluster in index ranges.
inline std::size_t cell_grain(std::size_t cells, std::size_t threads = 0) {
  return std::max<std::size_t>(1, cells / (8 * planned_worker_count(cells, threads)));
}

namespace detail {

/// One parallel region: the type-erased loop body and the shared chunk
/// cursor. Lives on the calling thread's stack for the region's duration.
struct ParallelRegion {
  void (*invoke)(const void* fn, std::size_t lo, std::size_t hi, std::size_t worker) = nullptr;
  const void* fn = nullptr;
  std::size_t begin = 0;
  std::size_t count = 0;  ///< items in the range
  std::size_t grain = 1;  ///< items per claimed chunk, in [1, count]
  std::atomic<std::size_t> next{0};  ///< offset of the next unclaimed chunk
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;  ///< first exception thrown by fn

  /// Claims and runs chunks as `worker` until the range is exhausted or a
  /// chunk has thrown.
  void work(std::size_t worker) noexcept;
};

/// Runs `region` on up to `workers` workers of the process pool, the caller
/// as worker 0, and returns once every joined worker has finished. Returns
/// false, having run nothing, when another region owns the pool.
bool run_on_pool(ParallelRegion& region, std::size_t workers);

/// Helper threads the pool has created so far (it never shrinks).
std::size_t pool_helper_count();

}  // namespace detail

/// Invokes fn(chunk_begin, chunk_end, worker_index) over [begin, end) in
/// chunks of `grain` items (0 = ceil(n / workers)) on up to
/// planned_worker_count(end - begin, threads) workers of the persistent
/// pool. Runs fn(begin, end, 0) inline when one worker is planned or the
/// pool is owned by another region. A template over the callable, so no
/// std::function boxing; a region allocates nothing once the pool has
/// grown to the requested size.
template <typename Fn>
void parallel_for_chunks(std::size_t begin, std::size_t end, const Fn& fn,
                         std::size_t threads = 0, std::size_t grain = 0) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  const std::size_t workers = planned_worker_count(n, threads);
  if (workers > 1) {
    detail::ParallelRegion region;
    region.invoke = [](const void* f, std::size_t lo, std::size_t hi, std::size_t worker) {
      (*static_cast<const Fn*>(f))(lo, hi, worker);
    };
    region.fn = &fn;
    region.begin = begin;
    region.count = n;
    region.grain = grain == 0 ? (n + workers - 1) / workers : std::min(grain, n);
    if (detail::run_on_pool(region, workers)) {
      if (region.error) std::rethrow_exception(region.error);
      return;
    }
  }
  fn(begin, end, 0);
}

}  // namespace gstg
