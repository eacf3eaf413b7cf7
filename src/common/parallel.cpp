#include "common/parallel.h"

#include <condition_variable>
#include <cstdint>
#include <system_error>
#include <thread>
#include <vector>

namespace gstg::detail {

void ParallelRegion::work(std::size_t worker) noexcept {
  while (!failed.load(std::memory_order_relaxed)) {
    const std::size_t lo = next.fetch_add(grain, std::memory_order_relaxed);
    if (lo >= count) return;
    const std::size_t hi = count - lo < grain ? count : lo + grain;
    try {
      invoke(fn, begin + lo, begin + hi, worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  }
}

namespace {

/// The process-wide pool. Only the owner of the current region (the thread
/// that won `owned_`) grows `helpers_` or publishes a region; helpers read
/// the published region under `mutex_`. Destroyed at static destruction,
/// which stops and joins the parked helpers.
class WorkerPool {
 public:
  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  WorkerPool(WorkerPool&&) = delete;
  WorkerPool& operator=(WorkerPool&&) = delete;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  bool run(ParallelRegion& region, std::size_t workers) {
    if (owned_.exchange(true, std::memory_order_acquire)) return false;
    grow(workers - 1);
    std::size_t joined = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      joined = std::min(workers - 1, helpers_.size());
      region_ = &region;
      joined_ = joined;
      running_ = joined;
      ++generation_;
    }
    if (joined != 0) wake_.notify_all();
    region.work(0);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [this] { return running_ == 0; });
      region_ = nullptr;
    }
    owned_.store(false, std::memory_order_release);
    return true;
  }

  std::size_t helper_count() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return helpers_.size();
  }

 private:
  /// Creates helpers until `helpers` exist. A failed spawn (thread
  /// exhaustion) leaves the pool smaller; regions then run on fewer workers.
  void grow(std::size_t helpers) {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (helpers_.size() < helpers) {
      const std::size_t index = helpers_.size() + 1;
      try {
        helpers_.emplace_back([this, index, seen = generation_] { helper_loop(index, seen); });
      } catch (const std::system_error&) {
        return;
      }
    }
  }

  /// Helper `index` (worker index >= 1): park until a region that joins it
  /// is published, work it, report done, park again.
  void helper_loop(std::size_t index, std::uint64_t seen) {
    for (;;) {
      ParallelRegion* region = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        do {
          wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
          if (stop_) return;
          seen = generation_;
        } while (index > joined_);
        region = region_;
      }
      region->work(index);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--running_ == 0) done_.notify_one();
    }
  }

  std::atomic<bool> owned_{false};
  std::mutex mutex_;
  std::condition_variable wake_;  ///< helpers park here between regions
  std::condition_variable done_;  ///< the owner waits here for its helpers
  ParallelRegion* region_ = nullptr;
  std::size_t joined_ = 0;   ///< helpers 1..joined_ take part in the region
  std::size_t running_ = 0;  ///< joined helpers still working
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> helpers_;  ///< last: helpers use every member above
};

}  // namespace

bool run_on_pool(ParallelRegion& region, std::size_t workers) {
  return WorkerPool::instance().run(region, workers);
}

std::size_t pool_helper_count() { return WorkerPool::instance().helper_count(); }

}  // namespace gstg::detail
