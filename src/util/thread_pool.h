#ifndef ESD_UTIL_THREAD_POOL_H_
#define ESD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace esd::util {

/// Fixed-size worker pool used by the parallel index builder (PESDIndex+,
/// Section IV-E of the paper).
///
/// `num_threads == 1` degenerates to running everything on the calling
/// thread, so single-threaded baselines pay no synchronization cost.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread participates in
  /// ParallelFor). `num_threads` is clamped to >= 1. Workers name their
  /// Chrome-trace tracks "<thread_name_prefix>-<i>" starting at 1 (the
  /// owning thread is "-0" by convention when it participates); an empty
  /// prefix means "esd-pool".
  explicit ThreadPool(unsigned num_threads);
  ThreadPool(unsigned num_threads, std::string thread_name_prefix);
  ~ThreadPool();

  /// std::thread::hardware_concurrency clamped to >= 1 — the default worker
  /// count for the serving layer and the bench thread sweeps.
  static unsigned DefaultThreadCount();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [begin, end), distributing dynamically in
  /// chunks of `grain` indices. Blocks until all iterations complete.
  /// `fn` must be safe to call concurrently from multiple threads.
  void ParallelFor(uint64_t begin, uint64_t end, uint64_t grain,
                   const std::function<void(uint64_t)>& fn);

  /// Runs fn(chunk_begin, chunk_end) over dynamic chunks. Blocks.
  void ParallelForChunked(uint64_t begin, uint64_t end, uint64_t grain,
                          const std::function<void(uint64_t, uint64_t)>& fn);

  /// Fire-and-forget: enqueues `task` to run on one of the pool's worker
  /// threads and returns immediately (the live-index subsystem hosts its
  /// background re-freezes this way). A 1-thread pool has no workers, so
  /// the task runs inline on the calling thread — callers that need true
  /// background execution must size the pool >= 2. Tasks pending at
  /// destruction are drained (run, not dropped) before the workers join;
  /// a Post() racing shutdown runs inline. Tasks must not call Post or
  /// ParallelFor on their own pool.
  void Post(std::function<void()> task);

 private:
  void WorkerLoop();

  unsigned num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  bool shutdown_ = false;

  // Posted fire-and-forget tasks; protected by mu_. Workers prefer tasks
  // over ParallelFor chunks and drain the queue before shutdown.
  std::deque<std::function<void()>> tasks_;

  // Current ParallelFor job; protected by mu_ for setup/teardown, lock-free
  // chunk claiming through next_.
  std::function<void(uint64_t, uint64_t)> job_;
  std::atomic<uint64_t> next_{0};
  uint64_t end_ = 0;
  uint64_t grain_ = 1;
  uint64_t generation_ = 0;
  unsigned active_workers_ = 0;
};

/// Runs fn(lo, hi) over [0, n): on `pool` in chunks of `grain` if non-null,
/// else as one call on the calling thread.
template <typename Fn>
void ForRange(ThreadPool* pool, uint64_t n, uint64_t grain, Fn&& fn) {
  if (pool != nullptr) {
    pool->ParallelForChunked(0, n, grain, fn);
  } else {
    fn(0, n);
  }
}

}  // namespace esd::util

#endif  // ESD_UTIL_THREAD_POOL_H_
