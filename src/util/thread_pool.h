// Fixed-size thread pool plus blocking fan-out helpers.
//
// Used to parallelize batched tensor kernels and Phase-2 validation over
// instances. The pool is created once per process (GlobalThreadPool) so
// repeated ParallelFor calls do not pay thread start-up cost. Every helper
// funnels into RunTasksAndWait, which waits on a private latch: a fan-out
// never waits for work other callers submitted to the same pool.

#ifndef DQUAG_UTIL_THREAD_POOL_H_
#define DQUAG_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dquag {

/// A minimal fixed-size worker pool.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool shutting_down_ = false;
};

/// Process-wide pool shared by all parallel kernels.
ThreadPool& GlobalThreadPool();

/// True when the calling thread is a GlobalThreadPool worker executing a
/// task. Fan-out code uses this to degrade to serial execution instead of
/// submitting nested work and waiting on the pool from inside it.
bool InsidePoolWorker();

/// Runs fn(i) for i in [begin, end), splitting the range into at most
/// threads*4 contiguous chunks of >= grain iterations, run on the global
/// pool through RunTasksAndWait.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain = 256);

/// Chunked variant: fn(chunk_begin, chunk_end) per worker chunk (at most
/// one chunk per thread, each > min_chunk iterations unless the range is
/// smaller). Useful when per-iteration dispatch would dominate.
void ParallelForChunked(size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& fn,
                        size_t min_chunk = 1);

/// Runs fn(i) for i in [0, count) as `count` tasks on `pool` and waits on a
/// PRIVATE latch: completion never depends on other submitters' in-flight
/// work, so concurrent pool users cannot stall the caller. The one place
/// that waits for pool work. Degrades to inline execution when count <= 1,
/// the pool has a single thread, or the caller is itself a pool worker
/// (nested fan-out would wait on the pool from inside it).
void RunTasksAndWait(ThreadPool& pool, int64_t count,
                     const std::function<void(int64_t)>& fn);

}  // namespace dquag

#endif  // DQUAG_UTIL_THREAD_POOL_H_
