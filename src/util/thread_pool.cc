#include "util/thread_pool.h"

#include <algorithm>

#include "util/failpoint.h"

namespace dquag {

namespace {
// Set on pool worker threads, so nested fan-out degrades to serial
// execution instead of deadlocking on the shared pool.
thread_local bool inside_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Delay-only injection: stretches the submit->run window so chaos tests
  // can surface ordering assumptions in fan-out code.
  DQUAG_FAILPOINT_HIT(failpoint::kThreadPoolDispatch);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  inside_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

bool InsidePoolWorker() { return inside_pool_worker; }

ThreadPool& GlobalThreadPool() {
  // Function-local static reference; intentionally leaked so worker threads
  // outlive all static destructors (Google style: no non-trivial globals).
  static ThreadPool& pool = *new ThreadPool();
  return pool;
}

namespace {
// Splits [begin, end) into `num_chunks` contiguous chunks of equal size
// (the last one shorter) and runs fn(lo, hi) for each through
// RunTasksAndWait.
void RunChunks(size_t begin, size_t end, size_t num_chunks,
               const std::function<void(size_t, size_t)>& fn) {
  const size_t chunk = (end - begin + num_chunks - 1) / num_chunks;
  const size_t count = (end - begin + chunk - 1) / chunk;
  RunTasksAndWait(GlobalThreadPool(), static_cast<int64_t>(count),
                  [&](int64_t c) {
                    const size_t lo = begin + static_cast<size_t>(c) * chunk;
                    fn(lo, std::min(end, lo + chunk));
                  });
}
}  // namespace

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t num_chunks = std::min(GlobalThreadPool().num_threads() * 4,
                                     (n + grain - 1) / grain);
  RunChunks(begin, end, num_chunks, [&fn](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) fn(i);
  });
}

void RunTasksAndWait(ThreadPool& pool, int64_t count,
                     const std::function<void(int64_t)>& fn) {
  if (count <= 1 || pool.num_threads() <= 1 || inside_pool_worker) {
    for (int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::mutex mutex;
  std::condition_variable done;
  int64_t remaining = count;
  for (int64_t i = 0; i < count; ++i) {
    pool.Submit([&, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(mutex);
      if (--remaining == 0) done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return remaining == 0; });
}

void ParallelForChunked(size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& fn,
                        size_t min_chunk) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t num_chunks =
      n <= min_chunk
          ? 1
          : std::min(GlobalThreadPool().num_threads(), n / min_chunk + 1);
  RunChunks(begin, end, num_chunks, fn);
}

}  // namespace dquag
