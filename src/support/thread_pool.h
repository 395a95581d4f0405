// A fixed-size worker pool for parallelizing embarrassingly parallel loops
// (batch measurement, cost-model training, population evaluation).
#ifndef ANSOR_SRC_SUPPORT_THREAD_POOL_H_
#define ANSOR_SRC_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ansor {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Runs fn(i) for i in [0, n) across the pool and blocks until all complete.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Enqueues one task for asynchronous execution and returns immediately.
  // Measurer::SubmitBatch enqueues one task per trial, so only this pool's
  // workers run them and a deadline can cancel those not yet started. Tasks
  // enqueued during shutdown still run before the destructor joins.
  void Enqueue(std::function<void()> fn);

  // Process-wide shared pool sized to the hardware concurrency.
  static ThreadPool& Global();

  // Resolves an optional pool override: *pool when non-null, else Global().
  // Callers that accept an injected pool (e.g. for thread-count-invariance
  // tests) use this to fall back to the shared pool.
  static ThreadPool& OrGlobal(ThreadPool* pool) { return pool != nullptr ? *pool : Global(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace ansor

#endif  // ANSOR_SRC_SUPPORT_THREAD_POOL_H_
