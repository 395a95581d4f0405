#include "src/support/thread_pool.h"

#include <atomic>
#include <memory>

#include "src/support/logging.h"

namespace ansor {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (n == 1) {
    fn(0);
    return;
  }
  // Per-item dynamic dispatch: workers and the calling thread all claim one
  // index at a time from a shared counter, so the caller participates instead
  // of blocking idle. The callers run items of 5-200 us each (a program-cache
  // hit, an artifact build, a mutation replay), so one atomic increment per
  // item is noise, while claiming items in chunks let one chunk of slow
  // builds hold up the whole pass. The dispatch block is heap-allocated
  // because a queued helper task can wake after every item is claimed (and
  // the caller has returned); such stragglers only read `next`, see the
  // range exhausted, and exit.
  struct Dispatch {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto d = std::make_shared<Dispatch>();
  auto run_items = [d, &fn, n] {
    for (;;) {
      size_t i = d->next.fetch_add(1);
      if (i >= n) {
        return;
      }
      fn(i);
      if (d->done.fetch_add(1) + 1 == n) {
        // Notify under the lock so the caller cannot check the predicate and
        // then sleep between our increment and our notify.
        std::lock_guard<std::mutex> done_lock(d->mu);
        d->cv.notify_all();
      }
    }
  };
  size_t helpers = std::min(workers_.size(), n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < helpers; ++i) {
      tasks_.push(run_items);
    }
  }
  cv_.notify_all();
  run_items();  // caller participates
  std::unique_lock<std::mutex> done_lock(d->mu);
  d->cv.wait(done_lock, [&] { return d->done.load() == n; });
}

void ThreadPool::Enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(fn));
  }
  cv_.notify_one();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ansor
