#include "common/thread_pool.hpp"

#include <atomic>
#include <algorithm>

namespace cstf {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallelForImpl(std::size_t n, IndexFn fn, void* ctx) {
  if (n == 0) return;
  if (n == 1) {  // avoid queueing overhead for singleton stages
    fn(ctx, 0);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t total = 0;
    std::mutex m;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();
  shared->total = n;

  auto body = [shared, fn, ctx] {
    for (;;) {
      const std::size_t i =
          shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shared->total) break;
      try {
        fn(ctx, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->m);
        if (!shared->error) shared->error = std::current_exception();
      }
      if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          shared->total) {
        std::lock_guard<std::mutex> lock(shared->m);
        shared->cv.notify_all();
      }
    }
  };

  const std::size_t fanout = std::min(n, workers_.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Enqueue fanout-1 helpers; the calling thread also participates so a
    // pool of size 1 can never deadlock on nested parallelFor.
    for (std::size_t i = 1; i < fanout; ++i) tasks_.push(body);
  }
  // One wake per enqueued helper: a one-worker pool (fanout 1) wakes none.
  for (std::size_t i = 1; i < fanout; ++i) cv_.notify_one();
  body();  // caller participates

  {
    std::unique_lock<std::mutex> lock(shared->m);
    shared->cv.wait(lock, [&] {
      return shared->done.load(std::memory_order_acquire) == shared->total;
    });
    if (shared->error) std::rethrow_exception(shared->error);
  }
}

}  // namespace cstf
