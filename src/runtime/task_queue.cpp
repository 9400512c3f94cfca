#include "runtime/task_queue.hpp"

#include <algorithm>

namespace xorec::runtime {

TaskQueue::TaskQueue(size_t threads) {
  const size_t n = std::max<size_t>(threads, 1);
  workers_.reserve(n);
  for (size_t w = 0; w < n; ++w) {
    workers_.emplace_back([this] {
      for (;;) {
        std::packaged_task<void()> task;
        {
          std::unique_lock lk(mu_);
          cv_work_.wait(lk, [&] { return stop_ || !queue_.empty(); });
          if (queue_.empty()) return;  // stop_ && drained
          task = std::move(queue_.front());
          queue_.pop_front();
          ++active_;
        }
        task();  // packaged_task captures exceptions into the future
        {
          std::lock_guard lk(mu_);
          if (--active_ == 0 && queue_.empty()) cv_idle_.notify_all();
        }
      }
    });
  }
}

TaskQueue::~TaskQueue() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

std::future<void> TaskQueue::submit(std::function<void()> fn) {
  // The depth drops inside the packaged function — before the future is
  // made ready — and on the exception path too.
  std::packaged_task<void()> task([this, fn = std::move(fn)] {
    struct Leave {
      std::atomic<size_t>& depth;
      ~Leave() { depth.fetch_sub(1); }
    } leave{depth_};
    fn();
  });
  std::future<void> fut = task.get_future();
  depth_.fetch_add(1);
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_work_.notify_one();
  return fut;
}

void TaskQueue::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [&] { return queue_.empty() && active_ == 0; });
}

}  // namespace xorec::runtime
