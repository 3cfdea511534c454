#include "common/fan_out.h"

namespace mlds::common {

FanOutExecutor::~FanOutExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void FanOutExecutor::Submit(Share share) {
  std::lock_guard<std::mutex> lock(mutex_);
  queue_.push_back(std::move(share));
  if (queue_.size() > idle_) {
    // Every idle worker already has a queued share to take: this one
    // gets a new worker, which counts as idle until it takes a share.
    ++idle_;
    workers_.emplace_back([this] { WorkerLoop(); });
  } else {
    wake_.notify_one();
  }
}

size_t FanOutExecutor::threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void FanOutExecutor::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown with nothing left to run.
    Share share = std::move(queue_.front());
    queue_.pop_front();
    --idle_;
    lock.unlock();
    std::function<void()> publish = share();
    lock.lock();
    ++idle_;
    lock.unlock();
    publish();
    lock.lock();
  }
}

}  // namespace mlds::common
