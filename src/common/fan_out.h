#ifndef MLDS_COMMON_FAN_OUT_H_
#define MLDS_COMMON_FAN_OUT_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mlds::common {

/// The fan-out executor of the MBDS controller: runs every submitted
/// share on a worker of its own, so no share waits behind another
/// request's. Submit hands the share to an idle worker, or starts a new
/// one when none is idle, so the worker count is the peak number of
/// shares ever in flight at once; workers stay for later fan-outs.
///
/// A share runs in two steps. Its work returns the step that publishes
/// the result, and the worker counts as idle again before it runs that
/// step: a dispatcher woken by the result that submits its next request
/// at once finds the worker free instead of starting another.
class FanOutExecutor {
 public:
  /// The work of one share; the returned step publishes its result.
  using Share = std::function<std::function<void()>()>;

  FanOutExecutor() = default;

  /// Runs every share still queued, then joins the workers. A share
  /// blocked on something (a stalled backend parked on its cancellation
  /// token) must be released first, or this waits for it.
  ~FanOutExecutor();

  FanOutExecutor(const FanOutExecutor&) = delete;
  FanOutExecutor& operator=(const FanOutExecutor&) = delete;

  /// Starts `share` and returns at once; it must not throw. The share
  /// must own (or share ownership of) everything it touches, because the
  /// submitter may have moved on by the time it finishes.
  void Submit(Share share);

  /// Workers started so far.
  size_t threads() const;

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Share> queue_;
  /// Workers free to take a queued share; Submit keeps it at least
  /// queue_.size().
  size_t idle_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mlds::common

#endif  // MLDS_COMMON_FAN_OUT_H_
