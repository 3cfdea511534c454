#ifndef MLDS_MBDS_FAULT_INJECTOR_H_
#define MLDS_MBDS_FAULT_INJECTOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string_view>

namespace mlds::mbds {

/// Fault a backend's injector can serve on one execution attempt.
///
///   kError — transient failure: the attempt fails but a retry may
///            succeed. Models a dropped bus message or an I/O hiccup.
///   kStall — the attempt blocks (on its cancellation token) without
///            executing, until the controller's deadline abandons it.
///            Models a hung backend.
///   kCrash — fatal: the attempt fails, the backend's engine is declared
///            dead and must be rebuilt from checkpoint + WAL before it
///            can serve again.
enum class FaultKind { kNone, kError, kStall, kCrash };

std::string_view FaultKindName(FaultKind kind);

/// When and how a backend misbehaves. Counted in execution attempts
/// (retries are attempts too), so tests are deterministic.
struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  /// 0-based attempt index on which the fault first fires.
  uint64_t at_attempt = 0;
  /// Number of consecutive attempts that fault (arm with a count larger
  /// than the retry budget to make a transient fault stick).
  int count = 1;
};

/// Per-backend fault injector: consulted once per execution attempt,
/// before the request reaches the engine. Thread-safe.
class FaultInjector {
 public:
  void Arm(FaultPlan plan);
  void Disarm();

  /// Deterministically derives an attempt index in [0, window) from
  /// `seed` (splitmix64), so seeded fault campaigns are reproducible.
  static FaultPlan Seeded(FaultKind kind, uint64_t seed, uint64_t window,
                          int count = 1);

  /// Consumes one attempt slot and returns the fault (if any) to inject
  /// for it.
  FaultKind OnAttempt();

  uint64_t attempts() const;
  uint64_t faults_served() const;

 private:
  mutable std::mutex mutex_;
  FaultPlan plan_;
  uint64_t attempts_ = 0;
  uint64_t faults_served_ = 0;
  int remaining_ = 0;
};

/// One-shot cancellation token shared between a fan-out task and the
/// controller that may abandon it on deadline. A stalled task parks in
/// Wait; Cancel releases it without executing the request.
class Cancellation {
 public:
  void Cancel();
  bool cancelled() const;

  /// Blocks until cancelled.
  void Wait();

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool cancelled_ = false;
};

}  // namespace mlds::mbds

#endif  // MLDS_MBDS_FAULT_INJECTOR_H_
