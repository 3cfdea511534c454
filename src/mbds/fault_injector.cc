#include "mbds/fault_injector.h"

namespace mlds::mbds {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kError:
      return "error";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kCrash:
      return "crash";
  }
  return "unknown";
}

void FaultInjector::Arm(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
  remaining_ = plan.kind == FaultKind::kNone ? 0 : plan.count;
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = FaultPlan{};
  remaining_ = 0;
}

FaultPlan FaultInjector::Seeded(FaultKind kind, uint64_t seed,
                                uint64_t window, int count) {
  // splitmix64: a different seed lands the fault on a different request,
  // the same seed always on the same one.
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  FaultPlan plan;
  plan.kind = kind;
  plan.at_attempt = window == 0 ? 0 : z % window;
  plan.count = count;
  return plan;
}

FaultKind FaultInjector::OnAttempt() {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t attempt = attempts_++;
  if (plan_.kind == FaultKind::kNone || remaining_ <= 0) {
    return FaultKind::kNone;
  }
  if (attempt < plan_.at_attempt) return FaultKind::kNone;
  --remaining_;
  ++faults_served_;
  return plan_.kind;
}

uint64_t FaultInjector::attempts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempts_;
}

uint64_t FaultInjector::faults_served() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_served_;
}

void Cancellation::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
  }
  cv_.notify_all();
}

bool Cancellation::cancelled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cancelled_;
}

void Cancellation::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return cancelled_; });
}

}  // namespace mlds::mbds
