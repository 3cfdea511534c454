#ifndef MLDS_KC_FAULTY_EXECUTOR_H_
#define MLDS_KC_FAULTY_EXECUTOR_H_

#include <string_view>

#include "kc/executor.h"

namespace mlds::kc {

/// Kernel executor that fails on command: wraps a real executor and
/// rejects requests and transactions while armed, or after N more
/// successful ones (to break multi-request translations mid-flight); other
/// calls pass through. The kernel-controller counterpart of the MBDS
/// per-backend FaultInjector — language-interface tests use it to verify
/// that kernel faults propagate as clean Status values and never corrupt
/// sessions.
class FaultyExecutor : public KernelExecutor {
 public:
  explicit FaultyExecutor(KernelExecutor* inner) : inner_(inner) {}

  Status DefineDatabase(const abdm::DatabaseDescriptor& db) override {
    return inner_->DefineDatabase(db);
  }
  bool HasFile(std::string_view file) const override {
    return inner_->HasFile(file);
  }
  Result<kds::Response> Execute(const abdl::Request& request) override {
    MLDS_RETURN_IF_ERROR(CountRequest());
    return inner_->Execute(request);
  }
  Result<kds::Response> ExecuteTransaction(
      const abdl::Transaction& txn) override {
    MLDS_RETURN_IF_ERROR(CountRequest());
    return inner_->ExecuteTransaction(txn);
  }
  size_t FileSize(std::string_view file) const override {
    return inner_->FileSize(file);
  }
  Status CreateIndex(std::string_view file, std::string_view attr) override {
    return inner_->CreateIndex(file, attr);
  }
  kds::IntegrityReport VerifyIntegrity() const override {
    return inner_->VerifyIntegrity();
  }
  kds::KernelCounters Counters() const override { return inner_->Counters(); }

  /// While failing, the kernel reports itself degraded; otherwise the
  /// inner executor's health passes through.
  KernelHealth Health() const override {
    KernelHealth health = inner_->Health();
    if (fail_after_ == 0) {
      health.degraded = true;
      for (BackendHealthStatus& backend : health.backends) {
        backend.state = "suspect";
        backend.last_fault = "injected kernel fault";
      }
    }
    return health;
  }

  /// -1 = healthy; 0 = fail immediately; N>0 = fail after N requests.
  void set_fail_after(int n) { fail_after_ = n; }

 private:
  Status CountRequest() {
    if (fail_after_ == 0) return Status::Internal("injected kernel fault");
    if (fail_after_ > 0) --fail_after_;
    return Status::OK();
  }

  KernelExecutor* inner_;
  int fail_after_ = -1;
};

}  // namespace mlds::kc

#endif  // MLDS_KC_FAULTY_EXECUTOR_H_
