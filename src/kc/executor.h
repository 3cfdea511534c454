#ifndef MLDS_KC_EXECUTOR_H_
#define MLDS_KC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "abdl/request.h"
#include "abdm/schema.h"
#include "common/result.h"
#include "kds/engine.h"
#include "mbds/controller.h"

namespace mlds::kc {

/// One backend's health as seen through the kernel-controller interface.
/// States are the MBDS health machine's names ("healthy", "suspect",
/// "quarantined", "reintegrating") rendered as strings so the language
/// interfaces need no MBDS types to display them.
struct BackendHealthStatus {
  int id = 0;
  std::string state;
  std::string last_fault;
  uint64_t wal_entries = 0;
  uint64_t quarantine_count = 0;
};

/// Degraded-mode status of the kernel database system, surfaced through
/// every language interface (as partial-result warnings on each result,
/// and rendered by the facade via kfs::FormatHealth).
struct KernelHealth {
  /// True when any backend is not healthy: results may be partial, and
  /// responses carry kds::PartialResultWarning entries naming the
  /// affected backends.
  bool degraded = false;
  std::vector<BackendHealthStatus> backends;
};

/// The kernel controller's view of the kernel database system: the
/// interface through which translated ABDL requests are executed. Two
/// realizations exist — a single KDS engine (one backend) and the full
/// multi-backend MBDS — so every language-interface component runs
/// unchanged against either.
///
/// The controller executes-or-explains: a request carrying the abdl
/// explain flag runs normally, and its Response::plan additionally holds
/// the annotated physical plan — per-file trees from the single engine,
/// or the per-backend merge the MBDS controller assembled.
class KernelExecutor {
 public:
  virtual ~KernelExecutor() = default;

  virtual Status DefineDatabase(const abdm::DatabaseDescriptor& db) = 0;
  virtual bool HasFile(std::string_view file) const = 0;
  virtual Result<kds::Response> Execute(const abdl::Request& request) = 0;
  virtual size_t FileSize(std::string_view file) const = 0;

  /// Executes `txn` as one transaction (see the engine's and the MBDS
  /// controller's ExecuteTransaction); `affected` sums its statements'.
  virtual Result<kds::Response> ExecuteTransaction(
      const abdl::Transaction& txn) = 0;

  /// Executes `request` in explain mode regardless of how its flag was
  /// set: the result carries the annotated plan (null for INSERT, which
  /// chooses no access path).
  Result<kds::Response> ExecuteExplain(abdl::Request request) {
    abdl::SetExplain(request, true);
    return Execute(request);
  }

  /// Degraded-mode status of the kernel. A single engine is always one
  /// healthy backend; MBDS reports its per-backend health machine.
  virtual KernelHealth Health() const {
    KernelHealth health;
    health.backends.push_back(BackendHealthStatus{0, "healthy", "", 0, 0});
    return health;
  }

  /// Builds a secondary index on a non-directory attribute (see
  /// kds::Engine::CreateIndex).
  virtual Status CreateIndex(std::string_view file, std::string_view attr) = 0;

  /// On-demand scrub: walks every on-disk page of the kernel's storage
  /// through the checksum verify (see kds::Engine::VerifyIntegrity).
  virtual kds::IntegrityReport VerifyIntegrity() const = 0;

  /// The kernel's counters — buffer pool, storage integrity, statistics
  /// & joins — in one snapshot (summed over backends for MBDS, plus the
  /// controller's own distributed joins).
  virtual kds::KernelCounters Counters() const = 0;
};

/// KernelExecutor over a single kds::Engine (does not own it).
class EngineExecutor : public KernelExecutor {
 public:
  explicit EngineExecutor(kds::Engine* engine) : engine_(engine) {}

  Status DefineDatabase(const abdm::DatabaseDescriptor& db) override {
    return engine_->DefineDatabase(db);
  }
  bool HasFile(std::string_view file) const override {
    return engine_->HasFile(file);
  }
  Result<kds::Response> Execute(const abdl::Request& request) override {
    return engine_->Execute(request);
  }
  Result<kds::Response> ExecuteTransaction(
      const abdl::Transaction& txn) override {
    MLDS_ASSIGN_OR_RETURN(auto responses, engine_->ExecuteTransaction(txn));
    kds::Response total;
    for (const kds::Response& r : responses) total.affected += r.affected;
    return total;
  }
  size_t FileSize(std::string_view file) const override {
    return engine_->FileSize(file);
  }
  Status CreateIndex(std::string_view file, std::string_view attr) override {
    return engine_->CreateIndex(file, attr);
  }
  kds::IntegrityReport VerifyIntegrity() const override {
    return engine_->VerifyIntegrity();
  }
  kds::KernelCounters Counters() const override {
    return engine_->counters();
  }

 private:
  kds::Engine* engine_;
};

/// KernelExecutor over the MBDS backend controller (does not own it).
class MbdsExecutor : public KernelExecutor {
 public:
  explicit MbdsExecutor(mbds::Controller* controller)
      : controller_(controller) {}

  Status DefineDatabase(const abdm::DatabaseDescriptor& db) override {
    return controller_->DefineDatabase(db);
  }
  bool HasFile(std::string_view file) const override {
    return controller_->HasFile(file);
  }
  Result<kds::Response> Execute(const abdl::Request& request) override {
    MLDS_ASSIGN_OR_RETURN(mbds::ExecutionReport report,
                          controller_->Execute(request));
    return std::move(report.response);
  }
  Result<kds::Response> ExecuteTransaction(
      const abdl::Transaction& txn) override {
    MLDS_ASSIGN_OR_RETURN(mbds::ExecutionReport report,
                          controller_->ExecuteTransaction(txn));
    return std::move(report.response);
  }
  size_t FileSize(std::string_view file) const override {
    return controller_->FileSize(file);
  }
  Status CreateIndex(std::string_view file, std::string_view attr) override {
    return controller_->CreateIndex(file, attr);
  }
  kds::IntegrityReport VerifyIntegrity() const override {
    return controller_->VerifyIntegrity();
  }
  kds::KernelCounters Counters() const override {
    return controller_->Counters();
  }

  KernelHealth Health() const override {
    mbds::ControllerHealth mbds_health = controller_->Health();
    KernelHealth health;
    health.degraded = mbds_health.degraded;
    health.backends.reserve(mbds_health.backends.size());
    for (mbds::BackendStatus& backend : mbds_health.backends) {
      health.backends.push_back(BackendHealthStatus{
          backend.id, std::string(mbds::BackendHealthName(backend.state)),
          std::move(backend.last_fault), backend.wal_entries,
          backend.quarantine_count});
    }
    return health;
  }

 private:
  mbds::Controller* controller_;
};

}  // namespace mlds::kc

#endif  // MLDS_KC_EXECUTOR_H_
