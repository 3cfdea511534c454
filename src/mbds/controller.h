#ifndef MLDS_MBDS_CONTROLLER_H_
#define MLDS_MBDS_CONTROLLER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "abdl/request.h"
#include "abdm/schema.h"
#include "common/backoff.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "kds/engine.h"
#include "kds/wal.h"
#include "mbds/fault_injector.h"
#include "mbds/health.h"

namespace mlds::mbds {

/// Cost of the controller <-> backend message exchange. The backends are
/// connected to the controller by a broadcast bus (Figure 1.3), so a
/// request costs one broadcast plus one reply regardless of backend count.
/// Each backend's disk is priced by its engine's kds::DiskModel.
struct BusModel {
  double broadcast_ms = 1.0;
  double reply_ms = 1.0;

  double RoundTripMs() const { return broadcast_ms + reply_ms; }
};

/// One backend (slave) of MBDS: identical software (a KDS engine) over its
/// own dedicated disk, holding a partition of every file's records. The
/// controller additionally keeps, per backend, a write-ahead log of every
/// mutation routed to its partition, a fault injector (for tests and fault
/// benchmarks), and a health state machine — together these let a backend
/// die and later rejoin by replaying its log (see Controller).
class Backend {
 public:
  Backend(int id, kds::EngineOptions options, HealthPolicy health = {})
      : id_(id),
        options_(std::move(options)),
        engine_(std::make_shared<kds::Engine>(options_)),
        health_(health) {}

  int id() const { return id_; }

  /// This backend's engine options (with its per-backend data dir, when
  /// the controller assigned storage dirs). Reintegration rebuilds the
  /// fresh engine from these.
  const kds::EngineOptions& engine_options() const { return options_; }
  kds::Engine& engine() { return *engine_; }
  const kds::Engine& engine() const { return *engine_; }

  /// Owning handle to the current engine: fan-out tasks hold one for the
  /// duration of a request, so a concurrent reintegration swapping in a
  /// rebuilt engine can never free the one they are executing against.
  std::shared_ptr<kds::Engine> SnapshotEngine() const {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    return engine_;
  }
  /// Swaps in a rebuilt engine. The retired engine's counters fold into
  /// this backend's running total, so counters() never steps backwards.
  /// The rebuilt engine inherits the retired one's latency scale.
  void ReplaceEngine(std::shared_ptr<kds::Engine> fresh) {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    retired_ += engine_->counters();
    fresh->set_latency_scale(engine_->latency_scale());
    engine_ = std::move(fresh);
  }

  /// Sets the live engine's disk-latency scale. Under the engine mutex,
  /// so a concurrent ReplaceEngine cannot hand the old scale on.
  void set_latency_scale(double scale) {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    engine_->set_latency_scale(scale);
  }

  /// Counters of every engine this backend has run: the retired ones
  /// plus the live one.
  kds::KernelCounters counters() const {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    kds::KernelCounters total = retired_;
    total += engine_->counters();
    return total;
  }

  kds::WalWriter& wal() { return wal_; }
  const kds::WalWriter& wal() const { return wal_; }
  FaultInjector& injector() { return injector_; }
  const FaultInjector& injector() const { return injector_; }
  HealthTracker& health() { return health_; }
  const HealthTracker& health() const { return health_; }

  /// Serializes the quarantine-skip decision (which appends missed
  /// mutations to the log) against the final hand-off of a reintegration,
  /// so a mutation is never lost in the quarantined -> healthy window.
  std::mutex& catchup_mutex() const { return catchup_mutex_; }

  /// Last checkpoint of this backend's partition (empty: none yet).
  std::string checkpoint() const {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    return checkpoint_;
  }
  void SetCheckpoint(std::string snapshot) {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    checkpoint_ = std::move(snapshot);
  }

  /// Whether this backend currently serves requests (not quarantined or
  /// mid-reintegration).
  bool available() const {
    BackendHealth state = health_.state();
    return state != BackendHealth::kQuarantined &&
           state != BackendHealth::kReintegrating;
  }

  /// Total simulated milliseconds this backend's disk has been busy.
  /// Atomic: broadcast fan-out executes backends on pool threads, and
  /// several client threads may drive the controller at once.
  double busy_ms() const { return busy_ms_.load(std::memory_order_relaxed); }
  void AddBusyMs(double ms) {
    busy_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

 private:
  int id_;
  kds::EngineOptions options_;
  mutable std::mutex engine_mutex_;
  std::shared_ptr<kds::Engine> engine_;
  kds::KernelCounters retired_;  ///< engines swapped out by ReplaceEngine.
  std::string checkpoint_;
  kds::WalWriter wal_;
  FaultInjector injector_;
  HealthTracker health_;
  mutable std::mutex catchup_mutex_;
  std::atomic<double> busy_ms_{0.0};
};

/// Execution outcome of one request through the backend controller.
struct ExecutionReport {
  /// Merged response (records from all backends, total affected count).
  /// `response.warnings` lists backends whose share is missing or
  /// degraded — a partial result is reported, never silently truncated.
  kds::Response response;
  /// Simulated response time: bus round trip + the slowest participating
  /// backend (backends execute in parallel).
  double response_time_ms = 0.0;
  /// Measured wall-clock time of the fan-out/merge, in milliseconds. With
  /// more than one backend this is the time of the slowest concurrent
  /// backend, not the sum — the real-hardware counterpart of
  /// `response_time_ms`'s simulated claim.
  double wall_time_ms = 0.0;
  /// Per-backend execution times for this request.
  std::vector<double> backend_times_ms;
};

/// How INSERTs choose a backend.
enum class PlacementPolicy {
  /// Consecutive inserts land on consecutive backends: perfectly even.
  kRoundRobin,
  /// Hash of the record's database-key keyword (second keyword); falls
  /// back to round-robin for records without one. Deterministic placement
  /// independent of arrival order, at the cost of mild skew.
  kHashKey,
};

/// Availability knobs of the controller. All thresholds are counted in
/// requests and all backoff delays are *simulated* (charged to the
/// slot's simulated time, never slept), so fault-tolerance tests run
/// deterministically with no sleeps.
struct FaultToleranceOptions {
  /// Per-request deadline on the backend fan-out, in wall-clock
  /// milliseconds. A backend that has not answered by the deadline is
  /// abandoned (its task is cancelled) and reported as a warning.
  /// <= 0 disables the deadline. Stall faults require a deadline: an
  /// abandoned stall is how they resolve.
  double request_deadline_ms = 0.0;
  /// Retries (after the first attempt) for transient injected faults.
  int max_retries = 2;
  /// Exponential-backoff schedule between retries.
  common::BackoffPolicy backoff;
  /// Quarantine / reintegration thresholds.
  HealthPolicy health;
};

/// Options for constructing the multi-backend system.
struct MbdsOptions {
  int num_backends = 1;
  /// Every backend's engine options; `engine.disk` prices each backend's
  /// dedicated disk.
  kds::EngineOptions engine;
  BusModel bus;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  FaultToleranceOptions fault_tolerance;
};

/// Health summary of one backend, as reported by Controller::Health().
struct BackendStatus {
  int id = 0;
  BackendHealth state = BackendHealth::kHealthy;
  std::string last_fault;
  uint64_t wal_entries = 0;
  uint64_t missed_requests = 0;
  uint64_t quarantine_count = 0;
  uint64_t faults_injected = 0;
};

/// Controller-wide health summary.
struct ControllerHealth {
  /// True when any backend is not healthy (results may be partial).
  bool degraded = false;
  std::vector<BackendStatus> backends;
};

/// The MBDS backend controller (master): supervises execution of database
/// transactions across the parallel backends (Ch. I.B.2).
///
/// Record distribution: INSERTs are routed round-robin so every file's
/// records spread evenly over the backends' disks. All other requests are
/// broadcast; each backend executes against its partition *concurrently*
/// (on the controller's thread pool), and the controller merges replies in
/// backend-id order so results are deterministic regardless of completion
/// order. The simulated response time of a broadcast is the *maximum*
/// backend time (they run in parallel) plus the bus round trip — which is
/// exactly what yields the paper's two results: reciprocal response-time
/// decrease as backends are added at fixed database size, and
/// response-time invariance when backends grow with the database.
///
/// Fault tolerance. The controller write-ahead logs every mutation it
/// routes to a backend into that backend's log *before* dispatching it, so
/// each backend's log always holds exactly the mutations its partition
/// should contain. When a backend fails — an injected crash, a transient
/// fault that outlives its retry budget, or a missed deadline — it is
/// quarantined: excluded from fan-out, its share of every retrieve
/// reported as a structured PartialResultWarning, and mutations it misses
/// still appended to its log as catch-up. After it has sat out
/// `reintegrate_after` requests the controller reintegrates it: repairs
/// any torn log tail, rebuilds a fresh engine from the backend's last
/// checkpoint plus a full log replay, and swaps it in — the rebuilt
/// partition is exactly what an always-healthy backend would hold
/// (rebuilding from scratch also makes an ambiguous "did the timed-out
/// mutation apply?" harmless: replay applies it exactly once).
///
/// Thread safety: the controller may be driven by many client threads at
/// once. `backends_` is immutable after construction (backends are never
/// added or removed), each kds::Engine serializes internally, and the
/// controller's own mutable state (`insert_cursor_`, `total_response_ms_`,
/// per-backend `busy_ms_`) is atomic. Const accessors (FileSize,
/// TotalBlocks, backend(), HasFile) therefore need no controller-level
/// lock: they read the immutable vector and locked/atomic state only.
/// Reintegration assumes no client thread is mid-fan-out on the rejoining
/// backend — guaranteed in practice because a backend only becomes due
/// after sitting out `reintegrate_after` whole requests.
class Controller {
 public:
  explicit Controller(MbdsOptions options);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  int num_backends() const { return static_cast<int>(backends_.size()); }

  /// Broadcasts the database definition to every available backend.
  Status DefineDatabase(const abdm::DatabaseDescriptor& db);

  /// Broadcasts one file definition to every available backend.
  Status DefineFile(const abdm::FileDescriptor& descriptor);

  /// Broadcasts a secondary-index build to every available backend,
  /// logging "INDEX <file> <attr>" to each backend's WAL first (catch-up
  /// for quarantined ones), so a rebuilt backend recreates the index.
  Status CreateIndex(std::string_view file, std::string_view attr);

  bool HasFile(std::string_view file) const;

  /// Executes one ABDL request across the backends.
  Result<ExecutionReport> Execute(const abdl::Request& request);

  /// Executes a transaction through the dependency-aware pipeline:
  /// statements whose file footprints are disjoint (no write-write,
  /// write-read, or read-write overlap) run concurrently on the thread
  /// pool; a statement conflicting with an earlier one starts only after
  /// that statement's stage completes, so conflicting statements always
  /// observe program order. Reports merge in statement order and the
  /// simulated time sums the stages (each stage costs its slowest
  /// statement), so results and times are deterministic.
  Result<ExecutionReport> ExecuteTransaction(const abdl::Transaction& txn);

  /// Total live records of `file` across all available backends (a
  /// quarantined backend's partition is unavailable until it rejoins).
  size_t FileSize(std::string_view file) const;

  /// Total allocated blocks across all available backends.
  uint64_t TotalBlocks() const;

  /// Cumulative simulated response time of every executed request.
  double total_response_time_ms() const {
    return total_response_ms_.load(std::memory_order_relaxed);
  }
  void ResetTiming();

  /// Sets every backend engine's disk-latency scale (see
  /// kds::Engine::set_latency_scale). Backends wait concurrently on the
  /// fan-out pool, so a broadcast's wall clock follows its slowest
  /// backend's disk, not the sum. A backend rebuilt by reintegration keeps
  /// the scale.
  void set_latency_scale(double scale) {
    for (auto& backend : backends_) backend->set_latency_scale(scale);
  }

  const Backend& backend(int i) const { return *backends_[i]; }
  Backend& mutable_backend(int i) { return *backends_[i]; }

  /// Arms backend `i`'s fault injector. Convenience for tests and the
  /// fault benchmarks; equivalent to mutable_backend(i).injector().Arm().
  void InjectFault(int i, FaultPlan plan) { backends_[i]->injector().Arm(plan); }

  /// Checkpoints every backend: snapshots each partition and truncates its
  /// log, bounding replay time on the next reintegration. The caller must
  /// quiesce the controller (no concurrent mutations).
  Status CheckpointAll();

  /// Current health of every backend.
  ControllerHealth Health() const;

  /// Scrubs every backend's on-disk pages through the checksum verify;
  /// per-file verdicts carry a "backend<i>/" prefix so one report covers
  /// the whole kernel.
  kds::IntegrityReport VerifyIntegrity() const;

  /// Every backend's counters (Backend::counters, retired engines
  /// included) plus the controller's own distributed-join strategy and
  /// re-plan counts.
  kds::KernelCounters Counters() const;

 private:
  /// One backend's share of a fault-tolerant fan-out.
  struct FanoutSlot {
    kds::Response response;
    double ms = 0.0;
    /// Simulated backoff delay spent on retries for this request.
    double backoff_ms = 0.0;
    Status status = Status::OK();
    /// The injected fault that ended the attempt chain (kNone: the
    /// request reached the engine and `status` is its genuine outcome).
    FaultKind fault = FaultKind::kNone;
    bool timed_out = false;
    int attempts = 0;
    bool done = false;
  };

  /// One unit of a fault-tolerant fan-out: run `*request` on backend
  /// `backend`.
  struct FanoutJob {
    size_t backend = 0;
    std::shared_ptr<const abdl::Request> request;
  };

  /// Shared state of one fan-out: written by pool tasks, read by the
  /// dispatching thread. Held by shared_ptr so a task abandoned at the
  /// deadline can still complete harmlessly after the dispatcher moved on.
  struct FanoutState;

  /// Runs every job concurrently on the pool, waiting at most the
  /// configured deadline. Jobs that miss the deadline are cancelled and
  /// returned with `timed_out` set. Slot k corresponds to jobs[k].
  std::vector<FanoutSlot> FanOutWithFaults(std::vector<FanoutJob> jobs);

  /// One backend's attempt chain: consult the fault injector, retry
  /// transient faults with exponential backoff, then execute on the
  /// engine. Runs on a pool thread; `cancel` is the deadline hand-brake.
  FanoutSlot AttemptOnBackend(size_t i, const abdl::Request& request,
                              Cancellation* cancel);

  /// Applies one slot's outcome to backend `i`'s health tracker and, on
  /// failure, appends a warning naming the backend to `warnings`.
  /// `mutation` marks failures fatal (the backend missed a write its log
  /// already holds, so only a rebuild can realign it).
  void ApplySlotHealth(size_t i, const FanoutSlot& slot, bool mutation,
                       std::vector<kds::PartialResultWarning>* warnings);

  /// Decides participation of backend `i` in one request. An unavailable
  /// backend is skipped: its missed-request counter advances and, for
  /// mutations, `wal_payloads` are appended to its log as catch-up (under
  /// the catch-up mutex, so the entries are never lost to a concurrent
  /// reintegration hand-off). Returns true when the backend participates.
  bool AdmitBackend(size_t i, const std::vector<std::string>& wal_payloads,
                    std::vector<kds::PartialResultWarning>* warnings);

  /// Reintegrates every quarantined backend that has sat out enough
  /// requests (see FaultToleranceOptions::health).
  void MaybeReintegrate();

  /// Rebuilds `backend`'s engine from its checkpoint + log and swaps it
  /// in. Returns true when the backend rejoined.
  bool ReintegrateBackend(Backend& backend);

  /// Runs fn(0) .. fn(tasks-1) concurrently on the pool and returns the
  /// lowest-index error (OK when all succeed), so error reporting is
  /// deterministic regardless of completion order.
  Status RunParallel(size_t tasks, const std::function<Status(size_t)>& fn);

  Result<ExecutionReport> ExecuteInsert(const abdl::InsertRequest& request);
  /// Batch INSERT: partitions the records by the placement policy into one
  /// sub-batch per backend, fans the sub-batches out concurrently, and
  /// logs each applied sub-batch as one WAL entry on its backend.
  Result<ExecutionReport> ExecuteBatchInsert(
      const abdl::BatchInsertRequest& request);
  Result<ExecutionReport> ExecuteBroadcast(const abdl::Request& request);
  /// RETRIEVE-COMMON: both sides broadcast as plain retrieves, with the
  /// join performed at the controller so cross-partition pairs survive.
  Result<ExecutionReport> ExecuteDistributedJoin(
      const abdl::RetrieveCommonRequest& request);

  /// Executes `request` on backend `i`'s engine and charges the engine's
  /// DiskModel cost to the backend's busy time. Returns the engine
  /// response and the simulated milliseconds spent.
  Result<std::pair<kds::Response, double>> RunOnBackend(
      size_t i, const abdl::Request& request);

  MbdsOptions options_;
  /// Immutable after the constructor; see the class comment.
  std::vector<std::unique_ptr<Backend>> backends_;
  /// Fan-out workers: one thread per backend. The dispatching thread does
  /// not participate in fault-tolerant fan-outs (it must stay free to
  /// enforce the deadline), so the pool alone must cover every backend.
  /// Fan-out tasks never submit further work to this pool, so its wait
  /// graph is acyclic.
  std::unique_ptr<common::ThreadPool> pool_;
  /// Statement-level workers for the transaction pipeline. Separate from
  /// `pool_` because statement tasks block on fan-outs: running both
  /// layers on one pool could park every worker in a dispatcher and
  /// deadlock the fan-out jobs they are waiting for.
  std::unique_ptr<common::ThreadPool> txn_pool_;
  std::atomic<uint64_t> insert_cursor_{0};
  std::atomic<uint64_t> request_seq_{0};
  std::atomic<double> total_response_ms_{0.0};
  /// Controller-side distributed-join strategy / re-plan counters.
  kds::AtomicStatisticsCounters stats_counters_;
};

}  // namespace mlds::mbds

#endif  // MLDS_MBDS_CONTROLLER_H_
