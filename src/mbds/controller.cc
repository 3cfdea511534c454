#include "mbds/controller.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <set>
#include <sstream>
#include <utility>

#include "kds/join.h"
#include "kds/planner.h"
#include "kds/snapshot.h"

namespace mlds::mbds {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Appends `warning` unless an identical one is already present (a
/// transaction can hit the same quarantined backend once per statement).
void AppendWarning(std::vector<kds::PartialResultWarning>* warnings,
                   kds::PartialResultWarning warning) {
  for (const auto& existing : *warnings) {
    if (existing == warning) return;
  }
  warnings->push_back(std::move(warning));
}

/// Merges the per-backend plans of `parts` (backend id, response) into one
/// BACKEND MERGE node, children in backend-id order, each labelled with
/// its backend id so per-backend estimated vs. actual block counts stay
/// visible side by side in the merged tree.
kds::PlanNode MergeBackendPlans(
    const std::vector<std::pair<int, const kds::Response*>>& parts) {
  kds::PlanNode root;
  root.kind = kds::PlanNodeKind::kBackendMerge;
  root.label = std::to_string(parts.size()) + " backends";
  root.executed = true;
  root.children.reserve(parts.size());
  for (const auto& [id, response] : parts) {
    if (response->plan == nullptr) continue;
    kds::PlanNode child = *response->plan;
    std::string prefix = "backend " + std::to_string(id);
    child.label = child.label.empty() ? prefix : prefix + ": " + child.label;
    root.children.push_back(std::move(child));
  }
  root.est_rows = root.SumChildren(&kds::PlanNode::est_rows);
  root.est_blocks = root.SumChildren(&kds::PlanNode::est_blocks);
  root.actual_rows = root.SumChildren(&kds::PlanNode::actual_rows);
  root.actual_blocks = root.SumChildren(&kds::PlanNode::actual_blocks);
  return root;
}

}  // namespace

/// Shared state of one fault-tolerant fan-out. Shares write their own
/// slot under `mutex`; the dispatching thread waits on `cv` up to the
/// deadline. Held by shared_ptr so a task abandoned at the deadline can
/// still complete (and be ignored) after the dispatcher moved on.
struct Controller::FanoutState {
  std::mutex mutex;
  std::condition_variable cv;
  size_t completed = 0;
  std::vector<FanoutSlot> slots;
  std::vector<std::shared_ptr<Cancellation>> tokens;
  std::vector<FanoutJob> jobs;
};

Controller::Controller(MbdsOptions options) : options_(options) {
  const int n = std::max(1, options_.num_backends);
  backends_.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Each backend models its own dedicated disk: with persistent
    // storage configured, it gets its own subdirectory of the data dir.
    kds::EngineOptions engine_options = options_.engine;
    if (!engine_options.data_dir.empty()) {
      engine_options.data_dir += "/backend" + std::to_string(i);
    }
    backends_.push_back(std::make_unique<Backend>(
        i, std::move(engine_options), options_.fault_tolerance.health));
  }
}

bool Controller::AdmitBackend(size_t i,
                              const std::vector<std::string>& wal_payloads,
                              std::vector<kds::PartialResultWarning>* warnings) {
  Backend& backend = *backends_[i];
  if (backend.available()) return true;
  // Recheck under the catch-up mutex: the skip decision and the catch-up
  // append must be atomic against a reintegration hand-off, or a mutation
  // could land in the log after the replay's final drain and be lost to
  // the rebuilt engine.
  std::lock_guard<std::mutex> lock(backend.catchup_mutex());
  if (backend.available()) return true;
  for (const std::string& payload : wal_payloads) {
    (void)backend.wal().Append(payload);
  }
  backend.health().OnQuarantinedRequest();
  if (warnings != nullptr) {
    AppendWarning(warnings,
                  kds::PartialResultWarning{
                      backend.id(),
                      std::string(BackendHealthName(backend.health().state())),
                      backend.health().last_fault()});
  }
  return false;
}

void Controller::MaybeReintegrate() {
  for (auto& backend : backends_) {
    if (backend->health().due_reintegration() &&
        backend->health().BeginReintegration()) {
      (void)ReintegrateBackend(*backend);
    }
  }
}

bool Controller::ReintegrateBackend(Backend& backend) {
  kds::WalWriter& wal = backend.wal();
  // The simulated crash may have left a torn frame at the tail; repair
  // also clears the crashed flag so catch-up appends are accepted again.
  wal.RepairTail();
  // The rebuild replays checkpoint + full log into an empty engine; any
  // page files the dead engine left behind must not be restored on top
  // of that (double-apply), so wipe the backend's storage first.
  if (!backend.engine_options().data_dir.empty()) {
    kds::WipeStorageDir(backend.engine_options().data_dir);
  }
  auto fresh = std::make_shared<kds::Engine>(backend.engine_options());
  std::string log = wal.contents();
  std::istringstream snapshot(backend.checkpoint());
  auto recovered = kds::RecoverEngine(snapshot, log, fresh.get());
  if (!recovered.ok()) {
    backend.health().FinishReintegration(false);
    return false;
  }
  size_t replayed = log.size();
  // Catch-up entries may race in while the replay runs. Drain them until
  // the log is fully applied, with the final check under the catch-up
  // mutex: the healthy transition then happens-after every append whose
  // skip decision saw this backend as unavailable.
  for (;;) {
    std::string delta;
    {
      std::lock_guard<std::mutex> lock(backend.catchup_mutex());
      if (wal.bytes() == replayed) {
        backend.ReplaceEngine(std::move(fresh));
        backend.health().FinishReintegration(true);
        return true;
      }
      delta = wal.contents().substr(replayed);
    }
    // Failures are ignored: the engine is deterministic, so a request
    // that failed when first executed fails identically on replay.
    for (const kds::WalEntry& entry : kds::ScanWal(delta).entries) {
      Status outcome;
      (void)kds::ApplyWalPayload(entry.payload, fresh.get(), &outcome);
    }
    replayed += delta.size();
  }
}

Status Controller::BroadcastDefinition(
    const std::vector<std::string>& payloads, const std::string& what,
    const std::function<Status(kds::Engine&)>& define) {
  MaybeReintegrate();
  std::vector<size_t> participants;
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (!AdmitBackend(i, payloads, nullptr)) continue;
    for (const std::string& payload : payloads) {
      (void)backends_[i]->wal().Append(payload);
    }
    participants.push_back(i);
  }
  if (participants.empty()) {
    return Status::Unavailable("no available backends to " + what);
  }
  // Every participant runs, in backend order on this thread; the
  // lowest-index error is the one reported.
  Status first = Status::OK();
  for (size_t i : participants) {
    Status status = define(backends_[i]->engine());
    if (first.ok()) first = std::move(status);
  }
  return first;
}

Status Controller::DefineDatabase(const abdm::DatabaseDescriptor& db) {
  std::vector<std::string> payloads;
  payloads.reserve(db.files.size());
  for (const auto& file : db.files) {
    payloads.push_back(kds::EncodeDefineFile(file));
  }
  return BroadcastDefinition(
      payloads, "define database '" + db.name + "'",
      [&](kds::Engine& engine) { return engine.DefineDatabase(db); });
}

Status Controller::DefineFile(const abdm::FileDescriptor& descriptor) {
  return BroadcastDefinition(
      {kds::EncodeDefineFile(descriptor)},
      "define file '" + descriptor.name + "'",
      [&](kds::Engine& engine) { return engine.DefineFile(descriptor); });
}

Status Controller::CreateIndex(std::string_view file, std::string_view attr) {
  return BroadcastDefinition(
      {"INDEX " + std::string(file) + " " + std::string(attr)},
      "index '" + std::string(file) + "." + std::string(attr) + "'",
      [&](kds::Engine& engine) { return engine.CreateIndex(file, attr); });
}

bool Controller::HasFile(std::string_view file) const {
  for (const auto& backend : backends_) {
    if (backend->available()) return backend->engine().HasFile(file);
  }
  return backends_.front()->engine().HasFile(file);
}

FileTable::Entry& FileTable::For(std::string_view file) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(file);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(file), std::make_unique<Entry>()).first;
  }
  return *it->second;
}

Result<ExecutionReport> Controller::Execute(const abdl::Request& request) {
  MaybeReintegrate();
  const auto* insert = std::get_if<abdl::InsertRequest>(&request);
  Result<ExecutionReport> result = insert != nullptr
                                       ? ExecuteInsertRequest(*insert)
                                       : ExecuteBroadcast(request);
  if (result.ok()) {
    total_response_ms_.fetch_add(result->response_time_ms,
                                 std::memory_order_relaxed);
  }
  return result;
}

Result<std::pair<kds::Response, double>> Controller::RunOnBackend(
    size_t i, const abdl::Request& request) {
  Backend& backend = *backends_[i];
  // Hold the engine for the duration: a concurrent reintegration swapping
  // in a rebuilt engine must not free the one this request runs against.
  std::shared_ptr<kds::Engine> engine = backend.SnapshotEngine();
  MLDS_ASSIGN_OR_RETURN(kds::Response resp, engine->Execute(request));
  const double ms = engine->options().disk.CostMs(resp.io);
  backend.AddBusyMs(ms);
  return std::make_pair(std::move(resp), ms);
}

Controller::FanoutSlot Controller::AttemptOnBackend(
    size_t i, const abdl::Request& request, Cancellation* cancel) {
  Backend& backend = *backends_[i];
  const FaultToleranceOptions& ft = options_.fault_tolerance;
  common::Backoff backoff(
      ft.backoff,
      request_seq_.fetch_add(1, std::memory_order_relaxed) * 1000003ull + i);
  const std::string who = "backend " + std::to_string(backend.id());

  FanoutSlot slot;
  for (int attempt = 0;; ++attempt) {
    slot.attempts = attempt + 1;
    if (cancel->cancelled()) {
      // The deadline passed before this share started; do not touch the
      // engine (an abandoned mutation must not apply late).
      slot.timed_out = true;
      slot.status =
          Status::Unavailable("deadline exceeded before " + who + " started");
      return slot;
    }
    switch (backend.injector().OnAttempt()) {
      case FaultKind::kStall:
        // A hung backend: park on the cancellation token until the
        // dispatcher's deadline abandons us. The request never executes.
        cancel->Wait();
        slot.fault = FaultKind::kStall;
        slot.timed_out = true;
        slot.status = Status::Unavailable(who + " stalled past the deadline");
        return slot;
      case FaultKind::kCrash:
        slot.fault = FaultKind::kCrash;
        slot.status = Status::Unavailable("injected crash on " + who);
        return slot;
      case FaultKind::kError: {
        if (attempt < ft.max_retries) {
          const double delay = backoff.NextDelayMs();
          slot.backoff_ms += delay;
          // Delays are charged to simulated time only, so fault-tolerance
          // tests stay deterministic and sleep-free.
          continue;
        }
        slot.fault = FaultKind::kError;
        slot.status = Status::Unavailable(
            "transient fault on " + who + " persisted through " +
            std::to_string(slot.attempts) + " attempts");
        return slot;
      }
      case FaultKind::kNone:
        break;
    }
    auto outcome = RunOnBackend(i, request);
    if (outcome.ok()) {
      slot.response = std::move(outcome->first);
      slot.ms = outcome->second;
    } else {
      // Genuine engine outcome (e.g. NotFound): a property of the
      // request, reported as-is, never retried.
      slot.status = outcome.status();
    }
    return slot;
  }
}

std::vector<Controller::FanoutSlot> Controller::FanOutWithFaults(
    std::vector<FanoutJob> jobs) {
  const size_t n = jobs.size();
  auto state = std::make_shared<FanoutState>();
  state->slots.resize(n);
  state->tokens.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    state->tokens.push_back(std::make_shared<Cancellation>());
  }
  state->jobs = std::move(jobs);
  for (size_t k = 0; k < n; ++k) {
    executor_.Submit([this, state, k]() -> std::function<void()> {
      FanoutSlot slot = AttemptOnBackend(state->jobs[k].backend,
                                         *state->jobs[k].request,
                                         state->tokens[k].get());
      return [state, k, slot = std::move(slot)]() mutable {
        std::lock_guard<std::mutex> lock(state->mutex);
        slot.done = true;
        state->slots[k] = std::move(slot);
        ++state->completed;
        state->cv.notify_all();
      };
    });
  }

  const double deadline = options_.fault_tolerance.request_deadline_ms;
  std::unique_lock<std::mutex> lock(state->mutex);
  if (deadline > 0) {
    state->cv.wait_for(lock,
                       std::chrono::duration<double, std::milli>(deadline),
                       [&] { return state->completed == n; });
  } else {
    state->cv.wait(lock, [&] { return state->completed == n; });
  }
  std::vector<FanoutSlot> out(n);
  for (size_t k = 0; k < n; ++k) {
    if (state->slots[k].done) {
      out[k] = std::move(state->slots[k]);
    } else {
      out[k].timed_out = true;
      out[k].status = Status::Unavailable(
          "backend " + std::to_string(state->jobs[k].backend) +
          " missed the " + std::to_string(deadline) + " ms deadline");
    }
  }
  lock.unlock();
  // Release stragglers (stalled or still queued); they will observe the
  // cancellation, skip the engine, and write into the abandoned state.
  for (const auto& token : state->tokens) token->Cancel();
  return out;
}

void Controller::ApplySlotHealth(
    size_t i, const FanoutSlot& slot, bool mutation,
    std::vector<kds::PartialResultWarning>* warnings) {
  Backend& backend = *backends_[i];
  const bool faulted = slot.fault != FaultKind::kNone || slot.timed_out;
  if (!faulted) {
    // A genuine engine error is a property of the request (it fails
    // identically on every backend), not of the backend's health — with
    // one exception: a Corruption status means *this* backend's storage
    // served bad bytes. That is fatal for the backend (only a rebuild
    // from checkpoint + log realigns it), and the caller sees a partial
    // result instead of an aborted request.
    if (slot.status.IsCorruption()) {
      backend.health().OnFailure(slot.status.message(), /*fatal=*/true);
      if (warnings != nullptr) {
        AppendWarning(
            warnings,
            kds::PartialResultWarning{
                backend.id(),
                std::string(BackendHealthName(backend.health().state())),
                slot.status.message()});
      }
      return;
    }
    if (slot.status.ok()) backend.health().OnSuccess();
    return;
  }
  // A crash loses the engine outright. A failed mutation leaves the
  // backend behind its own log (the entry was appended before dispatch),
  // so only a rebuild can realign it — fatal either way.
  const bool fatal = mutation || slot.fault == FaultKind::kCrash;
  backend.health().OnFailure(slot.status.message(), fatal);
  if (warnings != nullptr) {
    AppendWarning(warnings,
                  kds::PartialResultWarning{
                      backend.id(),
                      std::string(BackendHealthName(backend.health().state())),
                      slot.status.message()});
  }
}

size_t Controller::PlaceRecord() {
  // Record distribution: round-robin spreads every file evenly over the
  // disks.
  return insert_cursor_.fetch_add(1, std::memory_order_relaxed) %
         backends_.size();
}

Result<ExecutionReport> Controller::ExecuteInsertRequest(
    const abdl::InsertRequest& request) {
  if (request.guard.empty()) {
    for (const abdm::Record& record : request.records) NextKey(record, {});
    return ExecuteInsert(request.records);
  }
  // The backends get the records as the guard leaves them, and no guard.
  const abdl::InsertGuard& guard = request.guard;
  std::vector<abdm::Record> records = request.records;
  // A unique guard holds its files' locks, in name order, from the check
  // through the write.
  std::vector<std::unique_lock<std::shared_mutex>> held;
  double guard_ms = 0.0;
  if (!guard.unique.empty()) {
    std::set<std::string> names;
    for (const abdm::Record& record : records) {
      const abdm::Value file = record.GetOrNull(abdm::kFileAttribute);
      if (file.is_string()) names.insert(file.AsString());
    }
    for (const std::string& name : names) {
      held.emplace_back(files_.For(name).lock);
    }
    MLDS_RETURN_IF_ERROR(CheckGuard(guard, records, &guard_ms));
  }
  std::vector<std::string> keys;
  for (abdm::Record& record : records) {
    std::string key = NextKey(record, guard.key_attribute);
    if (key.empty()) continue;
    record.Set(guard.key_attribute, abdm::Value::String(key));
    keys.push_back(std::move(key));
  }
  Result<ExecutionReport> report = ExecuteInsert(std::move(records));
  if (report.ok()) {
    report->response.keys = std::move(keys);
    report->response_time_ms += guard_ms;
  }
  return report;
}

Status Controller::CheckGuard(const abdl::InsertGuard& guard,
                              std::span<const abdm::Record> records,
                              double* sim_ms) {
  kds::RepeatCheck earlier;
  std::vector<abdm::Conjunction> probes;
  for (const abdm::Record& record : records) {
    const abdm::Value* file = record.Find(abdm::kFileAttribute);
    if (file == nullptr || !file->is_string()) continue;
    const kds::Combination combination =
        kds::GuardCombination(guard, file->AsString(), record);
    if (!combination.checked()) continue;
    if (earlier.Repeats(combination)) {
      return kds::UniqueViolation(file->AsString(), guard);
    }
    std::vector<abdm::Predicate> preds = {abdm::FilePred(file->AsString())};
    for (abdm::Predicate& eq : kds::Equalities(guard, combination)) {
      preds.push_back(std::move(eq));
    }
    probes.push_back(abdm::Conjunction{std::move(preds)});
  }
  if (probes.empty()) return Status::OK();
  MLDS_ASSIGN_OR_RETURN(
      ExecutionReport found,
      ExecuteBroadcast(abdl::RetrieveAttribute(
          abdm::Query(std::move(probes)), std::string(abdm::kFileAttribute))));
  *sim_ms += found.response_time_ms;
  if (found.response.records.empty()) return Status::OK();
  return kds::UniqueViolation(
      found.response.records.front()
          .GetOrNull(abdm::kFileAttribute)
          .ToDisplayString(),
      guard);
}

std::string Controller::NextKey(const abdm::Record& record,
                                std::string_view key_attribute) {
  const abdm::Value* file = record.Find(abdm::kFileAttribute);
  if (file == nullptr || !file->is_string()) return {};
  const std::string& name = file->AsString();
  FileTable::Entry& entry = files_.For(name);
  std::lock_guard<std::mutex> lock(entry.counter_mutex);
  if (!entry.counted) {
    // Built once: past every backend's counter, and past the file's size,
    // so keys continue from the records the backends restored.
    size_t live = 0;
    for (const auto& backend : backends_) {
      std::shared_ptr<kds::Engine> engine = backend->SnapshotEngine();
      live += engine->FileSize(name);
      entry.counter.Raise(engine->NextKey(name));
    }
    entry.counter.Raise(live + 1);
    entry.counted = true;
  }
  return entry.counter.Next(name, key_attribute, record);
}

Result<ExecutionReport> Controller::ExecuteInsert(
    std::vector<abdm::Record> records) {
  const size_t n = backends_.size();
  if (records.empty()) {
    return Status::InvalidArgument("INSERT carries no records");
  }
  // Round-robin placement, one sub-request per backend: consecutive
  // records land on consecutive backends — exactly the partitions the
  // records would form inserted one by one, so the broadcast read path is
  // oblivious to how they arrived. Each backend then pays one request and
  // one WAL entry for its whole share instead of one per record.
  std::vector<abdl::InsertRequest> parts(n);
  for (abdm::Record& record : records) {
    parts[PlaceRecord()].records.push_back(std::move(record));
  }

  struct PendingPart {
    size_t target = 0;  ///< placed backend
    size_t tried = 0;   ///< failover offset from the placed backend
    std::shared_ptr<const abdl::Request> request;
    std::string payload;
  };
  std::vector<PendingPart> pending;
  for (size_t i = 0; i < n; ++i) {
    if (parts[i].records.empty()) continue;
    PendingPart part;
    part.target = i;
    part.request = std::make_shared<const abdl::Request>(
        abdl::Request(std::move(parts[i])));
    part.payload = "REQUEST " + abdl::ToString(*part.request);
    pending.push_back(std::move(part));
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<kds::PartialResultWarning> warnings;
  ExecutionReport report;
  report.backend_times_ms.assign(n, 0.0);
  double max_ms = 0.0;
  Status last_failure = Status::Unavailable("no available backends");

  // Sub-requests fan out to their backends concurrently. One whose
  // backend faults (injected faults fire before the engine touches any
  // record, so failing over cannot duplicate one) fails over whole to the
  // next available backend in the next round; the broadcast read path
  // finds the records wherever they live.
  while (!pending.empty()) {
    std::vector<FanoutJob> jobs;
    std::vector<size_t> job_part;
    std::vector<size_t> job_backend;
    for (size_t p = 0; p < pending.size(); ++p) {
      PendingPart& part = pending[p];
      size_t chosen = n;
      while (part.tried < n) {
        const size_t i = (part.target + part.tried) % n;
        if (backends_[i]->available()) {
          chosen = i;
          break;
        }
        backends_[i]->health().OnQuarantinedRequest();
        ++part.tried;
      }
      if (chosen == n) return last_failure;
      jobs.push_back({chosen, part.request});
      job_part.push_back(p);
      job_backend.push_back(chosen);
    }
    std::vector<FanoutSlot> slots = FanOutWithFaults(std::move(jobs));
    std::vector<PendingPart> next;
    for (size_t k = 0; k < slots.size(); ++k) {
      FanoutSlot& slot = slots[k];
      const size_t i = job_backend[k];
      PendingPart& part = pending[job_part[k]];
      if (slot.fault == FaultKind::kNone && !slot.timed_out) {
        if (!slot.status.ok()) return slot.status;  // genuine engine error
        // The records now belong to backend i's partition; its log — the
        // partition's source of truth for rebuilds — records them as one
        // entry. (Logging after the apply, unlike broadcasts, so a
        // failed-over insert never lingers in a dead backend's log as a
        // duplicate.)
        (void)backends_[i]->wal().Append(part.payload);
        backends_[i]->health().OnSuccess();
        const double total_ms = slot.ms + slot.backoff_ms;
        report.backend_times_ms[i] += total_ms;
        max_ms = std::max(max_ms, total_ms);
        report.response.affected += slot.response.affected;
        report.response.io += slot.response.io;
        continue;
      }
      ApplySlotHealth(i, slot, /*mutation=*/true, &warnings);
      last_failure = slot.status;
      if (slot.timed_out && slot.fault == FaultKind::kNone) {
        // A genuine timeout (not an injected stall) is ambiguous: the
        // engine may have applied the records after we gave up, and
        // re-placing them could duplicate every one, so report the
        // unknown outcome instead. The backend is quarantined; its
        // rebuild resolves the ambiguity toward "not inserted", matching
        // this error.
        return Status::Unavailable("insert outcome unknown: " +
                                   slot.status.message());
      }
      ++part.tried;
      if (part.tried >= n) return last_failure;
      next.push_back(std::move(part));
    }
    pending = std::move(next);
  }

  report.response.warnings = std::move(warnings);
  report.response_time_ms = options_.bus.RoundTripMs() + max_ms;
  report.wall_time_ms = ElapsedMs(start);
  return report;
}

Result<ExecutionReport> Controller::ExecuteBroadcast(
    const abdl::Request& request) {
  // RETRIEVE-COMMON joins records that may live on different backends, so
  // a per-backend join would silently drop cross-partition pairs. The
  // controller instead broadcasts the two halves as plain retrieves and
  // joins the merged sides itself.
  if (const auto* join = std::get_if<abdl::RetrieveCommonRequest>(&request)) {
    return ExecuteDistributedJoin(*join);
  }

  // For retrieves, backends return raw matched records (all attributes);
  // the controller applies projection / BY / aggregation to the merged
  // set, since partial per-backend aggregates would be wrong (e.g. AVG).
  const auto* retrieve = std::get_if<abdl::RetrieveRequest>(&request);
  abdl::Request broadcast = request;
  if (retrieve != nullptr) {
    abdl::RetrieveRequest raw;
    raw.query = retrieve->query;
    raw.all_attributes = true;
    // The explain flag rides the rewritten request so every backend
    // returns its annotated plan for the controller to merge.
    raw.explain = retrieve->explain;
    broadcast = raw;
  }

  const bool mutation = abdl::IsMutation(request);
  std::vector<std::string> payloads;
  if (mutation) payloads.push_back("REQUEST " + abdl::ToString(request));

  std::vector<kds::PartialResultWarning> warnings;
  std::vector<size_t> participants;
  std::vector<FanoutJob> jobs;
  auto shared_req =
      std::make_shared<const abdl::Request>(std::move(broadcast));
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (!AdmitBackend(i, payloads, &warnings)) continue;
    // Write-ahead: the mutation enters the backend's log before dispatch,
    // so the log always holds exactly what the partition should contain —
    // whether this backend applies it now or replays it after a rebuild.
    if (mutation) (void)backends_[i]->wal().Append(payloads.front());
    participants.push_back(i);
    jobs.push_back({i, shared_req});
  }
  if (participants.empty()) {
    return Status::Unavailable("no available backends (all " +
                               std::to_string(backends_.size()) +
                               " quarantined)");
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<FanoutSlot> slots = FanOutWithFaults(std::move(jobs));
  const double wall_ms = ElapsedMs(start);

  for (size_t k = 0; k < slots.size(); ++k) {
    ApplySlotHealth(participants[k], slots[k], mutation, &warnings);
  }
  // Genuine engine errors propagate in backend-id order, exactly as
  // before fault tolerance existed.
  for (const FanoutSlot& slot : slots) {
    if (slot.fault == FaultKind::kNone && !slot.timed_out &&
        !slot.status.ok()) {
      return slot.status;
    }
  }

  // Merge in backend-id order: deterministic results no matter which
  // backend finished first. Faulted backends contribute a warning, not
  // records — a partial result, never a silent truncation.
  const double deadline = options_.fault_tolerance.request_deadline_ms;
  ExecutionReport report;
  report.backend_times_ms.assign(backends_.size(), 0.0);
  std::vector<abdm::Record> merged;
  std::vector<std::pair<int, const kds::Response*>> plan_parts;
  double max_ms = 0.0;
  bool any_success = false;
  for (size_t k = 0; k < slots.size(); ++k) {
    FanoutSlot& slot = slots[k];
    const size_t i = participants[k];
    if (slot.timed_out || slot.fault != FaultKind::kNone) {
      max_ms = std::max(
          max_ms, slot.timed_out && deadline > 0 ? deadline : slot.backoff_ms);
      continue;
    }
    any_success = true;
    const double total_ms = slot.ms + slot.backoff_ms;
    report.backend_times_ms[i] = total_ms;
    max_ms = std::max(max_ms, total_ms);
    report.response.affected += slot.response.affected;
    report.response.io += slot.response.io;
    plan_parts.emplace_back(backends_[i]->id(), &slot.response);
    merged.insert(merged.end(),
                  std::make_move_iterator(slot.response.records.begin()),
                  std::make_move_iterator(slot.response.records.end()));
  }
  if (!any_success) {
    return slots.front().status;
  }
  if (retrieve != nullptr) {
    report.response.records =
        kds::PostProcessRetrieve(*retrieve, std::move(merged));
  } else {
    report.response.records = std::move(merged);
  }
  if (abdl::IsExplain(request)) {
    kds::PlanNode plan = MergeBackendPlans(plan_parts);
    if (retrieve != nullptr) {
      // Projection / BY / aggregation happened here at the controller
      // over the merged set, so its plan node sits above the merge.
      plan = kds::WrapRetrievePlan(*retrieve, std::move(plan),
                                   report.response.records.size());
    }
    report.response.plan = std::make_shared<kds::PlanNode>(std::move(plan));
  }
  report.response.warnings = std::move(warnings);
  report.response_time_ms = options_.bus.RoundTripMs() + max_ms;
  report.wall_time_ms = wall_ms;
  return report;
}

Result<ExecutionReport> Controller::ExecuteDistributedJoin(
    const abdl::RetrieveCommonRequest& request) {
  std::vector<kds::PartialResultWarning> warnings;
  std::vector<size_t> participants;
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (AdmitBackend(i, {}, &warnings)) participants.push_back(i);
  }
  if (participants.empty()) {
    return Status::Unavailable("no available backends for distributed join");
  }
  const size_t p = participants.size();

  // Pre-fan-out side estimates from every participant's planner
  // statistics: they choose the controller-side join strategy, and the
  // distinct counts of the join attributes feed the output estimate.
  kds::JoinInputs join_inputs;
  join_inputs.left_attribute = request.left_attribute;
  join_inputs.right_attribute = request.right_attribute;
  join_inputs.targets.reserve(request.targets.size());
  for (const auto& target : request.targets) {
    join_inputs.targets.push_back(target.attribute);
  }
  for (size_t i : participants) {
    std::shared_ptr<kds::Engine> engine = backends_[i]->SnapshotEngine();
    join_inputs.est_left += engine->EstimateQuery(
        request.left_query, request.left_attribute, &join_inputs.left_distinct);
    join_inputs.est_right +=
        engine->EstimateQuery(request.right_query, request.right_attribute,
                              &join_inputs.right_distinct);
  }

  // Both sides fan out as one batch of 2p concurrent single-backend
  // retrieves. Simulated time still charges the sides as consecutive
  // parallel phases (each costs its slowest backend), matching the
  // paper's two-message exchange; wall-clock overlaps everything.
  std::array<std::shared_ptr<const abdl::Request>, 2> sides;
  {
    abdl::RetrieveRequest raw;
    raw.all_attributes = true;
    raw.explain = request.explain;
    raw.query = request.left_query;
    sides[0] = std::make_shared<const abdl::Request>(raw);
    raw.query = request.right_query;
    sides[1] = std::make_shared<const abdl::Request>(raw);
  }
  std::vector<FanoutJob> jobs;
  jobs.reserve(2 * p);
  for (size_t side = 0; side < 2; ++side) {
    for (size_t k = 0; k < p; ++k) {
      jobs.push_back({participants[k], sides[side]});
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<FanoutSlot> slots = FanOutWithFaults(std::move(jobs));
  const double wall_ms = ElapsedMs(start);

  for (size_t task = 0; task < slots.size(); ++task) {
    ApplySlotHealth(participants[task % p], slots[task], /*mutation=*/false,
                    &warnings);
  }
  for (const FanoutSlot& slot : slots) {
    if (slot.fault == FaultKind::kNone && !slot.timed_out &&
        !slot.status.ok()) {
      return slot.status;
    }
  }

  const double deadline = options_.fault_tolerance.request_deadline_ms;
  ExecutionReport report;
  report.backend_times_ms.assign(backends_.size(), 0.0);
  double side_max[2] = {0.0, 0.0};
  std::vector<abdm::Record> left, right;
  std::array<std::vector<std::pair<int, const kds::Response*>>, 2> plan_parts;
  bool any_success = false;
  for (size_t task = 0; task < slots.size(); ++task) {
    FanoutSlot& slot = slots[task];
    const size_t i = participants[task % p];
    const size_t side = task / p;
    if (slot.timed_out || slot.fault != FaultKind::kNone) {
      side_max[side] = std::max(
          side_max[side],
          slot.timed_out && deadline > 0 ? deadline : slot.backoff_ms);
      continue;
    }
    any_success = true;
    const double total_ms = slot.ms + slot.backoff_ms;
    report.backend_times_ms[i] += total_ms;
    side_max[side] = std::max(side_max[side], total_ms);
    report.response.io += slot.response.io;
    plan_parts[side].emplace_back(backends_[i]->id(), &slot.response);
    std::vector<abdm::Record>& bucket = side == 0 ? left : right;
    bucket.insert(bucket.end(),
                  std::make_move_iterator(slot.response.records.begin()),
                  std::make_move_iterator(slot.response.records.end()));
  }
  if (!any_success) {
    return slots.front().status;
  }

  // Join at the controller, mirroring the kernel engine's local
  // RETRIEVE-COMMON semantics: strategy chosen from the pre-fan-out
  // estimates, re-planned adaptively when the gathered sides miss them
  // by >= 10x.
  join_inputs.left = &left;
  join_inputs.right = &right;
  kds::JoinOutcome joined = kds::ExecuteJoin(join_inputs);
  if (joined.replanned) {
    stats_counters_.replans.fetch_add(1, std::memory_order_relaxed);
  }
  auto& strategy_counter = joined.strategy == kds::JoinStrategy::kMerge
                               ? stats_counters_.merge_joins
                               : stats_counters_.hash_joins;
  strategy_counter.fetch_add(1, std::memory_order_relaxed);
  report.response.records = std::move(joined.records);
  if (request.explain) {
    kds::PlanNode join;
    join.kind = kds::PlanNodeKind::kJoin;
    join.label =
        "(" + request.left_attribute + " = " + request.right_attribute + ")";
    join.executed = true;
    join.join_strategy = joined.strategy;
    join.replanned = joined.replanned;
    join.children.push_back(MergeBackendPlans(plan_parts[0]));
    join.children.push_back(MergeBackendPlans(plan_parts[1]));
    join.est_rows = kds::EstimateJoinRows(
        join_inputs.est_left, join_inputs.est_right,
        join_inputs.left_distinct, join_inputs.right_distinct);
    join.est_blocks = join.SumChildren(&kds::PlanNode::est_blocks);
    join.est_source = join_inputs.left_distinct.has_value() &&
                              join_inputs.right_distinct.has_value()
                          ? abdm::EstimateSource::kDirectory
                          : abdm::EstimateSource::kHeuristic;
    join.actual_rows = report.response.records.size();
    join.actual_blocks = join.SumChildren(&kds::PlanNode::actual_blocks);
    report.response.plan = std::make_shared<kds::PlanNode>(std::move(join));
  }
  report.response.warnings = std::move(warnings);
  report.response_time_ms =
      2 * options_.bus.RoundTripMs() + side_max[0] + side_max[1];
  report.wall_time_ms = wall_ms;
  return report;
}

Result<ExecutionReport> Controller::ExecuteTransaction(
    const abdl::Transaction& txn) {
  // Program order, as on one engine: each statement is one Execute on
  // this thread, and the first error ends the transaction. The statements
  // run one after another, so the simulated time is their sum.
  const auto start = std::chrono::steady_clock::now();
  ExecutionReport total;
  total.backend_times_ms.assign(backends_.size(), 0.0);
  std::vector<kds::PlanNode> statement_plans;
  for (const abdl::Request& request : txn) {
    MLDS_ASSIGN_OR_RETURN(ExecutionReport report, Execute(request));
    total.response_time_ms += report.response_time_ms;
    total.response.affected += report.response.affected;
    total.response.io += report.response.io;
    for (size_t b = 0; b < report.backend_times_ms.size(); ++b) {
      total.backend_times_ms[b] += report.backend_times_ms[b];
    }
    total.response.records.insert(
        total.response.records.end(),
        std::make_move_iterator(report.response.records.begin()),
        std::make_move_iterator(report.response.records.end()));
    for (kds::PartialResultWarning& warning : report.response.warnings) {
      AppendWarning(&total.response.warnings, std::move(warning));
    }
    if (report.response.plan != nullptr) {
      statement_plans.push_back(*report.response.plan);
    }
  }
  if (!statement_plans.empty()) {
    // Explained statements of the transaction line up, in statement
    // order, under one SEQUENCE root.
    kds::PlanNode seq;
    seq.kind = kds::PlanNodeKind::kSequence;
    seq.label = std::to_string(statement_plans.size()) + " statements";
    seq.executed = true;
    seq.children = std::move(statement_plans);
    seq.est_rows = seq.SumChildren(&kds::PlanNode::est_rows);
    seq.est_blocks = seq.SumChildren(&kds::PlanNode::est_blocks);
    seq.actual_rows = seq.SumChildren(&kds::PlanNode::actual_rows);
    seq.actual_blocks = seq.SumChildren(&kds::PlanNode::actual_blocks);
    total.response.plan = std::make_shared<kds::PlanNode>(std::move(seq));
  }
  total.wall_time_ms = ElapsedMs(start);
  return total;
}

size_t Controller::FileSize(std::string_view file) const {
  size_t total = 0;
  for (const auto& backend : backends_) {
    if (!backend->available()) continue;
    total += backend->engine().FileSize(file);
  }
  return total;
}

uint64_t Controller::TotalBlocks() const {
  uint64_t total = 0;
  for (const auto& backend : backends_) {
    if (!backend->available()) continue;
    total += backend->engine().TotalBlocks();
  }
  return total;
}

Status Controller::CheckpointAll() {
  for (auto& backend : backends_) {
    // A quarantined backend's engine is stale: checkpointing it (and
    // truncating its log) would lose the catch-up entries its rebuild
    // depends on. It is checkpointed after it rejoins.
    if (!backend->available()) continue;
    std::ostringstream snapshot;
    MLDS_RETURN_IF_ERROR(kds::SaveSnapshot(backend->engine(), snapshot));
    backend->SetCheckpoint(std::move(snapshot).str());
    backend->wal().Truncate();
  }
  return Status::OK();
}

ControllerHealth Controller::Health() const {
  ControllerHealth health;
  health.backends.reserve(backends_.size());
  for (const auto& backend : backends_) {
    BackendStatus status;
    status.id = backend->id();
    status.state = backend->health().state();
    status.last_fault = backend->health().last_fault();
    status.wal_entries = backend->wal().entry_count();
    status.missed_requests = backend->health().missed_requests();
    status.quarantine_count = backend->health().quarantine_count();
    status.faults_injected = backend->injector().faults_served();
    if (status.state != BackendHealth::kHealthy) health.degraded = true;
    health.backends.push_back(std::move(status));
  }
  return health;
}

kds::IntegrityReport Controller::VerifyIntegrity() const {
  kds::IntegrityReport merged;
  for (const auto& backend : backends_) {
    kds::IntegrityReport report =
        backend->SnapshotEngine()->VerifyIntegrity();
    if (!report.clean) merged.clean = false;
    const std::string prefix =
        "backend" + std::to_string(backend->id()) + "/";
    for (auto& verdict : report.files) {
      verdict.file = prefix + verdict.file;
      merged.files.push_back(std::move(verdict));
    }
  }
  return merged;
}

kds::KernelCounters Controller::Counters() const {
  kds::KernelCounters total;
  total.statistics = stats_counters_.Snapshot();
  for (const auto& backend : backends_) total += backend->counters();
  return total;
}

void Controller::ResetTiming() {
  total_response_ms_.store(0.0, std::memory_order_relaxed);
}

}  // namespace mlds::mbds
