#include "kds/engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "kds/join.h"
#include "kds/planner.h"
#include "kds/snapshot.h"
#include "kds/wal.h"

namespace mlds::kds {

namespace {

constexpr char kCleanMarker[] = "CLEAN";
constexpr char kCheckpointName[] = "checkpoint.snap";
constexpr char kQuarantineSuffix[] = ".quarantined";

/// Page-file name for a kernel file: alphanumerics pass through, every
/// other byte is %XX-escaped so distinct file names never collide.
std::string SanitizeFileName(std::string_view name) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_' || c == '-') {
      out += c;
    } else {
      out += '%';
      out += kHex[(uint8_t(c) >> 4) & 0xf];
      out += kHex[uint8_t(c) & 0xf];
    }
  }
  return out;
}

using abdl::AggregateOp;
using abdm::Record;
using abdm::Value;

/// RAII holder of one FileStore lock in either mode — the second level of
/// the engine's two-level locking scheme. Movable so a request can keep a
/// vector of them, one per touched file, acquired in file-name order.
class StoreLock {
 public:
  StoreLock(std::shared_mutex* mutex, bool exclusive)
      : mutex_(mutex), exclusive_(exclusive) {
    if (exclusive_) {
      mutex_->lock();
    } else {
      mutex_->lock_shared();
    }
  }

  StoreLock(StoreLock&& other) noexcept
      : mutex_(std::exchange(other.mutex_, nullptr)),
        exclusive_(other.exclusive_) {}
  StoreLock& operator=(StoreLock&&) = delete;
  StoreLock(const StoreLock&) = delete;
  StoreLock& operator=(const StoreLock&) = delete;

  ~StoreLock() {
    if (mutex_ == nullptr) return;
    if (exclusive_) {
      mutex_->unlock();
    } else {
      mutex_->unlock_shared();
    }
  }

 private:
  std::shared_mutex* mutex_;
  bool exclusive_;
};

/// True for the operations that mutate file contents and therefore need
/// the file lock exclusive; retrievals share it.
bool IsWriteRequest(const abdl::Request& request) {
  return std::holds_alternative<abdl::InsertRequest>(request) ||
         std::holds_alternative<abdl::BatchInsertRequest>(request) ||
         std::holds_alternative<abdl::DeleteRequest>(request) ||
         std::holds_alternative<abdl::UpdateRequest>(request);
}

/// Computes one aggregate over the values of `attribute` across `records`.
Value ComputeAggregate(const std::vector<const Record*>& records,
                       const std::string& attribute, AggregateOp op) {
  if (op == AggregateOp::kCount) {
    int64_t n = 0;
    for (const Record* r : records) {
      if (!r->GetOrNull(attribute).is_null()) ++n;
    }
    return Value::Integer(n);
  }
  bool any = false;
  double sum = 0.0;
  Value min_v, max_v;
  int64_t count = 0;
  bool all_int = true;
  for (const Record* r : records) {
    Value v = r->GetOrNull(attribute);
    if (v.is_null()) continue;
    if (!v.is_numeric()) {
      // MIN/MAX are defined for strings too.
      if (!any || v.Compare(min_v) < 0) min_v = v;
      if (!any || v.Compare(max_v) > 0) max_v = v;
      any = true;
      all_int = false;
      continue;
    }
    if (!any || v.Compare(min_v) < 0) min_v = v;
    if (!any || v.Compare(max_v) > 0) max_v = v;
    sum += v.AsFloat();
    if (!v.is_integer()) all_int = false;
    ++count;
    any = true;
  }
  if (!any) return Value::Null();
  switch (op) {
    case AggregateOp::kMin:
      return min_v;
    case AggregateOp::kMax:
      return max_v;
    case AggregateOp::kSum:
      return all_int ? Value::Integer(static_cast<int64_t>(sum))
                     : Value::Float(sum);
    case AggregateOp::kAvg:
      return count > 0 ? Value::Float(sum / count) : Value::Null();
    default:
      return Value::Null();
  }
}

/// Folds per-file plans into one node: the single file's plan as-is, or a
/// union root labelled "all files" when the query was not FILE-confined.
PlanNode MergeFilePlans(std::vector<PlanNode> plans) {
  if (plans.size() == 1) return std::move(plans.front());
  PlanNode root;
  root.kind = PlanNodeKind::kUnionOfConjunctions;
  root.label = "all files";
  root.executed = true;
  root.children = std::move(plans);
  root.est_rows = root.SumChildren(&PlanNode::est_rows);
  root.est_blocks = root.SumChildren(&PlanNode::est_blocks);
  root.actual_rows = root.SumChildren(&PlanNode::actual_rows);
  root.actual_blocks = root.SumChildren(&PlanNode::actual_blocks);
  return root;
}

}  // namespace

std::string IntegrityReport::ToText() const {
  uint64_t pages = 0, bad = 0;
  for (const auto& verdict : files) {
    pages += verdict.pages;
    bad += verdict.bad_pages;
  }
  std::string out = clean ? "integrity OK" : "integrity FAILED";
  out += ": " + std::to_string(files.size()) + " file(s), " +
         std::to_string(pages) + " page(s) scrubbed, " + std::to_string(bad) +
         " bad\n";
  for (const auto& verdict : files) {
    out += "  " + verdict.file + ": " + std::to_string(verdict.pages) +
           " page(s)";
    if (verdict.bad_pages == 0) {
      out += " OK\n";
    } else {
      out += ", " + std::to_string(verdict.bad_pages) +
             " bad: " + verdict.status.ToString() + "\n";
    }
  }
  return out;
}

PlanNode WrapRetrievePlan(const abdl::RetrieveRequest& req, PlanNode base,
                          size_t output_rows) {
  const bool has_aggregate =
      std::any_of(req.targets.begin(), req.targets.end(), [](const auto& t) {
        return t.aggregate != AggregateOp::kNone;
      });
  const bool has_projection = !req.all_attributes && !req.targets.empty();
  if (!has_aggregate && !has_projection && !req.by_attribute.has_value()) {
    return base;
  }
  PlanNode node;
  node.kind =
      has_aggregate ? PlanNodeKind::kAggregate : PlanNodeKind::kProject;
  std::string label = "(";
  if (req.all_attributes || req.targets.empty()) {
    label += "all attributes";
  } else {
    for (size_t i = 0; i < req.targets.size(); ++i) {
      if (i > 0) label += ", ";
      label += req.targets[i].ToString();
    }
  }
  label += ")";
  if (req.by_attribute.has_value()) label += " BY " + *req.by_attribute;
  node.label = std::move(label);
  node.est_rows = base.est_rows;
  node.est_blocks = base.est_blocks;
  node.executed = true;
  node.actual_rows = output_rows;
  node.actual_blocks = base.actual_blocks;
  node.children.push_back(std::move(base));
  return node;
}

std::vector<Record> PostProcessRetrieve(const abdl::RetrieveRequest& req,
                                        std::vector<Record> matched) {
  std::vector<const Record*> refs;
  refs.reserve(matched.size());
  for (const Record& r : matched) refs.push_back(&r);

  const bool has_aggregate =
      std::any_of(req.targets.begin(), req.targets.end(), [](const auto& t) {
        return t.aggregate != AggregateOp::kNone;
      });

  std::vector<Record> out;
  if (!has_aggregate) {
    if (req.by_attribute.has_value()) {
      std::stable_sort(refs.begin(), refs.end(),
                       [&](const Record* a, const Record* b) {
                         return a->GetOrNull(*req.by_attribute)
                                    .Compare(b->GetOrNull(*req.by_attribute)) <
                                0;
                       });
    }
    out.reserve(refs.size());
    for (const Record* r : refs) {
      if (req.all_attributes || req.targets.empty()) {
        out.push_back(*r);
      } else {
        Record projected;
        for (const auto& target : req.targets) {
          projected.Set(target.attribute, r->GetOrNull(target.attribute));
        }
        out.push_back(std::move(projected));
      }
    }
    return out;
  }

  std::map<Value, std::vector<const Record*>> groups;
  if (req.by_attribute.has_value()) {
    for (const Record* r : refs) {
      groups[r->GetOrNull(*req.by_attribute)].push_back(r);
    }
  } else {
    groups[Value::Null()] = refs;
  }
  for (const auto& [key, group] : groups) {
    Record agg;
    if (req.by_attribute.has_value()) agg.Set(*req.by_attribute, key);
    for (const auto& target : req.targets) {
      if (target.aggregate == AggregateOp::kNone) {
        agg.Set(target.attribute,
                group.empty() ? Value::Null()
                              : group.front()->GetOrNull(target.attribute));
      } else {
        agg.Set(target.ToString(),
                ComputeAggregate(group, target.attribute, target.aggregate));
      }
    }
    out.push_back(std::move(agg));
  }
  return out;
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      pool_(options_.pool_pages, options_.page_bytes),
      io_(options_.file_io != nullptr ? options_.file_io
                                      : FileIo::Default()) {
  if (!options_.data_dir.empty()) RestoreFromDisk();
}

Engine::~Engine() {
  const Status flushed = Flush();
  if (options_.data_dir.empty()) return;
  // A failed flush means the page files may not hold the engine's final
  // state — leave no marker and no fresh checkpoint, so the next engine
  // treats the directory as a crash and recovers from WAL + checkpoint.
  if (!flushed.ok()) return;
  // Checkpoint snapshot next to the page files: the rebuild source when
  // a later restore finds a corrupt page file. Written atomically
  // (temp + fsync + rename), so running out of space mid-write leaves
  // the previous checkpoint intact.
  std::ostringstream snap;
  if (SaveSnapshot(*this, snap).ok() &&
      io_->WriteFileAtomic(CheckpointPath(), snap.str()).ok()) {
    integrity_.fsyncs.fetch_add(1, std::memory_order_relaxed);
  }
  // The clean-shutdown marker goes last — atomically, because its mere
  // presence certifies that the page files hold the engine's final
  // state. A crash anywhere before this point leaves no marker, and the
  // next engine discards the page files in favor of WAL + checkpoint
  // recovery.
  const std::string path =
      (std::filesystem::path(options_.data_dir) / kCleanMarker).string();
  if (io_->WriteFileAtomic(path, "").ok()) {
    integrity_.fsyncs.fetch_add(1, std::memory_order_relaxed);
  }
}

void Engine::RestoreFromDisk() {
  namespace fs = std::filesystem;
  const fs::path dir(options_.data_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path marker = dir / kCleanMarker;
  if (!fs::exists(marker, ec)) {
    // No clean-shutdown marker: any page files are the stale cache of a
    // crashed run. WAL + checkpoint are the durable truth there, and
    // replaying them onto non-empty stores would double-apply — wipe.
    WipeStorageDir(options_.data_dir);
    return;
  }
  // Consume the marker: it certifies only the state it was written over.
  // Should *this* run crash, the absence tells the next run to recover.
  fs::remove(marker, ec);

  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".mpf") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::set<std::string> damaged;
  for (const auto& path : paths) {
    Status broken = Status::OK();
    auto file = PageFile::Open(path.string(), options_.page_bytes, io_,
                               &integrity_);
    std::unique_ptr<FileStore> store;
    std::vector<std::string> secondary;
    std::optional<FileStore::Meta> stats_meta;
    if (!file.ok()) {
      broken = file.status();
    } else {
      auto meta = FileStore::DecodeMeta((*file)->meta());
      if (!meta.ok()) {
        broken = meta.status();
      } else {
        secondary = meta->secondary;
        store = std::make_unique<FileStore>(
            meta->descriptor, meta->block_capacity, &pool_, std::move(*file));
        broken = store->LoadFromPages();
        if (broken.ok()) stats_meta = std::move(*meta);
      }
    }
    if (!broken.ok()) {
      // Damaged page file: quarantine it and remember its stem so the
      // checkpoint rebuild below can re-create just this kernel file.
      // The engine degrades gracefully instead of serving garbage or
      // refusing to start.
      if (restore_status_.ok()) restore_status_ = broken;
      store.reset();
      if (file.ok()) file->reset();
      QuarantinePageFile(path.string());
      damaged.insert(path.stem().string());
      continue;
    }
    // Secondary indexes built on demand live only in the metadata blob;
    // rebuild them now that the directory is loaded (uncharged, like the
    // rest of the cold start).
    for (const std::string& attr : secondary) {
      (void)store->BuildSecondaryIndex(attr, nullptr);
    }
    // Statistics restore comes after the secondary rebuild (which bumps
    // the epoch): persisted histograms adopt their persisted epoch and
    // skip the per-record rebuild cost.
    if (stats_meta.has_value()) store->RestoreStatistics(*stats_meta);
    std::string name = store->name();
    restored_unclaimed_.insert(name);
    files_.emplace(std::move(name), std::move(store));
  }
  if (!damaged.empty()) RebuildFromCheckpoint(damaged);
}

void Engine::QuarantinePageFile(const std::string& path) {
  // Replace any quarantine leftover from an earlier incident, then move
  // the damaged bytes aside; if even the rename fails, fall back to
  // removing the file so the rebuild still starts from a clean slate.
  (void)io_->Remove(path + kQuarantineSuffix);
  if (!io_->Rename(path, path + kQuarantineSuffix).ok()) {
    (void)io_->Remove(path);
  }
  (void)io_->Remove(path + ".hdr");
}

void Engine::RebuildFromCheckpoint(const std::set<std::string>& damaged) {
  auto text = io_->ReadFile(CheckpointPath());
  if (!text.ok()) return;  // no checkpoint; restore_status_ reports it
  std::istringstream in(*text);
  Status rebuilt = LoadSnapshotFiltered(
      in, this, [&](const std::string& name) {
        return damaged.count(SanitizeFileName(name)) > 0;
      });
  if (!rebuilt.ok()) {
    if (restore_status_.ok()) restore_status_ = rebuilt;
    return;
  }
  // Rebuilt files are re-attachable exactly like cleanly restored ones:
  // the schema definition that follows on startup must find them instead
  // of failing with AlreadyExists.
  uint64_t recreated = 0;
  for (const auto& [name, store] : files_) {
    if (damaged.count(SanitizeFileName(name)) == 0) continue;
    restored_unclaimed_.insert(name);
    ++recreated;
  }
  integrity_.files_rebuilt.fetch_add(recreated, std::memory_order_relaxed);
  // Every damaged file came back from the checkpoint: the restore healed
  // itself, so the engine reports the incident through the integrity
  // counters rather than a sticky restore error.
  if (recreated == damaged.size()) restore_status_ = Status::OK();
}

std::string Engine::PageFilePath(std::string_view file) const {
  return (std::filesystem::path(options_.data_dir) /
          (SanitizeFileName(file) + ".mpf"))
      .string();
}

std::string Engine::CheckpointPath() const {
  return (std::filesystem::path(options_.data_dir) / kCheckpointName)
      .string();
}

Status Engine::DefineFileLocked(const abdm::FileDescriptor& descriptor) {
  auto it = files_.find(descriptor.name);
  if (it != files_.end()) {
    auto unclaimed = restored_unclaimed_.find(descriptor.name);
    if (unclaimed != restored_unclaimed_.end() &&
        it->second->descriptor() == descriptor) {
      // Re-attach: the store was restored from its page file at startup
      // and this definition matches it exactly. Nothing is created and
      // nothing is logged — the definition that produced the page file
      // is already durable.
      restored_unclaimed_.erase(unclaimed);
      return Status::OK();
    }
    return Status::AlreadyExists("kernel file '" + descriptor.name +
                                 "' already defined");
  }
  std::unique_ptr<PageFile> file;
  if (!options_.data_dir.empty()) {
    MLDS_ASSIGN_OR_RETURN(
        file, PageFile::Open(PageFilePath(descriptor.name),
                             options_.page_bytes, io_, &integrity_));
  }
  if (WalWriter* wal = wal_.load(std::memory_order_acquire)) {
    MLDS_RETURN_IF_ERROR(wal->Append(EncodeDefineFile(descriptor)));
  }
  files_.emplace(descriptor.name,
                 std::make_unique<FileStore>(descriptor,
                                             options_.block_capacity, &pool_,
                                             std::move(file)));
  return Status::OK();
}

Status Engine::DefineDatabase(const abdm::DatabaseDescriptor& db) {
  std::unique_lock<std::shared_mutex> lock(map_mutex_);
  // All-or-nothing validation first: every file must be fresh or
  // re-attachable before any is defined.
  for (const auto& file : db.files) {
    auto it = files_.find(file.name);
    if (it != files_.end() &&
        (restored_unclaimed_.count(file.name) == 0 ||
         !(it->second->descriptor() == file))) {
      return Status::AlreadyExists("kernel file '" + file.name +
                                   "' already defined");
    }
  }
  for (const auto& file : db.files) {
    MLDS_RETURN_IF_ERROR(DefineFileLocked(file));
  }
  return Status::OK();
}

Status Engine::DefineFile(const abdm::FileDescriptor& descriptor) {
  std::unique_lock<std::shared_mutex> lock(map_mutex_);
  return DefineFileLocked(descriptor);
}

Status Engine::RemoveFile(std::string_view file) {
  std::unique_lock<std::shared_mutex> lock(map_mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("kernel file '" + std::string(file) +
                            "' not defined");
  }
  // Exclusive map lock: no request can be holding (or acquiring) this
  // store's lock, so erasing it is safe.
  const std::string path = it->second->page_file()->path();
  files_.erase(it);
  restored_unclaimed_.erase(std::string(file));
  if (!path.empty()) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    // The header sidecar journal must not outlive its page file: a later
    // file of the same name would otherwise adopt a stale header.
    std::filesystem::remove(path + ".hdr", ec);
  }
  return Status::OK();
}

Status Engine::CreateIndex(std::string_view file, std::string_view attr) {
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("kernel file '" + std::string(file) +
                            "' not defined");
  }
  if (attr.empty()) {
    return Status::InvalidArgument("CreateIndex: empty attribute name");
  }
  // Write-ahead, like every other mutation: the index declaration is
  // durable before the build, so recovery re-creates the same index set.
  if (WalWriter* wal = wal_.load(std::memory_order_acquire)) {
    MLDS_RETURN_IF_ERROR(wal->Append("INDEX " + std::string(file) + " " +
                                     std::string(attr)));
  }
  std::unique_lock<std::shared_mutex> file_lock(it->second->mutex());
  IoStats io;
  Status built = it->second->BuildSecondaryIndex(attr, &io);
  cumulative_io_.Add(io);
  InjectLatency(io);
  return built;
}

std::vector<std::string> Engine::SecondaryIndexes(std::string_view file) const {
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) return {};
  std::shared_lock<std::shared_mutex> file_lock(it->second->mutex());
  return it->second->secondary_indexes();
}

Status Engine::Flush() {
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  Status first = Status::OK();
  IoStats io;
  for (auto& [name, store] : files_) {
    std::unique_lock<std::shared_mutex> file_lock(store->mutex());
    Status flushed = store->Flush(&io);
    if (first.ok() && !flushed.ok()) first = flushed;
  }
  cumulative_io_.Add(io);
  return first;
}

void WipeStorageDir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const fs::path& path = entry.path();
    const std::string ext = path.extension().string();
    if (ext == ".mpf" || ext == ".hdr" || ext == ".quarantined" ||
        ext == ".tmp" || path.filename() == kCleanMarker ||
        path.filename() == kCheckpointName) {
      std::error_code remove_ec;
      fs::remove(path, remove_ec);
    }
  }
}

bool Engine::HasFile(std::string_view file) const {
  std::shared_lock<std::shared_mutex> lock(map_mutex_);
  return files_.find(file) != files_.end();
}

FileStore* Engine::FindFile(std::string_view file) {
  auto it = files_.find(file);
  return it == files_.end() ? nullptr : it->second.get();
}

size_t Engine::FileSize(std::string_view file) const {
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) return 0;
  std::shared_lock<std::shared_mutex> file_lock(it->second->mutex());
  return it->second->size();
}

uint64_t Engine::TotalBlocks() const {
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  uint64_t total = 0;
  // One file lock at a time: no hold-and-wait against multi-file writers.
  for (const auto& [name, store] : files_) {
    std::shared_lock<std::shared_mutex> file_lock(store->mutex());
    total += store->block_count();
  }
  return total;
}

uint64_t Engine::CompactAll() {
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  uint64_t reclaimed = 0;
  IoStats io;
  for (auto& [name, store] : files_) {
    std::unique_lock<std::shared_mutex> file_lock(store->mutex());
    // A failed compaction (read error mid-collect) leaves the store
    // untouched; the error resurfaces on the next request that reads
    // the bad page, where it carries request context.
    auto result = store->Compact(&io);
    if (result.ok()) reclaimed += *result;
  }
  cumulative_io_.Add(io);
  return reclaimed;
}

IntegrityReport Engine::VerifyIntegrity() const {
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  IntegrityReport report;
  for (const auto& [name, store] : files_) {
    std::shared_lock<std::shared_mutex> file_lock(store->mutex());
    IntegrityReport::FileVerdict verdict;
    verdict.file = name;
    const PageFile* file = store->page_file();
    std::vector<char> buf(file->page_bytes());
    const uint64_t pages = file->page_count();
    for (uint64_t page = 0; page < pages; ++page) {
      ++verdict.pages;
      integrity_.pages_scrubbed.fetch_add(1, std::memory_order_relaxed);
      Status read = file->ReadPage(page, buf.data());
      if (read.ok()) continue;
      ++verdict.bad_pages;
      if (verdict.status.ok()) verdict.status = read;
    }
    if (verdict.bad_pages > 0) report.clean = false;
    report.files.push_back(std::move(verdict));
  }
  return report;
}

void Engine::SetVerifyReads(bool verify) {
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  for (auto& [name, store] : files_) {
    std::unique_lock<std::shared_mutex> file_lock(store->mutex());
    store->page_file()->set_verify_reads(verify);
  }
}

uint64_t Engine::EstimateQuery(const abdm::Query& query, std::string_view attr,
                               std::optional<size_t>* distinct) const {
  uint64_t est = 0;
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  // Route is non-const only because callers usually go on to mutate the
  // stores; estimation reads the directory statistics under shared locks.
  auto* self = const_cast<Engine*>(this);
  for (FileStore* store : self->Route(query)) {
    std::shared_lock<std::shared_mutex> file_lock(store->mutex());
    est += store->Plan(query).est_rows;
    if (distinct != nullptr) {
      if (auto d = store->DistinctValues(attr); d.has_value()) {
        *distinct = distinct->value_or(0) + *d;
      }
    }
  }
  return est;
}

KernelCounters Engine::counters() const {
  KernelCounters c;
  c.pool = pool_.counters();
  c.integrity = integrity_.Snapshot();
  // The page layer counts every I/O failure it observes; the seam knows
  // how many of those it manufactured.
  const uint64_t observed = c.integrity.io_errors_real;
  const uint64_t injected = io_->injected_faults();
  c.integrity.io_errors_injected = injected;
  c.integrity.io_errors_real = observed > injected ? observed - injected : 0;
  c.statistics = stats_counters_.Snapshot();
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  for (const auto& [name, store] : files_) {
    std::shared_lock<std::shared_mutex> file_lock(store->mutex());
    c.statistics.histogram_builds += store->statistics().builds();
  }
  return c;
}

const abdm::FileDescriptor* Engine::FindDescriptor(
    std::string_view file) const {
  std::shared_lock<std::shared_mutex> lock(map_mutex_);
  auto it = files_.find(file);
  return it == files_.end() ? nullptr : &it->second->descriptor();
}

std::vector<std::string> Engine::FileNames() const {
  std::shared_lock<std::shared_mutex> lock(map_mutex_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, store] : files_) names.push_back(name);
  return names;
}

std::vector<FileStore*> Engine::Route(const abdm::Query& query) {
  const std::string file = query.SingleFile();
  if (!file.empty()) {
    FileStore* store = FindFile(file);
    if (store != nullptr) return {store};
    return {};
  }
  std::vector<FileStore*> all;
  all.reserve(files_.size());
  for (auto& [name, store] : files_) all.push_back(store.get());
  return all;
}

std::vector<FileStore*> Engine::TouchedStores(const abdl::Request& request) {
  struct Visitor {
    Engine* engine;
    std::vector<FileStore*> operator()(const abdl::InsertRequest& r) {
      Value file_value = r.record.GetOrNull(abdm::kFileAttribute);
      if (!file_value.is_string()) return {};
      FileStore* store = engine->FindFile(file_value.AsString());
      if (store == nullptr) return {};
      return {store};
    }
    std::vector<FileStore*> operator()(const abdl::BatchInsertRequest& r) {
      // Distinct target files in name order (the lock-acquisition order).
      std::map<std::string_view, FileStore*> by_name;
      for (const Record& record : r.records) {
        Value file_value = record.GetOrNull(abdm::kFileAttribute);
        if (!file_value.is_string()) continue;
        FileStore* store = engine->FindFile(file_value.AsString());
        if (store != nullptr) by_name.emplace(store->name(), store);
      }
      std::vector<FileStore*> out;
      out.reserve(by_name.size());
      for (auto& [name, store] : by_name) out.push_back(store);
      return out;
    }
    std::vector<FileStore*> operator()(const abdl::DeleteRequest& r) {
      return engine->Route(r.query);
    }
    std::vector<FileStore*> operator()(const abdl::UpdateRequest& r) {
      return engine->Route(r.query);
    }
    std::vector<FileStore*> operator()(const abdl::RetrieveRequest& r) {
      return engine->Route(r.query);
    }
    std::vector<FileStore*> operator()(const abdl::RetrieveCommonRequest& r) {
      // Union of both sides. Route returns subsets of the map in name
      // order, so a sorted merge preserves the lock-acquisition order.
      std::vector<FileStore*> left = engine->Route(r.left_query);
      std::vector<FileStore*> right = engine->Route(r.right_query);
      std::vector<FileStore*> merged;
      merged.reserve(left.size() + right.size());
      std::set_union(left.begin(), left.end(), right.begin(), right.end(),
                     std::back_inserter(merged),
                     [](const FileStore* a, const FileStore* b) {
                       return a->name() < b->name();
                     });
      return merged;
    }
  };
  return std::visit(Visitor{this}, request);
}

Result<Response> Engine::ExecuteLocked(const abdl::Request& request) {
  struct Visitor {
    Engine* engine;
    Result<Response> operator()(const abdl::InsertRequest& r) {
      return engine->ExecuteInsert(r);
    }
    Result<Response> operator()(const abdl::BatchInsertRequest& r) {
      return engine->ExecuteBatchInsert(r);
    }
    Result<Response> operator()(const abdl::DeleteRequest& r) {
      return engine->ExecuteDelete(r);
    }
    Result<Response> operator()(const abdl::UpdateRequest& r) {
      return engine->ExecuteUpdate(r);
    }
    Result<Response> operator()(const abdl::RetrieveRequest& r) {
      return engine->ExecuteRetrieve(r);
    }
    Result<Response> operator()(const abdl::RetrieveCommonRequest& r) {
      return engine->ExecuteRetrieveCommon(r);
    }
  };
  return std::visit(Visitor{this}, request);
}

void Engine::InjectLatency(const IoStats& io) const {
  const double scale = latency_scale_.load(std::memory_order_relaxed);
  if (scale <= 0.0) return;
  const double ms = options_.disk.CostMs(io) * scale;
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

Result<Response> Engine::Execute(const abdl::Request& request) {
  // Level 1: the map lock, shared — DDL cannot reshape the files map
  // while this request runs, so the routed FileStore pointers stay valid.
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  // Level 2: the touched files' locks, in name order; retrievals share.
  const bool exclusive = IsWriteRequest(request);
  std::vector<StoreLock> locks;
  for (FileStore* store : TouchedStores(request)) {
    locks.emplace_back(&store->mutex(), exclusive);
  }
  // Write-ahead: the mutation is durable before it is applied. Logging
  // under the file locks keeps the log's per-file order equal to the
  // apply order, which replay depends on.
  if (exclusive) {
    if (WalWriter* wal = wal_.load(std::memory_order_acquire)) {
      // Render in place: a batch entry can run to megabytes, so no
      // temporary copy between the renderer and the log.
      std::string entry = "REQUEST ";
      abdl::AppendToString(request, entry);
      MLDS_RETURN_IF_ERROR(wal->Append(entry));
    }
  }
  auto result = ExecuteLocked(request);
  if (result.ok()) {
    cumulative_io_.Add(result->io);
    InjectLatency(result->io);
  }
  return result;
}

Result<std::vector<Response>> Engine::ExecuteTransaction(
    const abdl::Transaction& txn) {
  // Locks the union of the statements' files for the whole transaction
  // (a file written by any statement is locked exclusively throughout),
  // so no other client's request interleaves with it — the counterpart
  // of the old whole-engine lock, scoped to the files actually touched.
  std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
  std::map<std::string_view, std::pair<FileStore*, bool>> plan;
  for (const auto& request : txn) {
    const bool write = IsWriteRequest(request);
    for (FileStore* store : TouchedStores(request)) {
      auto [it, inserted] = plan.try_emplace(store->name(), store, write);
      if (!inserted) it->second.second |= write;
    }
  }
  std::vector<StoreLock> locks;
  for (auto& [name, entry] : plan) {
    locks.emplace_back(&entry.first->mutex(), entry.second);
  }

  // WAL framing: BEGIN, each write statement, COMMIT. Entries of an
  // uncommitted transaction are discarded on recovery, so the body is
  // durable only at its COMMIT — which lets the whole frame set buffer
  // in memory and land in *one* AppendBatch (one mutex acquisition, one
  // coalesced flush) instead of one lock-acquire/write cycle per entry.
  // A crash tearing inside the batch leaves a COMMIT-less body that
  // recovery discards, exactly as the per-entry scheme did. COMMIT is
  // also logged when a statement fails: the logged prefix was processed,
  // and replay re-fails the failed statement deterministically,
  // reproducing the engine's no-rollback semantics.
  WalWriter* wal = wal_.load(std::memory_order_acquire);
  const bool log_txn =
      wal != nullptr &&
      std::any_of(txn.begin(), txn.end(),
                  [](const abdl::Request& r) { return IsWriteRequest(r); });
  uint64_t txn_id = 0;
  std::vector<std::string> frames;
  if (log_txn) {
    // Write-ahead discipline for a dead log: refuse the transaction up
    // front rather than applying writes a closed log will never hold.
    if (wal->crashed()) {
      return Status::Aborted("wal: engine crashed, log closed");
    }
    txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
    frames.reserve(txn.size() + 2);
    frames.push_back("BEGIN " + std::to_string(txn_id));
  }
  auto commit = [&]() -> Status {
    if (!log_txn) return Status::OK();
    frames.push_back("COMMIT " + std::to_string(txn_id));
    return wal->AppendBatch(frames);
  };

  std::vector<Response> responses;
  responses.reserve(txn.size());
  for (const auto& request : txn) {
    if (log_txn && IsWriteRequest(request)) {
      std::string entry = "TREQUEST " + std::to_string(txn_id) + " ";
      abdl::AppendToString(request, entry);
      frames.push_back(std::move(entry));
    }
    auto result = ExecuteLocked(request);
    if (!result.ok()) {
      MLDS_RETURN_IF_ERROR(commit());
      return result.status();
    }
    cumulative_io_.Add(result->io);
    InjectLatency(result->io);
    responses.push_back(std::move(*result));
  }
  MLDS_RETURN_IF_ERROR(commit());
  return responses;
}

Result<Response> Engine::ExecuteInsert(const abdl::InsertRequest& req) {
  Value file_value = req.record.GetOrNull(abdm::kFileAttribute);
  if (!file_value.is_string()) {
    return Status::InvalidArgument(
        "INSERT record must carry a <FILE, name> keyword");
  }
  FileStore* store = FindFile(file_value.AsString());
  if (store == nullptr) {
    return Status::NotFound("kernel file '" + file_value.AsString() +
                            "' not defined");
  }
  Response resp;
  MLDS_RETURN_IF_ERROR(store->Insert(req.record, &resp.io).status());
  resp.affected = 1;
  return resp;
}

Result<Response> Engine::ExecuteBatchInsert(const abdl::BatchInsertRequest& req) {
  if (req.records.empty()) {
    return Status::InvalidArgument("batch INSERT carries no records");
  }
  // Validate every record before placing any: the batch logged as one
  // WAL entry replays all-or-nothing, so it must also apply that way.
  std::vector<FileStore*> stores;
  stores.reserve(req.records.size());
  for (const Record& record : req.records) {
    Value file_value = record.GetOrNull(abdm::kFileAttribute);
    if (!file_value.is_string()) {
      return Status::InvalidArgument(
          "INSERT record must carry a <FILE, name> keyword");
    }
    FileStore* store = FindFile(file_value.AsString());
    if (store == nullptr) {
      return Status::NotFound("kernel file '" + file_value.AsString() +
                              "' not defined");
    }
    stores.push_back(store);
  }
  Response resp;
  for (size_t i = 0; i < req.records.size(); ++i) {
    MLDS_RETURN_IF_ERROR(stores[i]->Insert(req.records[i], &resp.io).status());
  }
  resp.affected = req.records.size();
  return resp;
}

Result<Response> Engine::ExecuteDelete(const abdl::DeleteRequest& req) {
  Response resp;
  std::vector<PlanNode> plans;
  for (FileStore* store : Route(req.query)) {
    PlanNode plan;
    MLDS_ASSIGN_OR_RETURN(
        const size_t deleted,
        store->Delete(req.query, &resp.io, req.explain ? &plan : nullptr));
    resp.affected += deleted;
    if (req.explain) plans.push_back(std::move(plan));
  }
  if (req.explain) {
    resp.plan = std::make_shared<PlanNode>(MergeFilePlans(std::move(plans)));
  }
  return resp;
}

Result<Response> Engine::ExecuteUpdate(const abdl::UpdateRequest& req) {
  Response resp;
  std::vector<PlanNode> plans;
  const abdl::Modifier& mod = req.modifier;
  for (FileStore* store : Route(req.query)) {
    PlanNode plan;
    MLDS_ASSIGN_OR_RETURN(
        auto rows, store->SelectRecords(req.query, &resp.io,
                                        req.explain ? &plan : nullptr));
    if (req.explain) plans.push_back(std::move(plan));
    for (auto& [id, old] : rows) {
      Record updated = std::move(old);
      switch (mod.kind) {
        case abdl::ModifierKind::kSet:
          updated.Set(mod.attribute, mod.operand);
          break;
        case abdl::ModifierKind::kAdd: {
          Value cur = updated.GetOrNull(mod.attribute);
          if (cur.is_numeric() && mod.operand.is_numeric()) {
            if (cur.is_integer() && mod.operand.is_integer()) {
              updated.Set(mod.attribute, Value::Integer(cur.AsInteger() +
                                                        mod.operand.AsInteger()));
            } else {
              updated.Set(mod.attribute,
                          Value::Float(cur.AsFloat() + mod.operand.AsFloat()));
            }
          }
          break;
        }
      }
      MLDS_RETURN_IF_ERROR(store->Replace(id, std::move(updated), &resp.io));
      ++resp.affected;
    }
  }
  if (req.explain) {
    resp.plan = std::make_shared<PlanNode>(MergeFilePlans(std::move(plans)));
  }
  return resp;
}

Result<Response> Engine::ExecuteRetrieve(const abdl::RetrieveRequest& req) {
  Response resp;
  std::vector<Record> matched;
  std::vector<PlanNode> plans;
  for (FileStore* store : Route(req.query)) {
    PlanNode plan;
    MLDS_ASSIGN_OR_RETURN(
        auto rows, store->SelectRecords(req.query, &resp.io,
                                        req.explain ? &plan : nullptr));
    for (auto& [id, record] : rows) matched.push_back(std::move(record));
    if (req.explain) plans.push_back(std::move(plan));
  }
  resp.records = PostProcessRetrieve(req, std::move(matched));
  if (req.explain) {
    resp.plan = std::make_shared<PlanNode>(WrapRetrievePlan(
        req, MergeFilePlans(std::move(plans)), resp.records.size()));
  }
  return resp;
}

Result<Response> Engine::ExecuteRetrieveCommon(
    const abdl::RetrieveCommonRequest& req) {
  Response resp;
  // Pre-execution side estimates (planner statistics, no
  // materialization) drive the join strategy choice; the join
  // attributes' distinct counts feed the output-cardinality estimate.
  JoinInputs inputs;
  inputs.left_attribute = req.left_attribute;
  inputs.right_attribute = req.right_attribute;
  inputs.targets.reserve(req.targets.size());
  for (const auto& target : req.targets) {
    inputs.targets.push_back(target.attribute);
  }
  auto estimate_side = [&](const abdm::Query& query, const std::string& attr,
                           uint64_t* est, std::optional<size_t>* distinct) {
    for (FileStore* store : Route(query)) {
      *est += store->Plan(query).est_rows;
      if (auto d = store->DistinctValues(attr); d.has_value()) {
        *distinct = distinct->value_or(0) + *d;
      }
    }
  };
  estimate_side(req.left_query, req.left_attribute, &inputs.est_left,
                &inputs.left_distinct);
  estimate_side(req.right_query, req.right_attribute, &inputs.est_right,
                &inputs.right_distinct);

  std::vector<Record> left, right;
  std::vector<PlanNode> left_plans, right_plans;
  for (FileStore* store : Route(req.left_query)) {
    PlanNode plan;
    MLDS_ASSIGN_OR_RETURN(
        auto rows, store->SelectRecords(req.left_query, &resp.io,
                                        req.explain ? &plan : nullptr));
    for (auto& [id, record] : rows) left.push_back(std::move(record));
    if (req.explain) left_plans.push_back(std::move(plan));
  }
  for (FileStore* store : Route(req.right_query)) {
    PlanNode plan;
    MLDS_ASSIGN_OR_RETURN(
        auto rows, store->SelectRecords(req.right_query, &resp.io,
                                        req.explain ? &plan : nullptr));
    for (auto& [id, record] : rows) right.push_back(std::move(record));
    if (req.explain) right_plans.push_back(std::move(plan));
  }
  inputs.left = &left;
  inputs.right = &right;
  JoinOutcome joined = ExecuteJoin(inputs);
  if (joined.replanned) {
    stats_counters_.replans.fetch_add(1, std::memory_order_relaxed);
  }
  auto& strategy_counter = joined.strategy == JoinStrategy::kMerge
                               ? stats_counters_.merge_joins
                               : stats_counters_.hash_joins;
  strategy_counter.fetch_add(1, std::memory_order_relaxed);
  resp.records = std::move(joined.records);
  if (req.explain) {
    PlanNode join;
    join.kind = PlanNodeKind::kJoin;
    join.label = "(" + req.left_attribute + " = " + req.right_attribute + ")";
    join.executed = true;
    join.join_strategy = joined.strategy;
    join.replanned = joined.replanned;
    join.children.push_back(MergeFilePlans(std::move(left_plans)));
    join.children.push_back(MergeFilePlans(std::move(right_plans)));
    join.est_rows = EstimateJoinRows(inputs.est_left, inputs.est_right,
                                     inputs.left_distinct,
                                     inputs.right_distinct);
    join.est_blocks = join.SumChildren(&PlanNode::est_blocks);
    join.est_source = inputs.left_distinct.has_value() &&
                              inputs.right_distinct.has_value()
                          ? abdm::EstimateSource::kDirectory
                          : abdm::EstimateSource::kHeuristic;
    join.actual_rows = resp.records.size();
    join.actual_blocks = join.SumChildren(&PlanNode::actual_blocks);
    resp.plan = std::make_shared<PlanNode>(std::move(join));
  }
  return resp;
}

}  // namespace mlds::kds
