#include "kds/wal.h"

#include <charconv>
#include <chrono>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "abdl/parser.h"
#include "common/checksum.h"
#include "common/strings.h"
#include "kds/engine.h"
#include "kds/snapshot.h"

namespace mlds::kds {

namespace {

constexpr std::string_view kAttrSeparator = " :: ";

/// Parses a non-negative integer; npos on failure. Snapshot and WAL
/// inputs are untrusted (torn, corrupted), so no throwing conversions.
size_t ParseSize(std::string_view text) {
  size_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::string_view::npos;
  }
  return value;
}

/// Frame header for one entry; the checksum pass is the expensive part,
/// so callers compute it outside the writer lock.
std::string FrameHeader(std::string_view payload) {
  char header[48];
  std::snprintf(header, sizeof(header), "E %zu %016llx ", payload.size(),
                static_cast<unsigned long long>(WalChecksum(payload)));
  return header;
}

}  // namespace

uint64_t WalChecksum(std::string_view payload) {
  // The shared integrity primitive: the wire protocol's frame checksum
  // (common/frame.h) is this same hash over network payloads.
  return common::Fnv1a64(payload);
}

Result<abdm::ValueKind> ParseAttributeKind(std::string_view name) {
  if (name == "integer") return abdm::ValueKind::kInteger;
  if (name == "float") return abdm::ValueKind::kFloat;
  if (name == "string") return abdm::ValueKind::kString;
  if (name == "null") return abdm::ValueKind::kNull;
  return Status::ParseError("unknown attribute kind '" + std::string(name) +
                            "'");
}

std::string EncodeDefineFile(const abdm::FileDescriptor& descriptor) {
  std::string out = "DEFINE " + descriptor.name;
  for (const auto& attr : descriptor.attributes) {
    out += kAttrSeparator;
    out += attr.name;
    out += ' ';
    out += abdm::ValueKindToString(attr.kind);
    out += ' ';
    out += std::to_string(attr.max_length);
    out += ' ';
    out += attr.directory ? '1' : '0';
    out += ' ';
    out += attr.indexed ? '1' : '0';
  }
  return out;
}

Result<abdm::FileDescriptor> DecodeDefineFile(std::string_view body) {
  abdm::FileDescriptor descriptor;
  size_t piece_end = body.find(kAttrSeparator);
  descriptor.name = std::string(Trim(body.substr(0, piece_end)));
  if (descriptor.name.empty()) {
    return Status::ParseError("DEFINE entry without a file name");
  }
  while (piece_end != std::string_view::npos) {
    body.remove_prefix(piece_end + kAttrSeparator.size());
    piece_end = body.find(kAttrSeparator);
    const std::string_view whole_piece = Trim(body.substr(0, piece_end));
    // <name> <kind> <max_length> <directory> [<indexed>]; the name is
    // everything before the trailing fields. The indexed flag arrived
    // with secondary indexes, so both arities must parse — pop up to
    // four fields right-to-left and accept the four-field reading only
    // when every popped field checks out as its column.
    std::string_view piece = whole_piece;
    std::vector<std::string_view> fields;
    for (size_t cut = piece.rfind(' ');
         fields.size() < 4 && cut != std::string_view::npos;
         cut = piece.rfind(' ')) {
      fields.push_back(piece.substr(cut + 1));
      piece = Trim(piece.substr(0, cut));
    }
    bool five_fields =
        fields.size() == 4 && !piece.empty() &&
        (fields[0] == "0" || fields[0] == "1") &&
        (fields[1] == "0" || fields[1] == "1") &&
        ParseSize(fields[2]) != std::string_view::npos &&
        ParseAttributeKind(fields[3]).ok();
    if (!five_fields) {
      // Legacy form: exactly three trailing fields.
      piece = whole_piece;
      fields.clear();
      for (size_t cut = piece.rfind(' ');
           fields.size() < 3 && cut != std::string_view::npos;
           cut = piece.rfind(' ')) {
        fields.push_back(piece.substr(cut + 1));
        piece = Trim(piece.substr(0, cut));
      }
      if (fields.size() != 3 || piece.empty()) {
        return Status::ParseError("malformed DEFINE attribute '" +
                                  std::string(piece) + "'");
      }
    }
    abdm::AttributeDescriptor attr;
    attr.name = std::string(piece);
    const std::string_view kind_field = five_fields ? fields[3] : fields[2];
    const std::string_view len_field = five_fields ? fields[2] : fields[1];
    const std::string_view dir_field = five_fields ? fields[1] : fields[0];
    MLDS_ASSIGN_OR_RETURN(attr.kind, ParseAttributeKind(kind_field));
    const size_t max_length = ParseSize(len_field);
    if (max_length == std::string_view::npos) {
      return Status::ParseError("malformed DEFINE attribute length '" +
                                std::string(len_field) + "'");
    }
    attr.max_length = static_cast<int>(max_length);
    if (dir_field != "0" && dir_field != "1") {
      return Status::ParseError("malformed DEFINE directory flag '" +
                                std::string(dir_field) + "'");
    }
    attr.directory = dir_field == "1";
    attr.indexed = five_fields && fields[0] == "1";
    descriptor.attributes.push_back(std::move(attr));
  }
  return descriptor;
}

Status WalWriter::StageLocked(std::string_view header,
                              std::string_view payload, uint64_t* lsn) {
  if (crashed_) {
    return Status::Aborted("wal: engine crashed, log closed");
  }
  if (crash_armed_ && crash_plan_.entries_until_crash <= 0) {
    // The simulated crash: the combined flush in progress reaches the
    // durable medium — every frame staged ahead of this one, then a
    // prefix of this frame — and the engine dies. The torn tail is what
    // recovery's checksum framing must detect and discard; earlier
    // members of the group are fully framed and therefore durable.
    buffer_ += pending_;
    pending_.clear();
    size_t torn = std::min(crash_plan_.torn_bytes,
                           header.size() + payload.size() + 1);
    buffer_ += header.substr(0, torn);
    torn -= std::min(torn, header.size());
    buffer_ += payload.substr(0, torn);
    if (torn > payload.size()) buffer_ += '\n';
    crashed_ = true;
    durable_lsn_ = next_lsn_;
    durable_cv_.notify_all();
    return Status::Aborted("wal: simulated crash at entry boundary");
  }
  pending_ += header;
  pending_ += payload;
  pending_ += '\n';
  *lsn = ++next_lsn_;
  ++entries_;
  if (crash_armed_) --crash_plan_.entries_until_crash;
  return Status::OK();
}

Status WalWriter::WaitDurableLocked(std::unique_lock<std::mutex>& lock,
                                    uint64_t lsn) {
  while (true) {
    if (durable_lsn_ >= lsn) return Status::OK();
    if (crashed_) {
      // The crash fired after we staged but before our entry flushed: it
      // never reached the medium (the crash path flushes everything
      // staged ahead of the torn frame, and covered LSNs returned above).
      return Status::Aborted("wal: engine crashed, log closed");
    }
    if (!flush_leader_active_) {
      // Become the flush leader: optionally hold the flush open so
      // concurrent appends can join the group, then write every staged
      // frame as one combined flush and publish the new durable LSN.
      flush_leader_active_ = true;
      if (flush_latency_us_ > 0) {
        lock.unlock();
        std::this_thread::sleep_for(
            std::chrono::microseconds(flush_latency_us_));
        lock.lock();
      }
      if (!crashed_) {
        const uint64_t batch_end = next_lsn_;
        if (batch_end > durable_lsn_) {
          buffer_ += pending_;
          pending_.clear();
          const uint64_t group = batch_end - durable_lsn_;
          durable_lsn_ = batch_end;
          ++stats_.flushes;
          stats_.entries += group;
          if (group > stats_.max_group) stats_.max_group = group;
        }
      }
      flush_leader_active_ = false;
      durable_cv_.notify_all();
      continue;  // re-check: our entry is durable now unless we crashed.
    }
    durable_cv_.wait(lock, [&] {
      return durable_lsn_ >= lsn || crashed_ || !flush_leader_active_;
    });
  }
}

Status WalWriter::Append(std::string_view payload) {
  const std::string header = FrameHeader(payload);
  std::unique_lock<std::mutex> lock(mutex_);
  uint64_t lsn = 0;
  MLDS_RETURN_IF_ERROR(StageLocked(header, payload, &lsn));
  return WaitDurableLocked(lock, lsn);
}

Status WalWriter::AppendBatch(const std::vector<std::string>& payloads) {
  if (payloads.empty()) return Status::OK();
  // Checksum outside the lock: hashing the payloads is the expensive
  // part; staging under the lock is three appends per entry.
  std::vector<std::string> headers;
  headers.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    headers.push_back(FrameHeader(payload));
  }
  std::unique_lock<std::mutex> lock(mutex_);
  uint64_t last_lsn = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    MLDS_RETURN_IF_ERROR(StageLocked(headers[i], payloads[i], &last_lsn));
  }
  return WaitDurableLocked(lock, last_lsn);
}

WalWriter::GroupCommitStats WalWriter::group_commit_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void WalWriter::set_flush_latency_us(uint32_t us) {
  std::lock_guard<std::mutex> lock(mutex_);
  flush_latency_us_ = us;
}

void WalWriter::ArmCrash(WalCrashPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  crash_armed_ = true;
  crashed_ = false;
  crash_plan_ = plan;
}

bool WalWriter::crashed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return crashed_;
}

size_t WalWriter::RepairTail() {
  std::lock_guard<std::mutex> lock(mutex_);
  // The crash path flushes everything staged, so pending_ is empty here;
  // clear defensively in case of repair without a crash.
  pending_.clear();
  WalScan scan = ScanWal(buffer_);
  const size_t torn = scan.torn_bytes;
  buffer_.resize(buffer_.size() - torn);
  entries_ = scan.entries.size();
  durable_lsn_ = next_lsn_;
  crashed_ = false;
  crash_armed_ = false;
  durable_cv_.notify_all();
  return torn;
}

void WalWriter::Truncate() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffer_.clear();
  pending_.clear();
  // LSNs stay monotonic so any in-flight waiter (the caller must quiesce,
  // but be safe) observes its entry as durable rather than waiting on a
  // counter that restarted.
  durable_lsn_ = next_lsn_;
  entries_ = 0;
  durable_cv_.notify_all();
}

std::string WalWriter::contents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_;
}

uint64_t WalWriter::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

uint64_t WalWriter::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.size();
}

WalScan ScanWal(std::string_view log) {
  WalScan scan;
  size_t pos = 0;
  while (pos < log.size()) {
    const size_t entry_start = pos;
    auto torn = [&]() {
      scan.torn = true;
      scan.torn_bytes = log.size() - entry_start;
    };
    if (log[pos] != 'E' || pos + 1 >= log.size() || log[pos + 1] != ' ') {
      torn();
      break;
    }
    pos += 2;
    const size_t len_end = log.find(' ', pos);
    if (len_end == std::string_view::npos) {
      torn();
      break;
    }
    const size_t length = ParseSize(log.substr(pos, len_end - pos));
    if (length == std::string_view::npos) {
      torn();
      break;
    }
    pos = len_end + 1;
    const size_t sum_end = log.find(' ', pos);
    if (sum_end == std::string_view::npos) {
      torn();
      break;
    }
    uint64_t checksum = 0;
    {
      std::string_view hex = log.substr(pos, sum_end - pos);
      auto [ptr, ec] = std::from_chars(hex.data(), hex.data() + hex.size(),
                                       checksum, 16);
      if (ec != std::errc() || ptr != hex.data() + hex.size()) {
        torn();
        break;
      }
    }
    pos = sum_end + 1;
    if (pos + length >= log.size() || log[pos + length] != '\n') {
      // Payload (or its terminator) did not fully reach the medium.
      torn();
      break;
    }
    std::string_view payload = log.substr(pos, length);
    if (WalChecksum(payload) != checksum) {
      torn();
      break;
    }
    scan.entries.push_back({scan.entries.size(), std::string(payload)});
    pos += length + 1;
  }
  return scan;
}

Status ApplyWalPayload(std::string_view payload, Engine* engine,
                       Status* outcome) {
  if (payload.starts_with("REQUEST ")) {
    const std::string_view text = payload.substr(8);
    auto request = abdl::ParseRequest(
        text, [engine](std::string_view file, std::string_view attr) {
          return AttributeKind(engine->FindDescriptor(file), attr);
        });
    if (!request.ok()) {
      // The checksum matched, so the entry is as written: an unparseable
      // request means the log was not produced by the ABDL printer.
      return Status::ParseError("wal: unreplayable entry '" +
                                std::string(text) +
                                "': " + request.status().message());
    }
    *outcome = engine->Execute(*request).status();
  } else if (payload.starts_with("DEFINE ")) {
    MLDS_ASSIGN_OR_RETURN(abdm::FileDescriptor descriptor,
                          DecodeDefineFile(payload.substr(7)));
    *outcome = engine->DefineFile(descriptor);
  } else if (payload.starts_with("INDEX ")) {
    std::string_view body = Trim(payload.substr(6));
    const size_t space = body.find(' ');
    if (space == std::string_view::npos) {
      return Status::ParseError("wal: malformed INDEX entry");
    }
    *outcome = engine->CreateIndex(body.substr(0, space),
                                   Trim(body.substr(space + 1)));
  } else {
    return Status::ParseError("wal: unrecognized entry '" +
                              std::string(payload) + "'");
  }
  return Status::OK();
}

Result<RecoveryReport> RecoverEngine(std::istream& snapshot,
                                     std::string_view log, Engine* engine) {
  RecoveryReport report;

  // Phase 1: the checkpoint snapshot, if one exists.
  std::ostringstream snapshot_text;
  snapshot_text << snapshot.rdbuf();
  if (!Trim(snapshot_text.str()).empty()) {
    std::istringstream in(snapshot_text.str());
    MLDS_RETURN_IF_ERROR(LoadSnapshot(in, engine));
  }

  // Phase 2: replay the log's committed entries in commit order. The
  // engine's lock discipline guarantees conflicting units appear in the
  // log in their serialization order, so sequential replay reproduces it.
  WalScan scan = ScanWal(log);
  report.entries_scanned = scan.entries.size();
  report.torn_tail = scan.torn;
  report.torn_bytes = scan.torn_bytes;

  auto replay = [&](std::string_view payload) -> Status {
    Status outcome;
    MLDS_RETURN_IF_ERROR(ApplyWalPayload(payload, engine, &outcome));
    ++report.replayed;
    // Deterministic engines fail replays exactly where the original
    // execution failed; the state change (none) matches the original.
    if (!outcome.ok()) ++report.failed_replays;
    return Status::OK();
  };

  // Each open transaction's requests, as REQUEST payloads.
  std::map<uint64_t, std::vector<std::string>> open_txns;
  for (const WalEntry& entry : scan.entries) {
    std::string_view payload = entry.payload;
    if (payload.starts_with("BEGIN ")) {
      const size_t id = ParseSize(Trim(payload.substr(6)));
      if (id == std::string_view::npos) {
        return Status::ParseError("wal: malformed BEGIN entry");
      }
      open_txns[id];
    } else if (payload.starts_with("TREQUEST ")) {
      std::string_view body = payload.substr(9);
      const size_t space = body.find(' ');
      const size_t id = space == std::string_view::npos
                            ? std::string_view::npos
                            : ParseSize(body.substr(0, space));
      if (id == std::string_view::npos) {
        return Status::ParseError("wal: malformed TREQUEST entry");
      }
      auto it = open_txns.find(id);
      if (it == open_txns.end()) {
        return Status::ParseError("wal: TREQUEST outside its transaction");
      }
      it->second.push_back("REQUEST " + std::string(body.substr(space + 1)));
    } else if (payload.starts_with("COMMIT ")) {
      const size_t id = ParseSize(Trim(payload.substr(7)));
      auto it = id == std::string_view::npos ? open_txns.end()
                                             : open_txns.find(id);
      if (it == open_txns.end()) {
        return Status::ParseError("wal: COMMIT without matching BEGIN");
      }
      for (const std::string& request : it->second) {
        MLDS_RETURN_IF_ERROR(replay(request));
      }
      open_txns.erase(it);
    } else {
      MLDS_RETURN_IF_ERROR(replay(payload));
    }
  }

  // In-flight transactions (BEGIN without COMMIT at the crash point) are
  // discarded: recovery yields exactly the committed prefix.
  for (const auto& [id, requests] : open_txns) {
    report.discarded_uncommitted += requests.size();
  }
  return report;
}

Status Checkpoint(const Engine& engine, std::ostream& snapshot_out,
                  WalWriter* wal) {
  MLDS_RETURN_IF_ERROR(SaveSnapshot(engine, snapshot_out));
  // The snapshot now captures every logged mutation, so the log restarts
  // empty; recovery is (snapshot, suffix since this point).
  wal->Truncate();
  return Status::OK();
}

}  // namespace mlds::kds
