#ifndef MLDS_SERVER_WIRE_H_
#define MLDS_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "abdm/value.h"
#include "common/frame.h"
#include "common/result.h"
#include "common/status.h"
#include "kds/engine.h"

namespace mlds::wire {

/// Message types carried in the frame header's `type` byte. Requests
/// occupy the low half, responses the high half. Since protocol v2
/// clients may pipeline: several requests can be in flight on one
/// connection, responses carry the request_id they answer and may
/// arrive out of order across sessions (never within one session's
/// execution order), and a large result travels as a run of kResultChunk
/// frames closed by the kResult frame.
enum class FrameType : uint8_t {
  // --- requests ---
  kHello = 0x01,     ///< open connection + first session; payload: name.
  kUse = 0x02,       ///< bind a language + database; payload: UseRequest.
  kExecute = 0x03,   ///< run one statement; payload: statement text.
  kExplain = 0x04,   ///< run one statement in explain mode; same payload.
  kHealth = 0x05,    ///< kernel health; empty payload.
  kStats = 0x06,     ///< admin: cache/server stats; empty payload.
  kBye = 0x07,       ///< close the connection after draining; empty.
  kShutdown = 0x08,  ///< admin: drain and stop the whole server.
  kOpenSession = 0x09,   ///< open another session on this connection.
  kCloseSession = 0x0A,  ///< close the session named in the header.
  kBatch = 0x0B,         ///< bulk DML; payload: BatchRequest.
  kVerify = 0x0C,        ///< admin: scrub storage integrity; empty.

  // --- responses ---
  kOk = 0x81,           ///< payload: informational message.
  kResult = 0x82,       ///< payload: ExecuteResult (closes a chunk run).
  kError = 0x83,        ///< payload: WireError.
  kBusy = 0x84,         ///< payload: BusyReply (admission-control reject).
  kHealthReport = 0x85, ///< payload: kfs::SerializeHealth text.
  kStatsReport = 0x86,  ///< payload: StatsReply.
  kResultChunk = 0x87,  ///< payload: ResultChunk (one slice of a body).
  kVerifyReport = 0x88, ///< payload: IntegrityReport::ToText text.
};

/// True for types a client may send.
bool IsRequestType(uint8_t type);

/// A USE request: binds the session to one language interface over one
/// loaded database ("sql" over "payroll", "codasyl" over "university",
/// ...). Languages: codasyl | daplex | sql | dli | abdl.
struct UseRequest {
  std::string language;
  std::string database;
};

/// A BATCH request: one parameterized DML template (`?` markers) plus N
/// parameter rows, executed through the bound language's batch interface
/// in one round trip. Every row carries the same number of values — one
/// per `?` in the template.
struct BatchRequest {
  std::string statement;
  std::vector<std::vector<abdm::Value>> rows;
};

/// A successful EXECUTE / EXPLAIN outcome. `body` carries the result
/// rendered by the kfs formatters — byte-identical to what the same
/// statement produces in-process — so the client needs no knowledge of
/// the language's display conventions. The counters mirror the
/// availability layer's ExecutionReport: elapsed wall time plus one
/// partial-result warning per degraded backend.
struct ExecuteResult {
  std::string body;
  double elapsed_ms = 0.0;
  std::vector<kds::PartialResultWarning> warnings;
};

/// A failed request: the Status that in-process execution would return,
/// code preserved across the wire.
struct WireError {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

/// A structured admission-control rejection: the server is at its session
/// cap (`scope == "session"`) or the session's request queue is full
/// (`scope == "request"`). Clients back off instead of queueing
/// invisibly.
struct BusyReply {
  std::string scope;
  uint32_t active = 0;
  uint32_t limit = 0;
};

/// One slice of a streamed result body. A large EXECUTE reply arrives as
/// kResultChunk frames with consecutive `seq` (0, 1, ...) followed by a
/// kResult frame whose ExecuteResult carries the timing/warnings and an
/// empty body; the concatenated chunk bodies are byte-identical to the
/// buffered body. Chunk runs for different request_ids may interleave on
/// one connection — the request_id in the frame header keys reassembly.
struct ResultChunk {
  uint32_t seq = 0;
  std::string body;
};

/// The admin STATS reply: translation-cache counters, server counters,
/// the kernel's counters, and the serialized kernel health, so a remote
/// operator needs no in-process access. One table in wire.cc maps each
/// member to its `.stats` name in wire order; the codec and ToText loop
/// over it. The members stay named so callers can hold
/// `uint64_t StatsReply::*` pointers to them.
struct StatsReply {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_epoch = 0;
  uint64_t cache_size = 0;
  uint64_t sessions_accepted = 0;
  uint64_t sessions_rejected = 0;
  uint64_t requests_served = 0;
  uint64_t requests_rejected = 0;
  uint64_t bad_frames = 0;
  uint32_t sessions_active = 0;
  // --- wire-path / pipelining counters (protocol v2) ---
  uint64_t inflight_highwater = 0;   ///< max queued+running per session.
  uint64_t write_buffer_highwater = 0;  ///< max outbox bytes, any conn.
  uint64_t results_streamed = 0;     ///< bodies sent as chunk runs.
  uint64_t chunks_streamed = 0;      ///< kResultChunk frames sent.
  uint64_t backpressure_stalls = 0;  ///< times streaming paused on high-water.
  // --- storage buffer-pool counters (paged storage engine) ---
  uint64_t pool_hits = 0;             ///< page fetches served from the pool.
  uint64_t pool_misses = 0;           ///< page fetches that read the file.
  uint64_t pool_evictions = 0;        ///< frames evicted to make room.
  uint64_t pool_dirty_writebacks = 0; ///< dirty frames written on eviction.
  // --- storage integrity counters (checksummed pages, fault seam) ---
  uint64_t integrity_checksum_failures = 0;  ///< failed page verifies.
  uint64_t integrity_io_errors_injected = 0; ///< faults served by the seam.
  uint64_t integrity_io_errors_real = 0;     ///< genuine I/O failures.
  uint64_t integrity_pages_scrubbed = 0;     ///< pages walked by verifies.
  uint64_t integrity_files_rebuilt = 0;      ///< quarantine + rebuild events.
  uint64_t integrity_fsyncs = 0;             ///< durability barriers issued.
  // --- statistics & join subsystem counters ---
  uint64_t stats_histogram_builds = 0;  ///< attribute histogram (re)builds.
  uint64_t stats_replans = 0;           ///< adaptive mid-plan re-plans.
  uint64_t stats_hash_joins = 0;        ///< joins executed hash-strategy.
  uint64_t stats_merge_joins = 0;       ///< joins executed merge-strategy.
  std::string health;  ///< kfs::SerializeHealth text.

  /// Human-readable rendering ("cache.hits 12\n...") for shells.
  std::string ToText() const;
};

std::string EncodeUseRequest(const UseRequest& request);
Result<UseRequest> DecodeUseRequest(std::string_view payload);

std::string EncodeBatchRequest(const BatchRequest& request);
Result<BatchRequest> DecodeBatchRequest(std::string_view payload);

std::string EncodeExecuteResult(const ExecuteResult& result);
Result<ExecuteResult> DecodeExecuteResult(std::string_view payload);

std::string EncodeWireError(const WireError& error);
Result<WireError> DecodeWireError(std::string_view payload);
/// Rebuilds the in-process Status from a kError payload.
Status DecodeStatus(std::string_view payload);

std::string EncodeBusyReply(const BusyReply& busy);
Result<BusyReply> DecodeBusyReply(std::string_view payload);

std::string EncodeStatsReply(const StatsReply& stats);
Result<StatsReply> DecodeStatsReply(std::string_view payload);

std::string EncodeResultChunk(const ResultChunk& chunk);
Result<ResultChunk> DecodeResultChunk(std::string_view payload);

}  // namespace mlds::wire

#endif  // MLDS_SERVER_WIRE_H_
