#ifndef MLDS_CLIENT_CLIENT_H_
#define MLDS_CLIENT_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/frame.h"
#include "common/result.h"
#include "common/status.h"
#include "kc/executor.h"
#include "server/wire.h"

namespace mlds::client {

/// Reassembles streamed result bodies from kResultChunk frames. Chunk
/// runs for different request_ids may interleave arbitrarily on one
/// connection; within one request chunks must arrive in sequence order
/// (the transport is TCP — a gap or repeat means corruption or forgery
/// and is rejected). Exposed separately from the client so hostile
/// interleavings can be fuzzed directly.
class ChunkAssembler {
 public:
  /// Folds one chunk into the body accumulating for `request_id`.
  Status OnChunk(uint32_t request_id, const wire::ResultChunk& chunk);

  /// True while a chunk run for `request_id` is open.
  bool streaming(uint32_t request_id) const {
    return streams_.find(request_id) != streams_.end();
  }

  /// Takes the assembled body and closes the run. Empty when no run is
  /// open for `request_id`.
  std::string Take(uint32_t request_id);

  size_t active_streams() const { return streams_.size(); }

 private:
  struct Partial {
    uint32_t next_seq = 0;
    std::string body;
  };
  std::unordered_map<uint32_t, Partial> streams_;
};

/// Client for the MLDS wire protocol, v2 (pipelined).
///
/// The classic API (Use / Execute / Explain / ...) is synchronous: send
/// one frame, block for its response. Underneath sits the pipelined
/// core: Submit() tags a request with a fresh request_id and returns
/// without reading, Await*() blocks until *that* response arrives,
/// parking any other responses read along the way. Several requests may
/// therefore be in flight at once — on one session (the server executes
/// them in submission order) or across sessions opened with
/// OpenSession() (the server executes those concurrently and responses
/// arrive out of order; the request_id matches them up).
///
/// Large results arrive as interleaved kResultChunk runs and are
/// reassembled transparently; Await'ing an execute whose body streamed
/// returns the concatenated bytes, identical to the inline body a small
/// result carries. set_chunk_observer() exposes chunk arrival (e.g. for
/// time-to-first-chunk measurements) without buffering differences.
///
/// Server errors come back as the Status in-process execution would
/// have returned; admission-control BUSY rejections surface as
/// kUnavailable with the structured scope/active/limit in the message.
///
/// Not thread-safe: one client per thread, or external locking.
class MldsClient {
 public:
  MldsClient() = default;
  ~MldsClient();

  MldsClient(const MldsClient&) = delete;
  MldsClient& operator=(const MldsClient&) = delete;
  MldsClient(MldsClient&& other) noexcept;
  MldsClient& operator=(MldsClient&& other) noexcept;

  /// Connects and performs the HELLO handshake, capturing the id of the
  /// connection's first session. A server at its session cap answers
  /// BUSY; that surfaces here as kUnavailable.
  Status Connect(const std::string& host, uint16_t port,
                 std::string_view client_name = "mlds-client");

  bool connected() const { return fd_ >= 0; }
  uint32_t session_id() const { return session_id_; }

  // --- synchronous API (one request in flight) ---

  /// Binds a session to a language interface over a loaded database.
  /// Languages: codasyl (alias dml) | daplex | sql | dli | abdl.
  /// `session_id` 0 means the connection's first session.
  Status Use(std::string_view language, std::string_view database,
             uint32_t session_id = 0);

  /// Executes one statement in the bound language. The result body is
  /// byte-identical to in-process execution of the same statement,
  /// whether it traveled inline or as a chunked stream.
  Result<wire::ExecuteResult> Execute(std::string_view statement,
                                      uint32_t session_id = 0);

  /// Executes with plan annotation (SQL / CODASYL-DML / ABDL only).
  Result<wire::ExecuteResult> Explain(std::string_view statement,
                                      uint32_t session_id = 0);

  /// Executes a parameterized DML template once per parameter row through
  /// the bound language's batch interface — the whole batch travels as
  /// one kBatch frame and one round trip.
  Result<wire::ExecuteResult> ExecuteBatch(
      std::string_view statement,
      const std::vector<std::vector<abdm::Value>>& rows,
      uint32_t session_id = 0);

  /// Kernel health, parsed back into the in-process structure.
  Result<kc::KernelHealth> Health();
  /// Kernel health as the serialized wire text.
  Result<std::string> HealthText();

  /// Admin: translation-cache, server, and wire-path counters.
  Result<wire::StatsReply> Stats();

  /// Admin: on-demand storage scrub — walks every on-disk page through
  /// the checksum verify and returns the per-file report text.
  Result<std::string> Verify();

  /// Admin: asks the server to drain and stop.
  Status RequestShutdown();

  /// Graceful goodbye: sends BYE, waits for the ack (draining any still
  /// in-flight responses first), closes the socket. The destructor
  /// closes without the handshake.
  Status Close();

  // --- pipelined API ---

  /// Sends one request frame tagged with a fresh request_id and returns
  /// it immediately; pair with Await/AwaitResult. `session_id` 0 means
  /// the connection's first session.
  Result<uint32_t> Submit(wire::FrameType type, std::string payload,
                          uint32_t session_id = 0);
  Result<uint32_t> SubmitExecute(std::string_view statement,
                                 uint32_t session_id = 0);
  Result<uint32_t> SubmitExplain(std::string_view statement,
                                 uint32_t session_id = 0);
  Result<uint32_t> SubmitBatch(std::string_view statement,
                               const std::vector<std::vector<abdm::Value>>& rows,
                               uint32_t session_id = 0);

  /// Blocks until the response for `request_id` arrives and returns the
  /// raw frame (kOk / kHealthReport / ...), mapping kError and kBusy to
  /// Status. Responses for other request_ids read meanwhile are parked
  /// for their own Await.
  Result<common::Frame> Await(uint32_t request_id);

  /// Await for EXECUTE/EXPLAIN submissions: decodes the ExecuteResult
  /// and, when the body streamed, splices the reassembled bytes in.
  Result<wire::ExecuteResult> AwaitResult(uint32_t request_id);

  /// Opens an additional session on this connection (multiplexing);
  /// returns its id for use as the `session_id` argument elsewhere.
  Result<uint32_t> OpenSession();
  Status CloseSession(uint32_t session_id);

  /// Observer invoked per received kResultChunk with (request_id,
  /// chunk); useful for time-to-first-chunk measurements.
  void set_chunk_observer(
      std::function<void(uint32_t, const wire::ResultChunk&)> observer) {
    chunk_observer_ = std::move(observer);
  }

 private:
  /// A response parked for a later Await: its final frame plus, for
  /// streamed results, the reassembled body.
  struct StoredReply {
    common::Frame frame;
    std::string streamed_body;
    bool streamed = false;
  };

  Result<common::Frame> RoundTrip(wire::FrameType type, std::string payload,
                                  uint32_t session_id = 0);
  /// Reads frames until `request_id`'s response is stored.
  Status ReadUntil(uint32_t request_id);
  Result<common::Frame> ReadFrame();
  Result<StoredReply> TakeReply(uint32_t request_id);
  void Drop();

  int fd_ = -1;
  uint32_t session_id_ = 0;
  uint32_t next_request_id_ = 1;
  common::FrameDecoder decoder_;
  ChunkAssembler assembler_;
  std::unordered_map<uint32_t, StoredReply> completed_;
  std::function<void(uint32_t, const wire::ResultChunk&)> chunk_observer_;
};

}  // namespace mlds::client

#endif  // MLDS_CLIENT_CLIENT_H_
