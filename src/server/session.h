#ifndef MLDS_SERVER_SESSION_H_
#define MLDS_SERVER_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "kfs/formatter.h"
#include "mlds/language_interface.h"
#include "mlds/mlds.h"
#include "server/wire.h"

namespace mlds::server {

/// One EXECUTE outcome in streamable form. `meta` always carries the
/// timing and warnings; small results travel inline in `meta.body`
/// (stream == nullptr), large ones leave `meta.body` empty and produce
/// their bytes through `stream`. Draining the stream and concatenating
/// yields exactly the inline body — the byte-identity contract the
/// round-trip tests pin.
struct ExecuteOutcome {
  wire::ExecuteResult meta;
  std::unique_ptr<kfs::ChunkSource> stream;
};

/// One remote session: the LanguageInterface bound by its last USE, which
/// holds the session-scoped state the thesis assigns to a run unit
/// (CODASYL currency indicators and UWA, DL/I position, SQL tuple-key
/// cursor, an ABDL transaction buffer). Sessions own their interfaces, so
/// concurrent sessions never mutate shared facade state and die cleanly
/// with their connection.
///
/// Not itself thread-safe: the server drives each session from one
/// thread at a time (the one that owns its lane).
class Session {
 public:
  /// `system` must outlive the session.
  Session(uint32_t id, MldsSystem* system);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint32_t id() const { return id_; }
  Language language() const { return language_; }

  /// Binds the session to `language` over `database`, replacing any
  /// previous binding (currency/position state of the old interface is
  /// discarded, as when a run unit finishes). A failed USE leaves the
  /// session as it was.
  Status Use(const wire::UseRequest& request);

  /// Executes one statement in the bound language; the result is
  /// rendered by the kfs formatters — byte-identical to in-process
  /// execution. `explain` requests the annotated plan
  /// (LanguageInterface::Execute).
  Result<wire::ExecuteResult> Execute(std::string_view statement,
                                      bool explain);

  /// Streamable form of Execute: when the rendered body would exceed
  /// `stream_threshold` bytes, the outcome carries a ChunkSource instead
  /// of an inline body, so the server can emit it as kResultChunk frames
  /// under write-buffer backpressure. ABDL RETRIEVEs render incrementally
  /// from the record set (O(chunk) formatting memory); the other
  /// languages' formatters are not incremental, so their oversized bodies
  /// stream from an already-rendered buffer (bounding the receiver's
  /// frame sizes and the sender's write buffer, not formatter memory).
  Result<ExecuteOutcome> ExecuteStreamed(std::string_view statement,
                                         bool explain,
                                         size_t stream_threshold);

  /// Executes a BATCH request: the parameterized template runs through the
  /// bound language's batch interface once per parameter row, chunked into
  /// kernel INSERTs. For ABDL the template is a parameterized INSERT
  /// (`<attr, ?>`); inside a transaction the bound batches buffer like any
  /// other request and apply atomically at COMMIT.
  Result<wire::ExecuteResult> ExecuteBatch(const wire::BatchRequest& request);

  /// Kernel health as this session's language interface reports it.
  kc::KernelHealth Health() const { return system_->Health(); }

 private:
  const uint32_t id_;
  MldsSystem* system_;
  Language language_ = Language::kNone;
  std::unique_ptr<LanguageInterface> interface_;
};

}  // namespace mlds::server

#endif  // MLDS_SERVER_SESSION_H_
