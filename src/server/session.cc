#include "server/session.h"

#include <chrono>
#include <limits>
#include <utility>

#include "common/strings.h"

namespace mlds::server {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Stamps one interface result with its timing and decides, once for
/// every language, whether the body travels inline or streams: a body
/// over `stream_threshold` bytes streams (from its incremental renderer
/// when it has one), anything smaller is drained inline.
ExecuteOutcome Finish(Rendered rendered, Clock::time_point start,
                      size_t stream_threshold) {
  ExecuteOutcome outcome;
  const size_t bytes = rendered.stream != nullptr
                           ? rendered.stream->total_bytes()
                           : rendered.body.size();
  if (bytes > stream_threshold) {
    outcome.stream =
        rendered.stream != nullptr
            ? std::move(rendered.stream)
            : std::make_unique<kfs::StringChunkSource>(
                  std::move(rendered.body));
  } else {
    outcome.meta.body = rendered.TakeBody();
  }
  outcome.meta.warnings = std::move(rendered.warnings);
  outcome.meta.elapsed_ms = MsSince(start);
  return outcome;
}

Status NotBound() {
  return Status::InvalidArgument(
      "no language bound — send USE <language> <database> first");
}

}  // namespace

Session::Session(uint32_t id, MldsSystem* system)
    : id_(id), system_(system) {}

Status Session::Use(const wire::UseRequest& request) {
  MLDS_ASSIGN_OR_RETURN(Language language, ParseLanguage(request.language));
  // Open the new interface before tearing down the old binding, so a
  // failed USE leaves the session as it was.
  MLDS_ASSIGN_OR_RETURN(std::unique_ptr<LanguageInterface> opened,
                        system_->Open(language, request.database));
  language_ = language;
  interface_ = std::move(opened);
  return Status::OK();
}

Result<wire::ExecuteResult> Session::Execute(std::string_view statement,
                                             bool explain) {
  // An unstreamable threshold keeps every body inline.
  MLDS_ASSIGN_OR_RETURN(
      ExecuteOutcome outcome,
      ExecuteStreamed(statement, explain,
                      std::numeric_limits<size_t>::max()));
  return std::move(outcome.meta);
}

Result<ExecuteOutcome> Session::ExecuteStreamed(std::string_view statement,
                                                bool explain,
                                                size_t stream_threshold) {
  const std::string_view trimmed = Trim(statement);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty statement");
  }
  if (interface_ == nullptr) return NotBound();
  const Clock::time_point start = Clock::now();
  MLDS_ASSIGN_OR_RETURN(Rendered rendered,
                        interface_->Execute(trimmed, explain));
  return Finish(std::move(rendered), start, stream_threshold);
}

Result<wire::ExecuteResult> Session::ExecuteBatch(
    const wire::BatchRequest& request) {
  const std::string_view trimmed = Trim(request.statement);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty batch statement");
  }
  if (interface_ == nullptr) return NotBound();
  const Clock::time_point start = Clock::now();
  MLDS_ASSIGN_OR_RETURN(Rendered rendered,
                        interface_->ExecuteBatch(trimmed, request.rows));
  return Finish(std::move(rendered), start,
                std::numeric_limits<size_t>::max())
      .meta;
}

}  // namespace mlds::server
