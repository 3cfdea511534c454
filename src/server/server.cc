#include "server/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/socket.h"
#include "kfs/formatter.h"

namespace mlds::server {

namespace {

/// epoll user-data tags for the two non-connection fds; connections use
/// (generation << 32) | fd, and generations start at 1 so no connection
/// tag can collide with these.
constexpr uint64_t kListenTag = ~uint64_t{0};
constexpr uint64_t kEventTag = ~uint64_t{0} - 1;

uint64_t ConnectionTag(uint32_t generation, int fd) {
  return (uint64_t{generation} << 32) | static_cast<uint32_t>(fd);
}

void UpdateMax(std::atomic<uint64_t>& maximum, uint64_t value) {
  uint64_t current = maximum.load(std::memory_order_relaxed);
  while (value > current &&
         !maximum.compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

std::string OkPayload(std::string message) {
  common::PayloadWriter writer;
  writer.PutString(std::move(message));
  return writer.Take();
}

std::string ErrorPayload(const Status& status) {
  return wire::EncodeWireError(wire::WireError{status.code(),
                                               status.message()});
}

}  // namespace

MldsServer::MldsServer(MldsSystem* system, ServerOptions options)
    : system_(system),
      options_(std::move(options)),
      pool_(options_.worker_threads) {}

MldsServer::~MldsServer() { Shutdown(); }

Status MldsServer::Start() {
  if (started_.load()) return Status::InvalidArgument("server already started");
  MLDS_ASSIGN_OR_RETURN(
      int fd, common::ListenTcp(options_.host, options_.port,
                                options_.max_sessions + 16));
  listen_fd_ = fd;
  MLDS_ASSIGN_OR_RETURN(port_, common::BoundPort(listen_fd_));
  MLDS_RETURN_IF_ERROR(common::SetNonBlocking(listen_fd_));

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    return Status::Unavailable(std::string("epoll_create1: ") +
                               std::strerror(errno));
  }
  event_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (event_fd_ < 0) {
    return Status::Unavailable(std::string("eventfd: ") +
                               std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kEventTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  started_.store(true);
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void MldsServer::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posts_mutex_);
    posts_.push_back(std::move(fn));
  }
  const uint64_t one = 1;
  (void)!::write(event_fd_, &one, sizeof(one));
}

void MldsServer::DrainPosts() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(posts_mutex_);
    batch.swap(posts_);
  }
  for (std::function<void()>& fn : batch) fn();
}

void MldsServer::LoopMain() {
  std::vector<epoll_event> events(64);
  while (true) {
    if (stopping_.load()) {
      // Begin a graceful drain of every connection once, then exit when
      // nothing is live: no connections, no executing workers, and no
      // completion waiting to run.
      std::vector<ConnectionPtr> live;
      live.reserve(connections_.size());
      for (auto& entry : connections_) live.push_back(entry.second);
      for (const ConnectionPtr& conn : live) {
        if (!conn->closed && !conn->draining) {
          conn->draining = true;
          MaybeFinishDrain(conn);
        }
      }
      bool posts_pending;
      {
        std::lock_guard<std::mutex> lock(posts_mutex_);
        posts_pending = !posts_.empty();
      }
      if (connections_.empty() && active_workers_.load() == 0 &&
          !posts_pending) {
        break;
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        HandleAccept();
        continue;
      }
      if (tag == kEventTag) {
        uint64_t value = 0;
        (void)!::read(event_fd_, &value, sizeof(value));
        DrainPosts();
        continue;
      }
      const int fd = static_cast<int>(tag & 0xFFFFFFFFu);
      const uint32_t generation = static_cast<uint32_t>(tag >> 32);
      auto it = connections_.find(fd);
      if (it == connections_.end() || it->second->generation != generation) {
        continue;  // closed (or fd reused) earlier in this batch
      }
      ConnectionPtr conn = it->second;
      const uint32_t flags = events[i].events;
      if (flags & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn);
        continue;
      }
      if ((flags & EPOLLIN) && !conn->closed) HandleReadable(conn);
      if ((flags & EPOLLOUT) && !conn->closed) ServiceWrites(conn);
    }
  }
}

void MldsServer::HandleAccept() {
  while (true) {
    Result<int> accepted = common::AcceptConnectionNonBlocking(listen_fd_);
    if (!accepted.ok()) return;  // listener shut down
    const int fd = *accepted;
    if (fd < 0) return;  // drained the pending queue
    if (stopping_.load()) {
      common::CloseSocket(fd);
      continue;
    }
    // Admission control, session dimension: past the cap the client gets
    // a structured BUSY — a rejection it can act on — not a silent queue.
    // The connection's first session opens at HELLO, so the cap is also
    // enforced there; this early check spares a doomed handshake.
    const uint32_t active = sessions_active_.load();
    if (active >= static_cast<uint32_t>(options_.max_sessions)) {
      sessions_rejected_.fetch_add(1);
      common::Frame busy;
      busy.type = static_cast<uint8_t>(wire::FrameType::kBusy);
      busy.payload = wire::EncodeBusyReply(wire::BusyReply{
          "session", active, static_cast<uint32_t>(options_.max_sessions)});
      (void)common::SendAll(fd, common::EncodeFrame(busy));
      common::ShutdownBoth(fd);
      common::CloseSocket(fd);
      continue;
    }
    if (!common::SetNonBlocking(fd).ok()) {
      common::CloseSocket(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>(options_.max_payload_bytes);
    conn->fd = fd;
    conn->generation = next_generation_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ConnectionTag(conn->generation, fd);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      common::CloseSocket(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
  }
}

void MldsServer::HandleReadable(const ConnectionPtr& conn) {
  Connection* c = conn.get();
  char buffer[16384];
  while (!c->closed && c->read_open) {
    Result<common::IoChunk> received =
        common::RecvChunk(c->fd, buffer, sizeof(buffer));
    if (!received.ok()) {
      CloseConnection(conn);
      return;
    }
    if (received->would_block) return;
    if (received->closed) {
      if (c->draining || c->finishing) {
        // Expected EOF after BYE/shutdown: stop polling for reads and
        // let the remaining responses flush.
        c->read_open = false;
        UpdateInterest(c);
        if (c->finishing && c->outbox.empty()) CloseConnection(conn);
      } else {
        // Peer vanished (possibly mid-stream): free its sessions
        // promptly; other connections are unaffected.
        CloseConnection(conn);
      }
      return;
    }
    c->decoder.Feed(std::string_view(buffer, received->bytes));
    while (!c->closed) {
      common::FrameDecoder::Decoded decoded = c->decoder.Next();
      if (decoded.event == common::FrameDecoder::Event::kNeedMore) break;
      if (decoded.event == common::FrameDecoder::Event::kError) {
        HandleDecodeError(conn);
        return;
      }
      HandleIncomingFrame(conn, std::move(decoded.frame));
    }
  }
}

void MldsServer::HandleDecodeError(const ConnectionPtr& conn) {
  Connection* c = conn.get();
  bad_frames_.fetch_add(1);
  // Hostile or corrupt bytes: answer with a structured error and drop
  // this connection; the server (and every other session) carries on. A
  // version-1 client gets the error in version-1 framing — the one
  // framing it can decode — naming the version this server speaks.
  common::Frame error;
  error.type = static_cast<uint8_t>(wire::FrameType::kError);
  if (c->decoder.rejected_version() == common::kLegacyFrameVersion) {
    error.payload = wire::EncodeWireError(wire::WireError{
        StatusCode::kInvalidArgument,
        "unsupported frame version 1 (server speaks version 2)"});
    c->outbox += common::EncodeLegacyV1Frame(error);
    UpdateMax(write_buffer_highwater_, c->outbox.size());
  } else {
    error.payload = wire::EncodeWireError(
        wire::WireError{StatusCode::kParseError, c->decoder.error()});
    AppendFrame(c, wire::FrameType::kError, 0, 0,
                std::move(error.payload));
  }
  c->read_open = false;
  c->finishing = true;
  UpdateInterest(c);
  ServiceWrites(conn);
}

MldsServer::LanePtr MldsServer::ResolveLane(Connection* conn,
                                            uint32_t session_id) {
  if (session_id == 0) {
    return conn->lanes.empty() ? nullptr : conn->lanes.begin()->second;
  }
  auto it = conn->lanes.find(session_id);
  return it == conn->lanes.end() ? nullptr : it->second;
}

MldsServer::LanePtr MldsServer::TryOpenLane(Connection* conn) {
  const uint32_t active = sessions_active_.load();
  if (active >= static_cast<uint32_t>(options_.max_sessions)) return nullptr;
  const uint32_t id = next_session_id_++;
  auto lane = std::make_shared<Lane>(id, system_);
  conn->lanes.emplace(id, lane);
  sessions_accepted_.fetch_add(1);
  sessions_active_.fetch_add(1);
  return lane;
}

void MldsServer::EraseLane(Connection* conn, uint32_t session_id) {
  auto it = conn->lanes.find(session_id);
  if (it == conn->lanes.end()) return;
  conn->lanes.erase(it);
  sessions_active_.fetch_sub(1);
}

void MldsServer::HandleIncomingFrame(const ConnectionPtr& conn,
                                     common::Frame frame) {
  Connection* c = conn.get();
  if (c->draining) return;  // frames after BYE / during shutdown drain

  const auto type = static_cast<wire::FrameType>(frame.type);
  if (!wire::IsRequestType(frame.type)) {
    bad_frames_.fetch_add(1);
    AppendFrame(c, wire::FrameType::kError, frame.session_id,
                frame.request_id,
                ErrorPayload(Status::InvalidArgument(
                    "unknown request type " + std::to_string(frame.type))));
    ServiceWrites(conn);
    return;
  }

  switch (type) {
    case wire::FrameType::kHello: {
      requests_served_.fetch_add(1);
      if (c->greeted) {
        AppendFrame(c, wire::FrameType::kError, frame.session_id,
                    frame.request_id,
                    ErrorPayload(Status::InvalidArgument(
                        "HELLO already received on this connection")));
        break;
      }
      LanePtr lane = TryOpenLane(c);
      if (lane == nullptr) {
        sessions_rejected_.fetch_add(1);
        AppendFrame(c, wire::FrameType::kBusy, 0, frame.request_id,
                    wire::EncodeBusyReply(wire::BusyReply{
                        "session", sessions_active_.load(),
                        static_cast<uint32_t>(options_.max_sessions)}));
        c->finishing = true;
        break;
      }
      c->greeted = true;
      AppendFrame(c, wire::FrameType::kOk, lane->session.id(),
                  frame.request_id, OkPayload("mlds server ready"));
      break;
    }
    case wire::FrameType::kOpenSession: {
      requests_served_.fetch_add(1);
      LanePtr lane = TryOpenLane(c);
      if (lane == nullptr) {
        sessions_rejected_.fetch_add(1);
        AppendFrame(c, wire::FrameType::kBusy, 0, frame.request_id,
                    wire::EncodeBusyReply(wire::BusyReply{
                        "session", sessions_active_.load(),
                        static_cast<uint32_t>(options_.max_sessions)}));
        break;
      }
      AppendFrame(c, wire::FrameType::kOk, lane->session.id(),
                  frame.request_id, OkPayload("session opened"));
      break;
    }
    case wire::FrameType::kBye: {
      requests_served_.fetch_add(1);
      c->draining = true;
      c->bye_pending = true;
      c->bye_session_id = frame.session_id;
      c->bye_request_id = frame.request_id;
      MaybeFinishDrain(conn);
      break;
    }
    case wire::FrameType::kShutdown: {
      // Admin frame; works with or without an open session. Routed
      // through the lane when one exists so it drains behind the
      // session's queued requests.
      LanePtr lane = ResolveLane(c, frame.session_id);
      if (lane == nullptr) {
        requests_served_.fetch_add(1);
        NoteShutdownFromWire();
        AppendFrame(c, wire::FrameType::kOk, frame.session_id,
                    frame.request_id, OkPayload("draining"));
        break;
      }
      EnqueueOnLane(conn, lane, std::move(frame));
      break;
    }
    default: {
      // Session-scoped request: USE / EXECUTE / EXPLAIN / HEALTH /
      // STATS / CLOSE_SESSION run on the session's serialized lane.
      LanePtr lane = ResolveLane(c, frame.session_id);
      if (lane == nullptr) {
        AppendFrame(c, wire::FrameType::kError, frame.session_id,
                    frame.request_id,
                    ErrorPayload(Status::InvalidArgument(
                        frame.session_id == 0
                            ? "no session open (send HELLO first)"
                            : "no session " +
                                  std::to_string(frame.session_id) +
                                  " on this connection")));
        break;
      }
      const size_t inflight =
          lane->queue.size() + ((lane->running || lane->streaming) ? 1 : 0);
      if (inflight >= options_.max_queue_depth) {
        // Admission control, request dimension: reject instead of
        // buffering an unbounded pipeline.
        requests_rejected_.fetch_add(1);
        AppendFrame(c, wire::FrameType::kBusy, lane->session.id(),
                    frame.request_id,
                    wire::EncodeBusyReply(wire::BusyReply{
                        "request", static_cast<uint32_t>(inflight),
                        static_cast<uint32_t>(options_.max_queue_depth)}));
        break;
      }
      EnqueueOnLane(conn, lane, std::move(frame));
      break;
    }
  }
  ServiceWrites(conn);
}

void MldsServer::EnqueueOnLane(const ConnectionPtr& conn, const LanePtr& lane,
                               common::Frame frame) {
  lane->queue.push_back(std::move(frame));
  UpdateMax(inflight_highwater_,
            lane->queue.size() +
                ((lane->running || lane->streaming) ? 1 : 0));
  if (!lane->running && !lane->streaming) DispatchNext(conn, lane);
}

void MldsServer::DispatchNext(const ConnectionPtr& conn, const LanePtr& lane) {
  common::Frame frame = std::move(lane->queue.front());
  lane->queue.pop_front();
  lane->running = true;
  active_workers_.fetch_add(1);
  pool_.Submit([this, conn, lane, frame = std::move(frame)] {
    auto reply = std::make_shared<PendingReply>(
        ExecuteOnWorker(lane.get(), frame));
    Post([this, conn, lane, type = frame.type, reply] {
      OnRequestDone(conn, lane, type, std::move(*reply));
    });
  });
}

MldsServer::PendingReply MldsServer::ExecuteOnWorker(
    Lane* lane, const common::Frame& frame) {
  PendingReply reply;
  reply.session_id = lane->session.id();
  reply.request_id = frame.request_id;

  auto error_reply = [&](const Status& status) {
    reply.type = static_cast<uint8_t>(wire::FrameType::kError);
    reply.payload = ErrorPayload(status);
  };
  auto ok_reply = [&](std::string message) {
    reply.type = static_cast<uint8_t>(wire::FrameType::kOk);
    reply.payload = OkPayload(std::move(message));
  };

  requests_served_.fetch_add(1);
  switch (static_cast<wire::FrameType>(frame.type)) {
    case wire::FrameType::kUse: {
      Result<wire::UseRequest> request = wire::DecodeUseRequest(frame.payload);
      if (!request.ok()) {
        error_reply(request.status());
        break;
      }
      const Status status = lane->session.Use(*request);
      if (!status.ok()) {
        error_reply(status);
        break;
      }
      ok_reply("using " +
               std::string(LanguageName(lane->session.language())) +
               " over '" + request->database + "'");
      break;
    }
    case wire::FrameType::kExecute:
    case wire::FrameType::kExplain: {
      const bool explain =
          frame.type == static_cast<uint8_t>(wire::FrameType::kExplain);
      Result<ExecuteOutcome> outcome = lane->session.ExecuteStreamed(
          frame.payload, explain, options_.stream_threshold);
      if (!outcome.ok()) {
        error_reply(outcome.status());
        break;
      }
      reply.type = static_cast<uint8_t>(wire::FrameType::kResult);
      reply.payload = wire::EncodeExecuteResult(outcome->meta);
      reply.stream = std::move(outcome->stream);
      break;
    }
    case wire::FrameType::kBatch: {
      Result<wire::BatchRequest> request =
          wire::DecodeBatchRequest(frame.payload);
      if (!request.ok()) {
        error_reply(request.status());
        break;
      }
      Result<wire::ExecuteResult> result = lane->session.ExecuteBatch(*request);
      if (!result.ok()) {
        error_reply(result.status());
        break;
      }
      reply.type = static_cast<uint8_t>(wire::FrameType::kResult);
      reply.payload = wire::EncodeExecuteResult(*result);
      break;
    }
    case wire::FrameType::kHealth: {
      reply.type = static_cast<uint8_t>(wire::FrameType::kHealthReport);
      reply.payload = kfs::SerializeHealth(lane->session.Health());
      break;
    }
    case wire::FrameType::kStats: {
      reply.type = static_cast<uint8_t>(wire::FrameType::kStatsReport);
      reply.payload = wire::EncodeStatsReply(stats());
      break;
    }
    case wire::FrameType::kVerify: {
      // Admin scrub: walk every on-disk page through the checksum
      // verify. Runs on this worker like any request; file locks are
      // held shared, so concurrent retrievals proceed.
      reply.type = static_cast<uint8_t>(wire::FrameType::kVerifyReport);
      reply.payload = system_->executor()->VerifyIntegrity().ToText();
      break;
    }
    case wire::FrameType::kCloseSession: {
      ok_reply("session closed");
      break;
    }
    case wire::FrameType::kShutdown: {
      NoteShutdownFromWire();
      ok_reply("draining");
      break;
    }
    default: {
      error_reply(Status::InvalidArgument("unknown request type " +
                                          std::to_string(frame.type)));
      break;
    }
  }
  return reply;
}

void MldsServer::OnRequestDone(const ConnectionPtr& conn, const LanePtr& lane,
                               uint8_t request_type, PendingReply reply) {
  active_workers_.fetch_sub(1);
  lane->running = false;
  Connection* c = conn.get();
  const bool close_lane =
      request_type == static_cast<uint8_t>(wire::FrameType::kCloseSession);

  if (c->closed) {
    // The socket died while this request executed; nothing to send.
    lane->queue.clear();
    EraseLane(c, lane->session.id());
    return;
  }

  if (reply.stream != nullptr) {
    results_streamed_.fetch_add(1);
    lane->streaming = true;
    StreamState stream;
    stream.session_id = reply.session_id;
    stream.request_id = reply.request_id;
    stream.source = std::move(reply.stream);
    stream.final_payload = std::move(reply.payload);
    stream.lane = lane;
    c->streams.push_back(std::move(stream));
  } else {
    AppendFrame(c, static_cast<wire::FrameType>(reply.type),
                reply.session_id, reply.request_id,
                std::move(reply.payload));
  }

  if (close_lane) {
    // Anything still queued behind the close is answered, not dropped.
    for (common::Frame& orphan : lane->queue) {
      AppendFrame(c, wire::FrameType::kError, reply.session_id,
                  orphan.request_id,
                  ErrorPayload(Status::InvalidArgument("session closed")));
    }
    lane->queue.clear();
    EraseLane(c, lane->session.id());
  } else if (!lane->streaming && !lane->queue.empty()) {
    DispatchNext(conn, lane);
  }

  ServiceWrites(conn);
}

void MldsServer::AppendFrame(Connection* conn, wire::FrameType type,
                             uint32_t session_id, uint32_t request_id,
                             std::string payload) {
  common::Frame frame;
  frame.type = static_cast<uint8_t>(type);
  frame.session_id = session_id;
  frame.request_id = request_id;
  frame.payload = std::move(payload);
  conn->outbox += common::EncodeFrame(frame);
  UpdateMax(write_buffer_highwater_, conn->outbox.size());
}

void MldsServer::PumpStreams(const ConnectionPtr& conn) {
  Connection* c = conn.get();
  while (!c->streams.empty() &&
         c->outbox.size() < options_.write_high_water) {
    StreamState& stream = c->streams.front();
    if (!stream.source->done()) {
      wire::ResultChunk chunk;
      chunk.seq = stream.seq++;
      chunk.body = stream.source->Next(options_.chunk_bytes);
      AppendFrame(c, wire::FrameType::kResultChunk, stream.session_id,
                  stream.request_id, wire::EncodeResultChunk(chunk));
      chunks_streamed_.fetch_add(1);
    }
    if (stream.source->done()) {
      // The closing kResult frame carries timing + warnings; its empty
      // body tells the client the chunk run is complete.
      AppendFrame(c, wire::FrameType::kResult, stream.session_id,
                  stream.request_id, std::move(stream.final_payload));
      LanePtr lane = std::move(stream.lane);
      c->streams.pop_front();
      lane->streaming = false;
      if (!lane->running && !lane->queue.empty()) DispatchNext(conn, lane);
    } else if (c->streams.size() > 1) {
      // Round-robin: concurrent runs on one connection interleave
      // instead of serializing behind the largest result.
      c->streams.push_back(std::move(c->streams.front()));
      c->streams.pop_front();
    }
  }
}

void MldsServer::ServiceWrites(const ConnectionPtr& conn) {
  Connection* c = conn.get();
  if (c->closed) return;
  while (true) {
    PumpStreams(conn);
    if (c->outbox.empty()) break;
    Result<common::IoChunk> sent = common::SendChunk(c->fd, c->outbox);
    if (!sent.ok()) {
      CloseConnection(conn);
      return;
    }
    c->outbox.erase(0, sent->bytes);
    if (sent->would_block) {
      // Backpressure: the kernel's socket buffer is full. Streams stop
      // pulling chunks (PumpStreams caps the outbox) until EPOLLOUT
      // says the client caught up.
      if (!c->streams.empty()) backpressure_stalls_.fetch_add(1);
      if (!c->want_write) {
        c->want_write = true;
        UpdateInterest(c);
      }
      return;
    }
    if (c->outbox.empty() && c->streams.empty()) break;
  }
  if (c->want_write) {
    c->want_write = false;
    UpdateInterest(c);
  }
  if (c->draining && !c->finishing) MaybeFinishDrain(conn);
  if (c->finishing && c->outbox.empty() && !c->closed) CloseConnection(conn);
}

void MldsServer::MaybeFinishDrain(const ConnectionPtr& conn) {
  Connection* c = conn.get();
  if (!c->draining || c->finishing || c->closed) return;
  for (const auto& entry : c->lanes) {
    const LanePtr& lane = entry.second;
    if (lane->running || lane->streaming || !lane->queue.empty()) return;
  }
  if (!c->streams.empty()) return;
  if (c->bye_pending) {
    c->bye_pending = false;
    AppendFrame(c, wire::FrameType::kOk, c->bye_session_id,
                c->bye_request_id, OkPayload("bye"));
  }
  c->finishing = true;
  // Every lane is idle here (checked above), so the sessions end now —
  // before the BYE acknowledgment flushes. A client that saw its BYE
  // confirmed must not still be counted in sessions_active while the
  // loop gets around to tearing the socket down.
  for (const auto& entry : c->lanes) {
    (void)entry;
    sessions_active_.fetch_sub(1);
  }
  c->lanes.clear();
  ServiceWrites(conn);
}

void MldsServer::CloseConnection(const ConnectionPtr& conn) {
  Connection* c = conn.get();
  if (c->closed) return;
  c->closed = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  common::ShutdownBoth(c->fd);
  common::CloseSocket(c->fd);
  connections_.erase(c->fd);
  c->streams.clear();
  c->outbox.clear();
  // Idle lanes die with the connection; lanes mid-execution are erased
  // by their completion (OnRequestDone sees closed).
  for (auto it = c->lanes.begin(); it != c->lanes.end();) {
    if (it->second->running) {
      ++it;
    } else {
      sessions_active_.fetch_sub(1);
      it = c->lanes.erase(it);
    }
  }
}

void MldsServer::UpdateInterest(Connection* conn) {
  if (conn->closed) return;
  epoll_event ev{};
  ev.events = (conn->read_open ? EPOLLIN : 0u) |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.u64 = ConnectionTag(conn->generation, conn->fd);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

wire::StatsReply MldsServer::stats() const {
  const kms::TranslationCache::Stats cache =
      system_->translation_cache().stats();
  wire::StatsReply stats;
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_evictions = cache.evictions;
  stats.cache_epoch = cache.epoch;
  stats.cache_size = cache.size;
  stats.sessions_accepted = sessions_accepted_.load();
  stats.sessions_rejected = sessions_rejected_.load();
  stats.requests_served = requests_served_.load();
  stats.requests_rejected = requests_rejected_.load();
  stats.bad_frames = bad_frames_.load();
  stats.sessions_active = sessions_active_.load();
  stats.inflight_highwater = inflight_highwater_.load();
  stats.write_buffer_highwater = write_buffer_highwater_.load();
  stats.results_streamed = results_streamed_.load();
  stats.chunks_streamed = chunks_streamed_.load();
  stats.backpressure_stalls = backpressure_stalls_.load();
  const kds::KernelCounters kernel = system_->executor()->Counters();
  stats.pool_hits = kernel.pool.hits;
  stats.pool_misses = kernel.pool.misses;
  stats.pool_evictions = kernel.pool.evictions;
  stats.pool_dirty_writebacks = kernel.pool.dirty_writebacks;
  stats.integrity_checksum_failures = kernel.integrity.checksum_failures;
  stats.integrity_io_errors_injected = kernel.integrity.io_errors_injected;
  stats.integrity_io_errors_real = kernel.integrity.io_errors_real;
  stats.integrity_pages_scrubbed = kernel.integrity.pages_scrubbed;
  stats.integrity_files_rebuilt = kernel.integrity.files_rebuilt;
  stats.integrity_fsyncs = kernel.integrity.fsyncs;
  stats.stats_histogram_builds = kernel.statistics.histogram_builds;
  stats.stats_replans = kernel.statistics.replans;
  stats.stats_hash_joins = kernel.statistics.hash_joins;
  stats.stats_merge_joins = kernel.statistics.merge_joins;
  stats.health = kfs::SerializeHealth(system_->Health());
  return stats;
}

void MldsServer::NoteShutdownFromWire() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_.store(true);
  }
  shutdown_cv_.notify_all();
}

void MldsServer::Shutdown() {
  if (!started_.load() || stopping_.exchange(true)) return;
  Post([] {});  // wake the loop so it notices stopping_
  if (loop_thread_.joinable()) loop_thread_.join();
  common::CloseSocket(listen_fd_);
  listen_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  if (event_fd_ >= 0) ::close(event_fd_);
  event_fd_ = -1;
  NoteShutdownFromWire();
}

void MldsServer::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  // Timed wait so NoteShutdownRequested() — an atomic store with no
  // notify, callable from a signal handler — is still observed promptly.
  while (!shutdown_requested_.load()) {
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
}

}  // namespace mlds::server
