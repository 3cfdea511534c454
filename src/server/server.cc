#include "server/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
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
    : system_(system), options_(std::move(options)) {}

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
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_SEMAPHORE);
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
  const int threads = std::max(1, options_.worker_threads);
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { ServeMain(); });
  }
  return Status::OK();
}

void MldsServer::ServeMain() {
  epoll_event event{};
  while (!stopping_.load() || !DrainForShutdown()) {
    // One event per wait: a thread about to execute a request holds no
    // other connection's readiness, so a long statement delays no one
    // else while another thread is parked.
    const int n = ::epoll_wait(epoll_fd_, &event, 1, 50);
    if (n < 0 && errno != EINTR) break;
    if (n <= 0) continue;
    const uint64_t tag = event.data.u64;
    if (tag == kListenTag) {
      HandleAccept();
    } else if (tag == kEventTag) {
      RunHandedOff();
    } else if (ConnectionPtr conn = FindConnection(tag)) {
      HandleEvent(conn, event.events);
    }
  }
}

bool MldsServer::DrainForShutdown() {
  std::vector<ConnectionPtr> live;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (connections_.empty()) {
      std::lock_guard<std::mutex> handoff_lock(handoff_mutex_);
      return handoffs_.empty();
    }
    for (auto& entry : connections_) live.push_back(entry.second);
  }
  for (const ConnectionPtr& conn : live) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->closed && !conn->draining) {
      conn->draining = true;
      MaybeFinishDrain(conn);
    }
  }
  return false;
}

void MldsServer::WakeAll() {
  const uint64_t count = std::max(1, options_.worker_threads);
  (void)!::write(event_fd_, &count, sizeof(count));
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
    conn->tag = (uint64_t{next_generation_.fetch_add(1)} << 32) |
                static_cast<uint32_t>(fd);
    {
      // Registered before the fd is armed, so its first event finds it.
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.emplace(conn->tag, conn);
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.u64 = conn->tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      std::lock_guard<std::mutex> lock(conn->mu);
      CloseConnection(conn);
    }
  }
}

MldsServer::ConnectionPtr MldsServer::FindConnection(uint64_t tag) {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  auto it = connections_.find(tag);
  return it == connections_.end() ? nullptr : it->second;
}

void MldsServer::HandleEvent(const ConnectionPtr& conn, uint32_t events) {
  std::vector<Job> jobs;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    if (events & (EPOLLHUP | EPOLLERR)) {
      CloseConnection(conn);
      return;
    }
    if (events & EPOLLIN) HandleReadable(conn);
    ServiceWrites(conn);
    TakeRunnable(conn, &jobs);
    // Re-arm the one-shot registration before executing anything, so
    // another thread serves this connection's next bytes meanwhile.
    UpdateInterest(conn.get());
  }
  RunJobs(std::move(jobs));
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
    // A short read drained the socket; the re-armed registration reports
    // later bytes, so no read is spent on EAGAIN.
    if (received->bytes < sizeof(buffer)) return;
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
  // Reserve the slot first: threads serving other connections open
  // sessions concurrently, and the cap must hold across all of them.
  uint32_t active = sessions_active_.load();
  do {
    if (active >= static_cast<uint32_t>(options_.max_sessions)) {
      return nullptr;
    }
  } while (!sessions_active_.compare_exchange_weak(active, active + 1));
  const uint32_t id = next_session_id_.fetch_add(1);
  auto lane = std::make_shared<Lane>(id, system_);
  conn->lanes.emplace(id, lane);
  sessions_accepted_.fetch_add(1);
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
    case wire::FrameType::kHello:
    case wire::FrameType::kOpenSession: {
      requests_served_.fetch_add(1);
      const bool hello = type == wire::FrameType::kHello;
      if (hello && c->greeted) {
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
        if (hello) c->finishing = true;  // a refused HELLO ends it
        break;
      }
      if (hello) c->greeted = true;
      AppendFrame(c, wire::FrameType::kOk, lane->session.id(),
                  frame.request_id,
                  OkPayload(hello ? "mlds server ready" : "session opened"));
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
      EnqueueOnLane(lane.get(), std::move(frame));
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
      EnqueueOnLane(lane.get(), std::move(frame));
      break;
    }
  }
  ServiceWrites(conn);
}

void MldsServer::EnqueueOnLane(Lane* lane, common::Frame frame) {
  lane->queue.push_back(std::move(frame));
  UpdateMax(inflight_highwater_,
            lane->queue.size() +
                ((lane->running || lane->streaming) ? 1 : 0));
}

void MldsServer::TakeRunnable(const ConnectionPtr& conn,
                              std::vector<Job>* jobs, const Lane* first) {
  for (auto& entry : conn->lanes) {
    Lane* lane = entry.second.get();
    if (lane->running || lane->streaming || lane->queue.empty()) continue;
    lane->running = true;
    jobs->push_back(Job{conn, entry.second, std::move(lane->queue.front())});
    lane->queue.pop_front();
    if (lane == first) std::swap(jobs->front(), jobs->back());
  }
}

void MldsServer::RunJobs(std::vector<Job> jobs) {
  while (!jobs.empty()) {
    // Other sessions' lanes go to parked threads to run concurrently.
    for (size_t i = 1; i < jobs.size(); ++i) HandOff(std::move(jobs[i]));
    const Job job = std::move(jobs.front());
    jobs.clear();
    Reply reply = Execute(job.lane.get(), job.frame);
    std::lock_guard<std::mutex> lock(job.conn->mu);
    Deliver(job, std::move(reply));
    // This thread drains the lane and flushes once per drained batch (or
    // at the high-water mark): a synchronous client's reply goes out now,
    // written by the thread that read the request.
    TakeRunnable(job.conn, &jobs, job.lane.get());
    if (!job.lane->running ||
        job.conn->outbox.size() >= options_.write_high_water) {
      ServiceWrites(job.conn);
      TakeRunnable(job.conn, &jobs);  // a finished stream frees its lane
    }
  }
}

void MldsServer::HandOff(Job job) {
  {
    std::lock_guard<std::mutex> lock(handoff_mutex_);
    handoffs_.push_back(std::move(job));
  }
  const uint64_t one = 1;
  (void)!::write(event_fd_, &one, sizeof(one));
}

void MldsServer::RunHandedOff() {
  // Semaphore read: each hand-off's count wakes and feeds one thread;
  // a lost race (EAGAIN) or a shutdown wake finds nothing to take.
  uint64_t count = 0;
  if (::read(event_fd_, &count, sizeof(count)) != sizeof(count)) return;
  std::vector<Job> jobs;
  {
    std::lock_guard<std::mutex> lock(handoff_mutex_);
    if (handoffs_.empty()) return;
    jobs.push_back(std::move(handoffs_.front()));
    handoffs_.pop_front();
  }
  RunJobs(std::move(jobs));
}

MldsServer::Reply MldsServer::Execute(Lane* lane, const common::Frame& frame) {
  using wire::FrameType;
  auto reply = [](FrameType type, std::string payload) {
    return Reply{type, std::move(payload), nullptr};
  };
  auto failed = [&](const Status& status) {
    return reply(FrameType::kError, ErrorPayload(status));
  };
  requests_served_.fetch_add(1);
  switch (static_cast<FrameType>(frame.type)) {
    case FrameType::kUse: {
      Result<wire::UseRequest> request = wire::DecodeUseRequest(frame.payload);
      if (!request.ok()) return failed(request.status());
      const Status status = lane->session.Use(*request);
      if (!status.ok()) return failed(status);
      return reply(FrameType::kOk,
                   OkPayload("using " + std::string(LanguageName(
                                            lane->session.language())) +
                             " over '" + request->database + "'"));
    }
    case FrameType::kExecute:
    case FrameType::kExplain: {
      const bool explain =
          frame.type == static_cast<uint8_t>(FrameType::kExplain);
      Result<ExecuteOutcome> outcome = lane->session.ExecuteStreamed(
          frame.payload, explain, options_.stream_threshold);
      if (!outcome.ok()) return failed(outcome.status());
      Reply result =
          reply(FrameType::kResult, wire::EncodeExecuteResult(outcome->meta));
      result.stream = std::move(outcome->stream);
      return result;
    }
    case FrameType::kBatch: {
      Result<wire::BatchRequest> request =
          wire::DecodeBatchRequest(frame.payload);
      if (!request.ok()) return failed(request.status());
      Result<wire::ExecuteResult> result = lane->session.ExecuteBatch(*request);
      if (!result.ok()) return failed(result.status());
      return reply(FrameType::kResult, wire::EncodeExecuteResult(*result));
    }
    case FrameType::kHealth:
      return reply(FrameType::kHealthReport,
                   kfs::SerializeHealth(lane->session.Health()));
    case FrameType::kStats:
      return reply(FrameType::kStatsReport, wire::EncodeStatsReply(stats()));
    case FrameType::kVerify:
      // Admin scrub: walk every on-disk page through the checksum
      // verify. Runs like any request; file locks are held shared, so
      // concurrent retrievals proceed.
      return reply(FrameType::kVerifyReport,
                   system_->executor()->VerifyIntegrity().ToText());
    case FrameType::kCloseSession:
      return reply(FrameType::kOk, OkPayload("session closed"));
    case FrameType::kShutdown:
      NoteShutdownFromWire();
      return reply(FrameType::kOk, OkPayload("draining"));
    default:
      return failed(Status::InvalidArgument("unknown request type " +
                                            std::to_string(frame.type)));
  }
}

void MldsServer::Deliver(const Job& job, Reply reply) {
  Connection* c = job.conn.get();
  Lane* lane = job.lane.get();
  lane->running = false;
  const uint32_t session_id = lane->session.id();
  if (c->closed) {
    // The socket died while this request executed; nothing to send.
    lane->queue.clear();
    EraseLane(c, session_id);
    return;
  }

  if (reply.stream != nullptr) {
    results_streamed_.fetch_add(1);
    lane->streaming = true;
    StreamState stream;
    stream.request_id = job.frame.request_id;
    stream.source = std::move(reply.stream);
    stream.final_payload = std::move(reply.payload);
    stream.lane = job.lane;
    c->streams.push_back(std::move(stream));
  } else {
    AppendFrame(c, reply.type, session_id, job.frame.request_id,
                std::move(reply.payload));
  }

  if (job.frame.type ==
      static_cast<uint8_t>(wire::FrameType::kCloseSession)) {
    // Anything still queued behind the close is answered, not dropped.
    for (common::Frame& orphan : lane->queue) {
      AppendFrame(c, wire::FrameType::kError, session_id, orphan.request_id,
                  ErrorPayload(Status::InvalidArgument("session closed")));
    }
    lane->queue.clear();
    EraseLane(c, session_id);
  }
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

void MldsServer::PumpStreams(Connection* c) {
  while (!c->streams.empty() &&
         c->outbox.size() < options_.write_high_water) {
    StreamState& stream = c->streams.front();
    if (!stream.source->done()) {
      wire::ResultChunk chunk;
      chunk.seq = stream.seq++;
      chunk.body = stream.source->Next(options_.chunk_bytes);
      AppendFrame(c, wire::FrameType::kResultChunk, stream.lane->session.id(),
                  stream.request_id, wire::EncodeResultChunk(chunk));
      chunks_streamed_.fetch_add(1);
    }
    if (stream.source->done()) {
      // The closing kResult frame carries timing + warnings; its empty
      // body tells the client the chunk run is complete.
      AppendFrame(c, wire::FrameType::kResult, stream.lane->session.id(),
                  stream.request_id, std::move(stream.final_payload));
      stream.lane->streaming = false;  // TakeRunnable resumes its queue
      c->streams.pop_front();
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
    PumpStreams(c);
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
  // server gets around to tearing the socket down.
  sessions_active_.fetch_sub(static_cast<uint32_t>(c->lanes.size()));
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
  c->streams.clear();
  c->outbox.clear();
  // Idle lanes die with the connection; a running lane is erased by its
  // thread when the reply finds the connection closed (Deliver).
  const size_t idle = std::erase_if(
      c->lanes, [](const auto& entry) { return !entry.second->running; });
  sessions_active_.fetch_sub(static_cast<uint32_t>(idle));
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.erase(c->tag);
  }
  if (stopping_.load()) WakeAll();  // the last close lets threads exit
}

void MldsServer::UpdateInterest(Connection* conn) {
  if (conn->closed) return;
  epoll_event ev{};
  ev.events = EPOLLONESHOT | (conn->read_open ? EPOLLIN : 0u) |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->tag;
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
  WakeAll();
  for (std::thread& thread : threads_) thread.join();
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
