#ifndef MLDS_SERVER_SERVER_H_
#define MLDS_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/frame.h"
#include "common/status.h"
#include "mlds/mlds.h"
#include "server/session.h"
#include "server/wire.h"

namespace mlds::server {

/// Knobs of the wire server.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port().
  uint16_t port = 0;
  /// Admission control: sessions beyond this cap receive a structured
  /// BUSY frame (at accept time for a connection's first session, as a
  /// tagged response for OPEN_SESSION), never a silent queue.
  int max_sessions = 8;
  /// Admission control: requests a client may have in flight per session
  /// (queued + executing). A frame arriving on a full session is answered
  /// BUSY immediately.
  size_t max_queue_depth = 8;
  /// Frame decoder payload ceiling (oversized frames are rejected from
  /// the header alone).
  size_t max_payload_bytes = common::kDefaultMaxPayload;
  /// Server threads, each of which reads, executes and replies (see
  /// MldsServer); 0 runs one thread, the serial mode in which a long
  /// statement delays every other connection.
  int worker_threads = 2;
  /// Result bodies larger than this stream as kResultChunk frames
  /// instead of traveling inline in the kResult payload. Must stay under
  /// the peer's max_payload_bytes or large results would be undecodable.
  size_t stream_threshold = 256 * 1024;
  /// Bytes per kResultChunk frame.
  size_t chunk_bytes = 64 * 1024;
  /// Write-buffer high-water mark: the server stops pulling chunks from
  /// result streams while a connection's outbox holds at least this many
  /// unsent bytes, so a slow consumer bounds the server's memory at
  /// O(high_water + chunk) instead of O(result).
  size_t write_high_water = 256 * 1024;
};

/// The MLDS session server: the network front-end that turns the
/// library into a system.
///
/// Run to completion: `max(1, worker_threads)` symmetric threads wait in
/// epoll_wait on one epoll set (the listener, an eventfd, and every
/// non-blocking connection). Connections are registered EPOLLONESHOT, so
/// the kernel hands each readiness event to one thread — the leader
/// election of a Leader/Followers pool (Schmidt et al., PLoP 2000). That
/// thread reads and decodes, re-arms the fd, executes the request and
/// writes the reply straight to the socket; the outbox holds only what
/// would block. A second session made runnable by the same read goes to a
/// parked thread through the eventfd. A long statement holds one thread,
/// never the others, and an idle connection costs a few hundred bytes.
///
/// Protocol v2 pipelining: a connection may carry several sessions
/// (HELLO opens the first, OPEN_SESSION more), and each session may have
/// several tagged requests in flight. Execution stays strictly serial
/// *per session* — each session is a "lane" whose queued requests run
/// one at a time in arrival order, preserving the run-unit state
/// (CODASYL currency, DL/I position, ABDL transactions) exactly as the
/// thesis's one-run-unit-at-a-time discipline requires — while different
/// sessions' requests execute concurrently and their responses complete
/// out of order, matched to requests by the request_id in the frame
/// header. The thread that finishes a lane's request keeps draining that
/// lane's queue and flushes once per drained batch.
///
/// Large results stream: a body over `stream_threshold` leaves execution
/// as a kfs::ChunkSource and is emitted as kResultChunk frames, pulling
/// the next chunk only while the connection's write buffer sits under
/// `write_high_water` (backpressure), with concurrent streams on one
/// connection served round-robin. A million-row RETRIEVE therefore holds
/// O(chunk) formatted bytes on the server regardless of how slowly the
/// client reads. A session's next request starts only after its
/// predecessor's stream has fully drained, keeping per-session response
/// order exact.
///
/// Hostile bytes never take the server down: the decoder rejects
/// garbage from the header alone, the offending connection is answered
/// with a structured ERROR and dropped, and every other connection
/// continues. A client speaking frame version 1 gets that ERROR in
/// version-1 framing (naming the supported version) so it can decode
/// the rejection instead of seeing a dropped connection.
///
/// Shutdown() drains gracefully: new connections are refused, every
/// session's queued requests finish, streams and outboxes flush, then
/// sockets close and the server threads join. A remote admin SHUTDOWN
/// frame makes WaitForShutdownRequest() return so a hosting process can
/// call Shutdown() itself.
class MldsServer {
 public:
  /// `system` must outlive the server and have its databases loaded;
  /// sessions only open language machines over already-loaded schemas.
  MldsServer(MldsSystem* system, ServerOptions options = {});
  ~MldsServer();

  MldsServer(const MldsServer&) = delete;
  MldsServer& operator=(const MldsServer&) = delete;

  /// Binds, listens, and starts the server threads.
  Status Start();

  /// The bound TCP port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, finish in-flight requests, flush
  /// responses and streams, close. Idempotent.
  void Shutdown();

  /// Blocks until a remote SHUTDOWN frame arrives or Shutdown() runs.
  void WaitForShutdownRequest();
  bool shutdown_requested() const { return shutdown_requested_.load(); }

  /// Flags a shutdown request without taking locks or notifying — a
  /// plain atomic store, safe to call from a signal handler. Observed by
  /// WaitForShutdownRequest() within its poll interval.
  void NoteShutdownRequested() { shutdown_requested_.store(true); }

  /// The STATS reply: translation-cache, server and kernel counters
  /// plus the serialized health. Any thread.
  wire::StatsReply stats() const;

 private:
  /// One session's serialized execution lane: the Session itself plus
  /// the queue of decoded requests awaiting it. The flags and the queue
  /// are guarded by the connection's mutex; the Session is touched only
  /// by the thread that owns the lane while `running`.
  struct Lane {
    Lane(uint32_t id, MldsSystem* system) : session(id, system) {}
    Session session;
    std::deque<common::Frame> queue;
    /// A thread has taken this lane's head request and is executing it.
    bool running = false;
    /// The previous request's result stream has not finished draining;
    /// the next request must wait so per-session response order holds.
    bool streaming = false;
  };
  using LanePtr = std::shared_ptr<Lane>;

  /// One in-progress chunk run on a connection.
  struct StreamState {
    uint32_t request_id = 0;
    uint32_t seq = 0;
    std::unique_ptr<kfs::ChunkSource> source;
    std::string final_payload;  ///< kResult payload sent after the run.
    LanePtr lane;  ///< its session; unblocked when the run completes.
  };

  /// One live connection. `mu` guards every other field; no thread holds
  /// it while a statement executes.
  struct Connection {
    explicit Connection(size_t max_payload) : decoder(max_payload) {}
    std::mutex mu;
    int fd = -1;
    /// epoll user data, (generation << 32) | fd: an event for a closed
    /// connection whose fd was reused finds no entry.
    uint64_t tag = 0;
    common::FrameDecoder decoder;
    std::string outbox;       ///< encoded-but-unsent response bytes.
    bool want_write = false;  ///< EPOLLOUT currently requested.
    bool greeted = false;     ///< HELLO seen (first session open).
    bool draining = false;    ///< BYE or shutdown: ignore new frames.
    bool bye_pending = false; ///< owe the client an OK("bye") when idle.
    uint32_t bye_session_id = 0;
    uint32_t bye_request_id = 0;
    bool finishing = false;   ///< close once the outbox flushes.
    bool closed = false;      ///< socket gone; discard replies.
    bool read_open = true;    ///< still polling for EPOLLIN.
    std::map<uint32_t, LanePtr> lanes;  ///< session_id -> lane.
    std::deque<StreamState> streams;    ///< round-robin chunk runs.
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  /// A lane's head request, taken off its queue by the thread that will
  /// execute it (the lane is `running` until the reply is delivered).
  struct Job {
    ConnectionPtr conn;
    LanePtr lane;
    common::Frame frame;
  };

  /// What executing one request produced: a complete response, or
  /// (stream set) a chunk run whose closing kResult carries `payload`.
  struct Reply {
    wire::FrameType type;
    std::string payload;
    std::unique_ptr<kfs::ChunkSource> stream;
  };

  // --- server threads. A method given a connection runs with its `mu`
  // held, except HandleEvent and RunJobs (which take it) and HandOff. ---
  void ServeMain();
  void HandleAccept();
  ConnectionPtr FindConnection(uint64_t tag);
  /// One readiness event: read and decode, flush, re-arm, then run the
  /// requests that became runnable.
  void HandleEvent(const ConnectionPtr& conn, uint32_t events);
  void HandleReadable(const ConnectionPtr& conn);
  void HandleIncomingFrame(const ConnectionPtr& conn, common::Frame frame);
  void HandleDecodeError(const ConnectionPtr& conn);

  /// The lane `session_id` names; id 0 falls back to the connection's
  /// first lane (v1-style clients never learn their id before HELLO's
  /// reply).
  LanePtr ResolveLane(Connection* conn, uint32_t session_id);
  /// Creates a lane under the session cap; null when at capacity.
  LanePtr TryOpenLane(Connection* conn);
  void EraseLane(Connection* conn, uint32_t session_id);
  void EnqueueOnLane(Lane* lane, common::Frame frame);

  /// Takes the head request of every idle lane with work queued (marking
  /// it running) into `jobs`; lane `first`'s job, if taken, goes first.
  void TakeRunnable(const ConnectionPtr& conn, std::vector<Job>* jobs,
                    const Lane* first = nullptr);
  /// Executes `jobs` on this thread, handing all but one to parked
  /// threads, and keeps going while the replies make more work runnable.
  void RunJobs(std::vector<Job> jobs);
  Reply Execute(Lane* lane, const common::Frame& frame);  ///< no lock.
  void Deliver(const Job& job, Reply reply);
  void HandOff(Job job);
  void RunHandedOff();

  void AppendFrame(Connection* conn, wire::FrameType type,
                   uint32_t session_id, uint32_t request_id,
                   std::string payload);
  /// Pulls chunks from the connection's streams (round-robin) while the
  /// outbox sits under the high-water mark.
  void PumpStreams(Connection* conn);
  /// Pump + send until the socket would block or everything is sent.
  void ServiceWrites(const ConnectionPtr& conn);
  /// During drain: once every lane is idle and streams are done, send
  /// the BYE reply (if owed) and arrange to close after the flush.
  void MaybeFinishDrain(const ConnectionPtr& conn);
  void CloseConnection(const ConnectionPtr& conn);
  /// Re-arms the one-shot registration with the current interest.
  void UpdateInterest(Connection* conn);

  /// While stopping: marks every live connection draining; true once no
  /// connection and no handed-off request is left.
  bool DrainForShutdown();
  /// Wakes every server thread out of epoll_wait.
  void WakeAll();

  void NoteShutdownFromWire();  ///< any thread.

  MldsSystem* system_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;  ///< semaphore eventfd: one count per hand-off.
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;

  std::mutex connections_mutex_;
  std::unordered_map<uint64_t, ConnectionPtr> connections_;  ///< by tag.
  std::atomic<uint32_t> next_session_id_{1};
  std::atomic<uint32_t> next_generation_{1};

  std::mutex handoff_mutex_;
  std::deque<Job> handoffs_;

  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> sessions_rejected_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint32_t> sessions_active_{0};
  std::atomic<uint64_t> inflight_highwater_{0};
  std::atomic<uint64_t> write_buffer_highwater_{0};
  std::atomic<uint64_t> results_streamed_{0};
  std::atomic<uint64_t> chunks_streamed_{0};
  std::atomic<uint64_t> backpressure_stalls_{0};

  /// Declared last: the threads use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace mlds::server

#endif  // MLDS_SERVER_SERVER_H_
