// Stress tests for the run-to-completion server under pipelining and
// streaming: per-session response ordering with many requests in
// flight, multi-session multiplexing through the client pool,
// slow-consumer backpressure keeping server memory bounded, mid-stream
// disconnects freeing sessions promptly, direct-write reply order on a
// shared connection, and no head-of-line blocking across connections.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/pool.h"
#include "common/frame.h"
#include "common/socket.h"
#include "mlds/mlds.h"
#include "server/demo.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"

namespace mlds {
namespace {

size_t CountOccurrences(std::string_view haystack, std::string_view needle) {
  size_t count = 0;
  size_t at = 0;
  while ((at = haystack.find(needle, at)) != std::string_view::npos) {
    ++count;
    at += needle.size();
  }
  return count;
}

/// Inserts `rows` wide rows into payroll.staff through the session
/// layer, making every SELECT over the table large enough to stream.
void BulkLoadStaff(MldsSystem* system, int rows) {
  server::Session loader(1, system);
  ASSERT_TRUE(loader.Use(wire::UseRequest{"sql", "payroll"}).ok());
  for (int i = 0; i < rows; ++i) {
    const std::string name =
        "bulk" + std::to_string(i) + std::string(170, 'x');
    const std::string statement = "INSERT INTO staff (name, wage) VALUES ('" +
                                  name + "', " + std::to_string(i % 97) +
                                  ".0)";
    ASSERT_TRUE(loader.Execute(statement, /*explain=*/false).ok())
        << statement;
  }
}

/// Depth-K pipelining on one session: the responses come back in
/// submission order (the lane is strictly serial), every interleaved
/// SELECT sees exactly the inserts submitted before it, and awaiting the
/// last response first exercises the request_id demultiplexer.
TEST(PipelineStressTest, PerSessionOrderingPreservedUnderPipelining) {
  server::ServerOptions options;
  options.max_queue_depth = 64;
  MldsSystem system;
  ASSERT_TRUE(server::LoadDemoDatabases(&system).ok());
  server::MldsServer server(&system, options);
  ASSERT_TRUE(server.Start().ok());

  client::MldsClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Use("sql", "payroll").ok());

  constexpr int kDepth = 12;
  std::vector<uint32_t> insert_ids, select_ids;
  for (int i = 0; i < kDepth; ++i) {
    Result<uint32_t> insert = client.SubmitExecute(
        "INSERT INTO staff (name, wage) VALUES ('zrow" + std::to_string(i) +
        "', 1.0)");
    ASSERT_TRUE(insert.ok()) << insert.status();
    insert_ids.push_back(*insert);
    Result<uint32_t> select =
        client.SubmitExecute("SELECT name FROM staff");
    ASSERT_TRUE(select.ok()) << select.status();
    select_ids.push_back(*select);
  }

  // Await the final response first: everything before it is read and
  // parked, proving responses demultiplex by request_id.
  Result<wire::ExecuteResult> last = client.AwaitResult(select_ids.back());
  ASSERT_TRUE(last.ok()) << last.status();
  EXPECT_EQ(CountOccurrences(last->body, "zrow"), size_t{kDepth});

  // Every interleaved SELECT saw exactly the inserts pipelined before
  // it — the lane executed in submission order, nothing overtook.
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(client.AwaitResult(insert_ids[i]).ok());
    if (i == kDepth - 1) break;  // the final select was awaited above
    Result<wire::ExecuteResult> seen = client.AwaitResult(select_ids[i]);
    ASSERT_TRUE(seen.ok()) << seen.status();
    EXPECT_EQ(CountOccurrences(seen->body, "zrow"),
              static_cast<size_t>(i + 1))
        << "select #" << i;
  }

  EXPECT_GE(server.stats().inflight_highwater, 1u);
  EXPECT_TRUE(client.Close().ok());
  server.Shutdown();
}

/// Many logical sessions over few connections: each session keeps its
/// own language binding and transaction state, requests on different
/// sessions fly concurrently, and ABDL isolation holds between sessions
/// sharing one socket.
TEST(PipelineStressTest, PooledSessionsMultiplexWithIsolation) {
  server::ServerOptions options;
  options.max_sessions = 8;
  MldsSystem system;
  ASSERT_TRUE(server::LoadDemoDatabases(&system).ok());
  server::MldsServer server(&system, options);
  ASSERT_TRUE(server.Start().ok());

  client::ClientPool pool;
  ASSERT_TRUE(
      pool.Connect("127.0.0.1", server.port(), /*sessions=*/6,
                   /*connections=*/2)
          .ok());
  ASSERT_EQ(pool.session_count(), 6u);
  ASSERT_EQ(pool.connection_count(), 2u);
  EXPECT_EQ(server.stats().sessions_active, 6u);

  // Distinct session ids across the pool.
  for (size_t i = 0; i < pool.session_count(); ++i) {
    for (size_t j = i + 1; j < pool.session_count(); ++j) {
      EXPECT_NE(pool.session(i).session_id(), pool.session(j).session_id());
    }
  }

  // Different languages on different sessions, all pipelined at once.
  struct Bound {
    size_t session;
    const char* language;
    const char* database;
    const char* statement;
    const char* expect;
  };
  const std::vector<Bound> bound = {
      {0, "sql", "payroll", "SELECT name FROM staff", "edsger"},
      {1, "daplex", "university", "FOR EACH course PRINT title", "Database"},
      {2, "dli", "clinic", "GU patient (pname = 'smith')", "smith"},
      {3, "abdl", "university", "RETRIEVE ((FILE = course)) (title) BY course",
       "Database"},
  };
  for (const Bound& b : bound) {
    ASSERT_TRUE(pool.session(b.session).Use(b.language, b.database).ok());
  }
  std::vector<uint32_t> ids(bound.size());
  for (size_t i = 0; i < bound.size(); ++i) {
    Result<uint32_t> id =
        pool.session(bound[i].session).SubmitExecute(bound[i].statement);
    ASSERT_TRUE(id.ok()) << id.status();
    ids[i] = *id;
  }
  for (size_t i = 0; i < bound.size(); ++i) {
    Result<wire::ExecuteResult> result =
        pool.session(bound[i].session).Await(ids[i]);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_NE(result->body.find(bound[i].expect), std::string::npos)
        << bound[i].statement;
  }

  // ABDL transaction isolation between sessions 4 and 5 — which share a
  // connection with other sessions, so the isolation is per-session, not
  // per-socket.
  ASSERT_TRUE(pool.session(4).Use("abdl", "payroll").ok());
  ASSERT_TRUE(pool.session(5).Use("sql", "payroll").ok());
  ASSERT_TRUE(pool.session(4).Execute("BEGIN").ok());
  ASSERT_TRUE(
      pool.session(4)
          .Execute("INSERT (<FILE, staff>, <name, 'pooled'>, <wage, 7.0>)")
          .ok());
  Result<wire::ExecuteResult> before =
      pool.session(5).Execute("SELECT name FROM staff");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->body.find("pooled"), std::string::npos);
  ASSERT_TRUE(pool.session(4).Execute("COMMIT").ok());
  Result<wire::ExecuteResult> after =
      pool.session(5).Execute("SELECT name FROM staff");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(after->body.find("pooled"), std::string::npos);

  EXPECT_TRUE(pool.Close().ok());
  server.Shutdown();
}

/// A consumer that stops reading mid-stream must not balloon server
/// memory: the write buffer stays near write_high_water no matter how
/// large the streamed result is, stalls are counted, and the bytes still
/// arrive intact once the consumer resumes.
TEST(PipelineStressTest, SlowConsumerBackpressureBoundsServerMemory) {
  server::ServerOptions options;
  options.stream_threshold = 1024;
  options.chunk_bytes = 8 * 1024;
  options.write_high_water = 16 * 1024;
  MldsSystem system;
  ASSERT_TRUE(server::LoadDemoDatabases(&system).ok());
  // The rendered table must overflow what the kernel will buffer for a
  // non-reading peer (sndbuf autotunes to tcp_wmem[2], typically 4 MiB,
  // plus the ~128 KiB receive window) or send never returns would_block.
  BulkLoadStaff(&system, 30000);  // ~5.5 MiB rendered
  server::MldsServer server(&system, options);
  ASSERT_TRUE(server.Start().ok());

  client::MldsClient slow;
  ASSERT_TRUE(slow.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(slow.Use("sql", "payroll").ok());
  Result<uint32_t> id = slow.SubmitExecute("SELECT name FROM staff");
  ASSERT_TRUE(id.ok()) << id.status();

  // Do not read. The kernel buffers fill, the server hits would_block,
  // and the stream parks instead of buffering the whole table.
  // A request submitted behind the parked stream queues on the lane —
  // the stream blocks it — so the in-flight high water hits 2
  // deterministically.
  Result<uint32_t> queued =
      slow.SubmitExecute("SELECT name FROM staff WHERE wage > 95");
  ASSERT_TRUE(queued.ok()) << queued.status();
  // The 30k-row retrieve + render takes a while before the first chunk
  // is even produced (much longer under sanitizers), so wait for the
  // stall itself, not a fixed delay: we are not reading, so once the
  // stream starts it must fill the kernel buffers and park.
  wire::StatsReply stalled = server.stats();
  for (int i = 0;
       i < 6000 && (stalled.backpressure_stalls < 1 ||
                    stalled.inflight_highwater < 2);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stalled = server.stats();
  }
  EXPECT_GE(stalled.results_streamed, 1u);
  EXPECT_GE(stalled.backpressure_stalls, 1u);
  EXPECT_GE(stalled.inflight_highwater, 2u);
  // Bound: high water, plus the one chunk frame that crossed it, plus
  // framing overhead. Nowhere near the ~5.5 MiB body.
  EXPECT_LE(stalled.write_buffer_highwater,
            options.write_high_water + options.chunk_bytes + 1024u);

  // Resume reading: the full body arrives, byte-identical to what the
  // session layer renders in-process from the same system.
  Result<wire::ExecuteResult> streamed = slow.AwaitResult(*id);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  server::Session local(99, &system);
  ASSERT_TRUE(local.Use(wire::UseRequest{"sql", "payroll"}).ok());
  Result<wire::ExecuteResult> in_process =
      local.Execute("SELECT name FROM staff", /*explain=*/false);
  ASSERT_TRUE(in_process.ok()) << in_process.status();
  EXPECT_EQ(streamed->body, in_process->body);
  EXPECT_GT(streamed->body.size(), size_t{4608} * 1024);

  // The request queued behind the stream ran after it, on the same lane.
  Result<wire::ExecuteResult> after = slow.AwaitResult(*queued);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(after->body.find("bulk"), std::string::npos);

  EXPECT_TRUE(slow.Close().ok());
  server.Shutdown();
}

/// A client that vanishes mid-stream frees its session promptly — the
/// parked stream and its lane die with the connection — and sessions on
/// other connections never notice.
TEST(PipelineStressTest, MidStreamDisconnectFreesSessionPromptly) {
  server::ServerOptions options;
  options.stream_threshold = 1024;
  options.chunk_bytes = 4 * 1024;
  options.write_high_water = 8 * 1024;
  MldsSystem system;
  ASSERT_TRUE(server::LoadDemoDatabases(&system).ok());
  BulkLoadStaff(&system, 2000);
  server::MldsServer server(&system, options);
  ASSERT_TRUE(server.Start().ok());

  client::MldsClient survivor;
  ASSERT_TRUE(survivor.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(survivor.Use("sql", "payroll").ok());

  {
    client::MldsClient doomed;
    ASSERT_TRUE(doomed.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(doomed.Use("sql", "payroll").ok());
    Result<uint32_t> id = doomed.SubmitExecute("SELECT name FROM staff");
    ASSERT_TRUE(id.ok()) << id.status();
    // Give the stream time to start, then vanish without BYE: the
    // destructor closes the socket with chunks still in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // The server reaps the dead connection and its session promptly.
  uint64_t active = server.stats().sessions_active;
  for (int i = 0; i < 200 && active != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    active = server.stats().sessions_active;
  }
  EXPECT_EQ(active, 1u);

  // The surviving session still executes and still streams.
  Result<wire::ExecuteResult> alive =
      survivor.Execute("SELECT name FROM staff");
  ASSERT_TRUE(alive.ok()) << alive.status();
  EXPECT_GT(alive->body.size(), size_t{300} * 1024);
  EXPECT_TRUE(survivor.Close().ok());
  server.Shutdown();
}

/// Writes one request frame on a raw socket.
void SendRequest(int fd, wire::FrameType type, uint32_t session_id,
                 uint32_t request_id, std::string payload) {
  common::Frame frame;
  frame.type = static_cast<uint8_t>(type);
  frame.session_id = session_id;
  frame.request_id = request_id;
  frame.payload = std::move(payload);
  ASSERT_TRUE(common::SendAll(fd, common::EncodeFrame(frame)).ok());
}

/// Reads frames off a raw socket, in arrival order, until `finals`
/// frames other than kResultChunk have arrived.
std::vector<common::Frame> ReadFrames(int fd, size_t finals) {
  std::vector<common::Frame> frames;
  common::FrameDecoder decoder;
  char buffer[16384];
  size_t seen = 0;
  while (seen < finals) {
    common::FrameDecoder::Decoded decoded = decoder.Next();
    if (decoded.event == common::FrameDecoder::Event::kFrame) {
      if (decoded.frame.type !=
          static_cast<uint8_t>(wire::FrameType::kResultChunk)) {
        ++seen;
      }
      frames.push_back(std::move(decoded.frame));
      continue;
    }
    if (decoded.event == common::FrameDecoder::Event::kError) break;
    Result<size_t> n = common::RecvSome(fd, buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) break;
    decoder.Feed(std::string_view(buffer, *n));
  }
  return frames;
}

/// The server writes each reply from the thread that executed it, and a
/// thread keeps draining its lane: replies must still leave in each
/// session's submission order. Session A pipelines eight requests with a
/// streamed result in the middle of inline ones; session B, on the same
/// connection, pipelines eight at the same time (its lane is handed to a
/// second thread, so the connection's mutex is contended under TSan).
/// Every reply carries its request id and the body in-process execution
/// renders; the streamed body arrives byte-identical.
TEST(PipelineStressTest, DirectWritesKeepPerSessionOrderOnSharedConnection) {
  server::ServerOptions options;
  options.stream_threshold = 1024;
  options.chunk_bytes = 1024;
  MldsSystem system;
  ASSERT_TRUE(server::LoadDemoDatabases(&system).ok());
  BulkLoadStaff(&system, 50);  // SELECT name, wage renders ~9 KiB
  server::MldsServer server(&system, options);
  ASSERT_TRUE(server.Start().ok());

  Result<int> fd = common::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  uint32_t next_id = 1;
  SendRequest(*fd, wire::FrameType::kHello, 0, next_id++, "ordering");
  SendRequest(*fd, wire::FrameType::kOpenSession, 0, next_id++, "");
  std::vector<common::Frame> opened = ReadFrames(*fd, 2);
  ASSERT_EQ(opened.size(), 2u);
  const uint32_t session_a = opened[0].session_id;
  const uint32_t session_b = opened[1].session_id;
  ASSERT_NE(session_a, session_b);
  for (uint32_t session : {session_a, session_b}) {
    SendRequest(*fd, wire::FrameType::kUse, session, next_id++,
                wire::EncodeUseRequest(wire::UseRequest{"sql", "payroll"}));
  }
  ASSERT_EQ(ReadFrames(*fd, 2).size(), 2u);

  constexpr int kDepth = 8;
  constexpr int kStreamedAt = 3;
  const std::string streamed = "SELECT name, wage FROM staff";
  std::map<uint32_t, std::string> statement_of;
  std::vector<uint32_t> order_a, order_b;
  std::string batch;  // both sessions' requests, interleaved, one write
  for (int i = 0; i < kDepth; ++i) {
    for (uint32_t session : {session_a, session_b}) {
      const std::string statement =
          session == session_a && i == kStreamedAt
              ? streamed
              : "SELECT name FROM staff WHERE wage > " +
                    std::to_string(60 + 4 * i + (session == session_b));
      common::Frame frame;
      frame.type = static_cast<uint8_t>(wire::FrameType::kExecute);
      frame.session_id = session;
      frame.request_id = next_id;
      frame.payload = statement;
      batch += common::EncodeFrame(frame);
      statement_of[next_id] = statement;
      (session == session_a ? order_a : order_b).push_back(next_id++);
    }
  }
  ASSERT_TRUE(common::SendAll(*fd, batch).ok());
  const std::vector<common::Frame> frames = ReadFrames(*fd, 2 * kDepth);
  common::CloseSocket(*fd);

  server::Session local(99, &system);
  ASSERT_TRUE(local.Use(wire::UseRequest{"sql", "payroll"}).ok());
  std::map<uint32_t, std::vector<uint32_t>> arrivals;  // session -> ids
  std::string chunked;
  uint32_t expected_seq = 0;
  for (const common::Frame& frame : frames) {
    ASSERT_TRUE(frame.session_id == session_a ||
                frame.session_id == session_b);
    ASSERT_EQ(statement_of.count(frame.request_id), 1u);
    const std::string& statement = statement_of[frame.request_id];
    if (frame.type == static_cast<uint8_t>(wire::FrameType::kResultChunk)) {
      ASSERT_EQ(statement, streamed);
      Result<wire::ResultChunk> chunk = wire::DecodeResultChunk(frame.payload);
      ASSERT_TRUE(chunk.ok()) << chunk.status();
      EXPECT_EQ(chunk->seq, expected_seq++);
      chunked += chunk->body;
      continue;
    }
    ASSERT_EQ(frame.type, static_cast<uint8_t>(wire::FrameType::kResult))
        << statement;
    arrivals[frame.session_id].push_back(frame.request_id);
    Result<wire::ExecuteResult> result =
        wire::DecodeExecuteResult(frame.payload);
    ASSERT_TRUE(result.ok()) << result.status();
    Result<wire::ExecuteResult> in_process =
        local.Execute(statement, /*explain=*/false);
    ASSERT_TRUE(in_process.ok()) << in_process.status();
    if (statement == streamed) {
      // The closing kResult of a chunk run carries no inline body.
      EXPECT_TRUE(result->body.empty());
      EXPECT_GE(expected_seq, 2u);
      EXPECT_EQ(chunked, in_process->body);
    } else {
      EXPECT_EQ(result->body, in_process->body) << statement;
    }
  }
  EXPECT_EQ(arrivals[session_a], order_a);
  EXPECT_EQ(arrivals[session_b], order_b);
  EXPECT_EQ(server.stats().results_streamed, 1u);
  server.Shutdown();
}

/// Run to completion without head-of-line blocking: while a long
/// request on connection A holds one server thread, a point lookup on
/// connection B is served by another, well inside the long request's
/// service time. The long request is a full RETRIEVE of payroll.staff
/// made slow by the emulated disk; the lookup reads the clinic files
/// only. With `worker_threads = 0` (one server thread, the documented
/// serial mode) the lookup waits out the long request and this bound
/// fails. Over MBDS backends, each backend's share of the lookup must
/// not wait behind the long request's shares either.
void ExpectLongRequestDoesNotDelayLookup(int backends) {
  MldsSystem::Options system_options;
  system_options.backends = backends;
  // Price blocks, not requests: the long scan reads every staff block,
  // the lookup about one, so the lookup's own emulated wait stays small.
  system_options.engine.disk.seek_ms = 0.0;
  MldsSystem system(system_options);
  ASSERT_TRUE(server::LoadDemoDatabases(&system).ok());
  BulkLoadStaff(&system, 2000);
  server::MldsServer server(&system, server::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  client::MldsClient slow, quick;
  ASSERT_TRUE(slow.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(quick.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(slow.Use("sql", "payroll").ok());
  ASSERT_TRUE(quick.Use("dli", "clinic").ok());
  const std::string long_request = "SELECT name FROM staff";
  const std::string lookup = "GU patient (pname = 'smith')";
  ASSERT_TRUE(quick.Execute(lookup).ok());  // warm the translation cache

  auto timed_ms = [](auto&& run) {
    const auto start = std::chrono::steady_clock::now();
    run();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  system.set_latency_scale(1.0);
  const double long_ms =
      timed_ms([&] { ASSERT_TRUE(slow.Execute(long_request).ok()); });
  const double lookup_ms =
      timed_ms([&] { ASSERT_TRUE(quick.Execute(lookup).ok()); });
  // The bound below needs a long request several lookups long.
  ASSERT_GT(long_ms, 8 * lookup_ms)
      << "long " << long_ms << " ms, lookup " << lookup_ms << " ms";

  Result<uint32_t> pending = slow.SubmitExecute(long_request);
  ASSERT_TRUE(pending.ok()) << pending.status();
  // Let a server thread take the long request before the lookup arrives.
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(long_ms / 10));
  const double blocked_ms =
      timed_ms([&] { ASSERT_TRUE(quick.Execute(lookup).ok()); });
  EXPECT_LT(blocked_ms, long_ms / 2)
      << "lookup alone " << lookup_ms << " ms, long request " << long_ms
      << " ms";
  ASSERT_TRUE(slow.AwaitResult(*pending).ok());
  system.set_latency_scale(0.0);
  EXPECT_TRUE(slow.Close().ok());
  EXPECT_TRUE(quick.Close().ok());
  server.Shutdown();
}

TEST(PipelineStressTest, LongRequestDoesNotDelayAnotherConnection) {
  for (int backends : {0, 4}) {
    SCOPED_TRACE(std::to_string(backends) + " backends");
    ExpectLongRequestDoesNotDelayLookup(backends);
  }
}

}  // namespace
}  // namespace mlds
