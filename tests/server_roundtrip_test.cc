// Round-trip tests for the wire subsystem: a real TCP server over the
// demo databases, driven by the client library. The core property is
// byte-identity — a statement executed over the wire renders exactly the
// bytes in-process execution produces, because the server formats with
// the same kfs formatters — plus the protocol behaviors: structured
// BUSY rejections at the session cap, hostile frames dropping only the
// offending connection, session teardown, remote HEALTH/STATS, and
// graceful drain.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/frame.h"
#include "common/socket.h"
#include "kc/executor.h"
#include "mlds/mlds.h"
#include "server/demo.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"

namespace mlds {
namespace {

/// One demo-loaded system + server, shared by the tests in a fixture.
class ServerRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server::LoadDemoDatabases(&system_).ok());
    server_ = std::make_unique<server::MldsServer>(&system_, options_);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Shutdown(); }

  client::MldsClient Connected() {
    client::MldsClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  server::ServerOptions options_;
  MldsSystem system_;
  std::unique_ptr<server::MldsServer> server_;
};

struct LanguageCase {
  const char* language;
  const char* database;
  std::vector<const char*> statements;
};

/// The core guarantee: for every language, the wire result body is
/// byte-identical to what an in-process session produces against an
/// identically loaded system.
TEST_F(ServerRoundTripTest, AllLanguagesByteIdenticalToInProcess) {
  // A second, identically loaded system executes the same statements
  // in-process through the same session layer (no sockets involved).
  MldsSystem local_system;
  ASSERT_TRUE(server::LoadDemoDatabases(&local_system).ok());

  const std::vector<LanguageCase> cases = {
      {"codasyl",
       "university",
       {"MOVE 'Advanced Database' TO title IN course",
        "FIND ANY course USING title IN course", "GET"}},
      {"daplex", "university", {"FOR EACH course PRINT title"}},
      {"sql",
       "payroll",
       {"SELECT name, wage FROM staff",
        "INSERT INTO staff (name, wage) VALUES ('barbara', 95.0)",
        "SELECT name FROM staff WHERE wage > 90"}},
      {"dli",
       "clinic",
       {"GU patient (pname = 'smith')", "GNP visit", "GNP visit"}},
      {"abdl",
       "university",
       {"RETRIEVE ((FILE = course)) (title) BY course"}},
  };

  client::MldsClient client = Connected();
  for (const LanguageCase& c : cases) {
    SCOPED_TRACE(c.language);
    ASSERT_TRUE(client.Use(c.language, c.database).ok());
    server::Session local(99, &local_system);
    ASSERT_TRUE(
        local.Use(wire::UseRequest{c.language, c.database}).ok());
    for (const char* statement : c.statements) {
      SCOPED_TRACE(statement);
      Result<wire::ExecuteResult> remote = client.Execute(statement);
      Result<wire::ExecuteResult> in_process =
          local.Execute(statement, /*explain=*/false);
      ASSERT_TRUE(remote.ok()) << remote.status();
      ASSERT_TRUE(in_process.ok()) << in_process.status();
      EXPECT_EQ(remote->body, in_process->body);
      EXPECT_FALSE(remote->body.empty());
    }
  }
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerRoundTripTest, ExplainTravelsTheWire) {
  client::MldsClient client = Connected();
  ASSERT_TRUE(client.Use("sql", "payroll").ok());
  Result<wire::ExecuteResult> explained =
      client.Explain("SELECT name FROM staff WHERE wage > 80");
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->body.find("PLAN"), std::string::npos);
  // Daplex has no explain mode; the rejection crosses the wire as the
  // same Status code in-process execution returns.
  ASSERT_TRUE(client.Use("daplex", "university").ok());
  Result<wire::ExecuteResult> rejected =
      client.Explain("FOR EACH course PRINT title");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnimplemented);
}

TEST_F(ServerRoundTripTest, ErrorsPreserveStatusCode) {
  client::MldsClient client = Connected();
  // No language bound yet.
  Result<wire::ExecuteResult> unbound = client.Execute("SELECT 1");
  ASSERT_FALSE(unbound.ok());
  ASSERT_TRUE(client.Use("sql", "payroll").ok());
  Result<wire::ExecuteResult> bad = client.Execute("SELECT FROM WHERE");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  Result<wire::ExecuteResult> missing =
      client.Execute("SELECT nope FROM staff");
  ASSERT_FALSE(missing.ok());
  // Unknown language / database are rejected on USE.
  EXPECT_FALSE(client.Use("cobol", "payroll").ok());
  EXPECT_FALSE(client.Use("sql", "no-such-db").ok());
  // The connection survives all of the above, and the rejected USEs left
  // the session on its previous binding (sql over payroll).
  Result<wire::ExecuteResult> alive =
      client.Execute("SELECT name FROM staff");
  ASSERT_TRUE(alive.ok()) << alive.status();
  ASSERT_TRUE(client.Use("sql", "payroll").ok());
  Result<wire::ExecuteResult> rebound =
      client.Execute("SELECT name FROM staff");
  ASSERT_TRUE(rebound.ok()) << rebound.status();
  EXPECT_EQ(alive->body, rebound->body);
  EXPECT_NE(alive->body.find("ada"), std::string::npos);
}

TEST_F(ServerRoundTripTest, AbdlTransactionBufferedUntilCommit) {
  client::MldsClient client = Connected();
  ASSERT_TRUE(client.Use("abdl", "payroll").ok());
  ASSERT_TRUE(client.Execute("BEGIN").ok());
  ASSERT_TRUE(
      client
          .Execute("INSERT (<FILE, staff>, <name, 'hopper'>, <wage, 55.5>)")
          .ok());
  // Uncommitted: a second session does not see the insert.
  client::MldsClient other = Connected();
  ASSERT_TRUE(other.Use("sql", "payroll").ok());
  Result<wire::ExecuteResult> before =
      other.Execute("SELECT name FROM staff WHERE name = 'hopper'");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->body.find("hopper"), std::string::npos);
  ASSERT_TRUE(client.Execute("COMMIT").ok());
  Result<wire::ExecuteResult> after =
      other.Execute("SELECT name FROM staff WHERE name = 'hopper'");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(after->body.find("hopper"), std::string::npos);
  // ABORT discards.
  ASSERT_TRUE(client.Execute("BEGIN").ok());
  ASSERT_TRUE(
      client
          .Execute("INSERT (<FILE, staff>, <name, 'lovelace'>, <wage, 1.0>)")
          .ok());
  ASSERT_TRUE(client.Execute("ABORT").ok());
  Result<wire::ExecuteResult> aborted =
      other.Execute("SELECT name FROM staff WHERE name = 'lovelace'");
  ASSERT_TRUE(aborted.ok());
  EXPECT_EQ(aborted->body.find("lovelace"), std::string::npos);
}

TEST_F(ServerRoundTripTest, BatchInsertsTravelAsOneFrame) {
  client::MldsClient client = Connected();

  // SQL: a prepared INSERT template, ten rows, one kBatch frame.
  ASSERT_TRUE(client.Use("sql", "payroll").ok());
  std::vector<std::vector<abdm::Value>> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({abdm::Value::String("bulk" + std::to_string(i)),
                    abdm::Value::Float(40.0 + i)});
  }
  Result<wire::ExecuteResult> inserted = client.ExecuteBatch(
      "INSERT INTO staff (name, wage) VALUES (?, ?)", rows);
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_NE(inserted->body.find("10"), std::string::npos);
  Result<wire::ExecuteResult> check =
      client.Execute("SELECT name FROM staff WHERE wage > 48");
  ASSERT_TRUE(check.ok());
  EXPECT_NE(check->body.find("bulk9"), std::string::npos);

  // DL/I: the anchored-parent rule applies across the wire too.
  ASSERT_TRUE(client.Use("dli", "clinic").ok());
  Result<wire::ExecuteResult> orphan = client.ExecuteBatch(
      "ISRT visit (vdate = ?, cost = ?)",
      {{abdm::Value::String("880101"), abdm::Value::Float(1.0)}});
  ASSERT_FALSE(orphan.ok());
  EXPECT_EQ(orphan.status().code(), StatusCode::kCurrencyError);
  ASSERT_TRUE(client.Execute("GU patient (pname = 'jones')").ok());
  Result<wire::ExecuteResult> visits = client.ExecuteBatch(
      "ISRT visit (vdate = ?, cost = ?)",
      {{abdm::Value::String("880101"), abdm::Value::Float(1.0)},
       {abdm::Value::String("880102"), abdm::Value::Float(2.0)}});
  ASSERT_TRUE(visits.ok()) << visits.status();

  // Errors preserve their Status codes: empty batches and arity
  // mismatches fail whole, applying nothing.
  Result<wire::ExecuteResult> empty =
      client.ExecuteBatch("ISRT visit (vdate = ?, cost = ?)", {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(client.Use("sql", "payroll").ok());
  Result<wire::ExecuteResult> ragged = client.ExecuteBatch(
      "INSERT INTO staff (name, wage) VALUES (?, ?)",
      {{abdm::Value::String("lone")}});
  ASSERT_FALSE(ragged.ok());
  EXPECT_EQ(ragged.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerRoundTripTest, AbdlBatchBuffersInsideTransactions) {
  client::MldsClient client = Connected();
  ASSERT_TRUE(client.Use("abdl", "payroll").ok());
  const std::string prepared =
      "INSERT (<FILE, staff>, <name, ?>, <wage, ?>)";
  std::vector<std::vector<abdm::Value>> rows = {
      {abdm::Value::String("knuth"), abdm::Value::Float(99.0)},
      {abdm::Value::String("dijkstra"), abdm::Value::Float(98.0)},
  };

  ASSERT_TRUE(client.Execute("BEGIN").ok());
  Result<wire::ExecuteResult> buffered = client.ExecuteBatch(prepared, rows);
  ASSERT_TRUE(buffered.ok()) << buffered.status();
  EXPECT_NE(buffered->body.find("buffered"), std::string::npos);

  // Uncommitted: invisible to a second session.
  client::MldsClient other = Connected();
  ASSERT_TRUE(other.Use("sql", "payroll").ok());
  Result<wire::ExecuteResult> before =
      other.Execute("SELECT name FROM staff WHERE name = 'knuth'");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->body.find("knuth"), std::string::npos);

  ASSERT_TRUE(client.Execute("COMMIT").ok());
  Result<wire::ExecuteResult> after =
      other.Execute("SELECT name FROM staff WHERE wage > 97.5");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->body.find("knuth"), std::string::npos);
  EXPECT_NE(after->body.find("dijkstra"), std::string::npos);

  // ABORT discards a buffered batch whole.
  ASSERT_TRUE(client.Execute("BEGIN").ok());
  ASSERT_TRUE(client
                  .ExecuteBatch(prepared,
                                {{abdm::Value::String("discarded"),
                                  abdm::Value::Float(1.0)}})
                  .ok());
  ASSERT_TRUE(client.Execute("ABORT").ok());
  Result<wire::ExecuteResult> aborted =
      other.Execute("SELECT name FROM staff WHERE name = 'discarded'");
  ASSERT_TRUE(aborted.ok());
  EXPECT_EQ(aborted->body.find("discarded"), std::string::npos);

  // Outside a transaction the batch applies immediately.
  Result<wire::ExecuteResult> direct = client.ExecuteBatch(
      prepared, {{abdm::Value::String("ritchie"), abdm::Value::Float(77.0)}});
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_NE(direct->body.find("1 records affected"), std::string::npos);
}

TEST_F(ServerRoundTripTest, HealthRoundTripsThroughParser) {
  client::MldsClient client = Connected();
  Result<kc::KernelHealth> health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_FALSE(health->degraded);
  const kc::KernelHealth local = system_.Health();
  ASSERT_EQ(health->backends.size(), local.backends.size());
  for (size_t i = 0; i < local.backends.size(); ++i) {
    EXPECT_EQ(health->backends[i].id, local.backends[i].id);
    EXPECT_EQ(health->backends[i].state, local.backends[i].state);
  }
}

TEST_F(ServerRoundTripTest, StatsReportCacheAndServerCounters) {
  client::MldsClient client = Connected();
  ASSERT_TRUE(client.Use("sql", "payroll").ok());
  // Same statement twice: the second translation hits the cache.
  ASSERT_TRUE(client.Execute("SELECT name FROM staff").ok());
  ASSERT_TRUE(client.Execute("SELECT name FROM staff").ok());
  Result<wire::StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->cache_hits, 1u);
  EXPECT_GE(stats->cache_misses, 1u);
  EXPECT_GE(stats->requests_served, 4u);
  EXPECT_EQ(stats->sessions_active, 1u);
  EXPECT_GE(stats->sessions_accepted, 1u);
  EXPECT_FALSE(stats->health.empty());
  const std::string text = stats->ToText();
  EXPECT_NE(text.find("cache.hits"), std::string::npos);
  EXPECT_NE(text.find("server.sessions_active"), std::string::npos);
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

/// The STATS payload and its `.stats` text, byte for byte. Every counter
/// carries a distinct value, so a reordered, dropped or renamed field in
/// the codec shows up here even though it would still round-trip.
TEST(StatsWireTest, PayloadAndTextArePinned) {
  wire::StatsReply stats;
  stats.cache_hits = 0x0102030405060708;
  stats.cache_misses = 2;
  stats.cache_evictions = 3;
  stats.cache_epoch = 4;
  stats.cache_size = 5;
  stats.sessions_accepted = 6;
  stats.sessions_rejected = 7;
  stats.requests_served = 8;
  stats.requests_rejected = 9;
  stats.bad_frames = 10;
  stats.sessions_active = 11;
  stats.inflight_highwater = 12;
  stats.write_buffer_highwater = 13;
  stats.results_streamed = 14;
  stats.chunks_streamed = 15;
  stats.backpressure_stalls = 16;
  stats.pool_hits = 17;
  stats.pool_misses = 18;
  stats.pool_evictions = 19;
  stats.pool_dirty_writebacks = 20;
  stats.integrity_checksum_failures = 21;
  stats.integrity_io_errors_injected = 22;
  stats.integrity_io_errors_real = 23;
  stats.integrity_pages_scrubbed = 1234;
  stats.integrity_files_rebuilt = 25;
  stats.integrity_fsyncs = 26;
  stats.stats_histogram_builds = 27;
  stats.stats_replans = 28;
  stats.stats_hash_joins = 29;
  stats.stats_merge_joins = 30;
  stats.health = "healthy";

  const std::string payload = wire::EncodeStatsReply(stats);
  // Little-endian u64 per counter, except sessions_active (u32); then
  // health as a u32 length and its bytes.
  EXPECT_EQ(Hex(payload),
            // cache.*
            "0807060504030201020000000000000003000000000000000400000000000000"
            "0500000000000000"
            // server.*
            "0600000000000000070000000000000008000000000000000900000000000000"
            "0a000000000000000b0000000c000000000000000d00000000000000"
            "0e000000000000000f000000000000001000000000000000"
            // pool.*
            "1100000000000000120000000000000013000000000000001400000000000000"
            // integrity.*
            "150000000000000016000000000000001700000000000000d204000000000000"
            "19000000000000001a00000000000000"
            // stats.*
            "1b000000000000001c000000000000001d000000000000001e00000000000000"
            // health
            "070000006865616c746879");
  const std::string text =
      "cache.hits 72623859790382856\n"
      "cache.misses 2\n"
      "cache.evictions 3\n"
      "cache.epoch 4\n"
      "cache.size 5\n"
      "server.sessions_accepted 6\n"
      "server.sessions_rejected 7\n"
      "server.requests_served 8\n"
      "server.requests_rejected 9\n"
      "server.bad_frames 10\n"
      "server.sessions_active 11\n"
      "server.inflight_highwater 12\n"
      "server.write_buffer_highwater_bytes 13\n"
      "server.results_streamed 14\n"
      "server.chunks_streamed 15\n"
      "server.backpressure_stalls 16\n"
      "pool.hits 17\n"
      "pool.misses 18\n"
      "pool.evictions 19\n"
      "pool.dirty_writebacks 20\n"
      "integrity.checksum_failures 21\n"
      "integrity.io_errors_injected 22\n"
      "integrity.io_errors_real 23\n"
      "integrity.pages_scrubbed 1234\n"
      "integrity.files_rebuilt 25\n"
      "integrity.fsyncs 26\n"
      "stats.histogram_builds 27\n"
      "stats.replans 28\n"
      "stats.hash_joins 29\n"
      "stats.merge_joins 30\n";
  EXPECT_EQ(stats.ToText(), text);

  // Decoding gives back every field: all 30 counters (through the text)
  // and the health string.
  Result<wire::StatsReply> decoded = wire::DecodeStatsReply(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->ToText(), text);
  EXPECT_EQ(decoded->health, "healthy");
  EXPECT_EQ(wire::EncodeStatsReply(*decoded), payload);
  // A short or overlong payload is malformed, not silently accepted.
  EXPECT_FALSE(wire::DecodeStatsReply(payload.substr(0, 100)).ok());
  EXPECT_FALSE(wire::DecodeStatsReply(payload + "x").ok());
}

/// Admission control: connections beyond the cap receive a structured
/// BUSY (kUnavailable), and are not silently queued.
TEST_F(ServerRoundTripTest, SessionCapRejectsWithBusy) {
  server::ServerOptions small;
  small.max_sessions = 2;
  MldsSystem system;
  ASSERT_TRUE(server::LoadDemoDatabases(&system).ok());
  server::MldsServer server(&system, small);
  ASSERT_TRUE(server.Start().ok());

  client::MldsClient a, b, c;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());
  const Status rejected = c.Connect("127.0.0.1", server.port());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable) << rejected;
  EXPECT_NE(rejected.message().find("session"), std::string::npos);
  EXPECT_FALSE(c.connected());

  // Admitted sessions keep working while the third is rejected…
  ASSERT_TRUE(a.Use("sql", "payroll").ok());
  EXPECT_TRUE(a.Execute("SELECT name FROM staff").ok());
  // …and closing one frees a slot.
  EXPECT_TRUE(b.Close().ok());
  Status retry = c.Connect("127.0.0.1", server.port());
  for (int i = 0; i < 100 && !retry.ok(); ++i) {
    // The server reaps the closed session asynchronously.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    retry = c.Connect("127.0.0.1", server.port());
  }
  EXPECT_TRUE(retry.ok()) << retry;
  EXPECT_EQ(server.stats().sessions_rejected, 1u);
  server.Shutdown();
}

/// Hostile bytes: garbage on one connection kills only that connection.
TEST_F(ServerRoundTripTest, GarbageFramesDropOnlyThatConnection) {
  client::MldsClient healthy = Connected();
  ASSERT_TRUE(healthy.Use("sql", "payroll").ok());

  // Raw socket sends garbage that cannot be a frame header.
  Result<int> raw = common::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(
      common::SendAll(*raw, "this is definitely not a frame header!")
          .ok());
  // The server answers with an ERROR frame, then closes.
  char buffer[1024];
  size_t total = 0;
  while (true) {
    Result<size_t> n =
        common::RecvSome(*raw, buffer + total, sizeof(buffer) - total);
    if (!n.ok() || *n == 0) break;
    total += *n;
  }
  common::CloseSocket(*raw);
  common::FrameDecoder decoder;
  decoder.Feed(std::string_view(buffer, total));
  auto decoded = decoder.Next();
  ASSERT_EQ(decoded.event, common::FrameDecoder::Event::kFrame);
  EXPECT_EQ(decoded.frame.type,
            static_cast<uint8_t>(wire::FrameType::kError));

  // An oversized length in a valid-looking header is rejected too.
  Result<int> big = common::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(big.ok());
  common::Frame huge;
  huge.type = static_cast<uint8_t>(wire::FrameType::kExecute);
  std::string encoded = common::EncodeFrame(huge);
  // Patch payload_len (v2 header offset 16) to 256 MiB, far past the
  // ceiling.
  const uint32_t evil = 256u << 20;
  encoded[16] = static_cast<char>(evil & 0xff);
  encoded[17] = static_cast<char>((evil >> 8) & 0xff);
  encoded[18] = static_cast<char>((evil >> 16) & 0xff);
  encoded[19] = static_cast<char>((evil >> 24) & 0xff);
  ASSERT_TRUE(common::SendAll(*big, encoded).ok());
  while (true) {
    Result<size_t> n = common::RecvSome(*big, buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) break;
  }
  common::CloseSocket(*big);

  // The healthy session never noticed.
  Result<wire::ExecuteResult> still =
      healthy.Execute("SELECT name FROM staff");
  EXPECT_TRUE(still.ok()) << still.status();
  EXPECT_GE(server_->stats().bad_frames, 2u);
}

/// Version negotiation: a client speaking the retired version-1 framing
/// gets a structured ERROR naming the supported version — in v1 framing,
/// the one framing it can decode — not a silent connection drop.
TEST_F(ServerRoundTripTest, LegacyV1ClientGetsStructuredVersionError) {
  Result<int> raw = common::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  common::Frame hello;
  hello.type = static_cast<uint8_t>(wire::FrameType::kHello);
  hello.payload = "museum-piece";
  ASSERT_TRUE(
      common::SendAll(*raw, common::EncodeLegacyV1Frame(hello)).ok());
  std::string reply;
  char buffer[1024];
  while (true) {
    Result<size_t> n = common::RecvSome(*raw, buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) break;  // server closes after the reply
    reply.append(buffer, *n);
  }
  common::CloseSocket(*raw);

  // Parse the 24-byte v1 header by hand — the v2 decoder no longer can.
  ASSERT_GE(reply.size(), common::kLegacyFrameHeaderBytes);
  auto u32_at = [&reply](size_t at) {
    uint32_t v = 0;
    for (size_t i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(reply[at + i]))
           << (8 * i);
    }
    return v;
  };
  EXPECT_EQ(u32_at(0), common::kFrameMagic);
  EXPECT_EQ(static_cast<uint8_t>(reply[4]), common::kLegacyFrameVersion);
  EXPECT_EQ(static_cast<uint8_t>(reply[5]),
            static_cast<uint8_t>(wire::FrameType::kError));
  const uint32_t payload_len = u32_at(12);  // v1: payload_len at 12
  ASSERT_EQ(reply.size(), common::kLegacyFrameHeaderBytes + payload_len);
  Result<wire::WireError> error = wire::DecodeWireError(
      std::string_view(reply).substr(common::kLegacyFrameHeaderBytes));
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->code, StatusCode::kInvalidArgument);
  EXPECT_EQ(error->message,
            "unsupported frame version 1 (server speaks version 2)");
  EXPECT_GE(server_->stats().bad_frames, 1u);
}

/// Results above the streaming threshold travel as chunk runs and are
/// reassembled to the exact bytes in-process execution renders; the
/// event-loop counters record the streams.
TEST_F(ServerRoundTripTest, LargeResultsStreamByteIdentical) {
  server::ServerOptions tiny;
  tiny.stream_threshold = 64;  // every demo table crosses this
  tiny.chunk_bytes = 48;
  MldsSystem remote_system, local_system;
  ASSERT_TRUE(server::LoadDemoDatabases(&remote_system).ok());
  ASSERT_TRUE(server::LoadDemoDatabases(&local_system).ok());
  server::MldsServer server(&remote_system, tiny);
  ASSERT_TRUE(server.Start().ok());

  client::MldsClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  size_t chunks_seen = 0;
  uint32_t first_chunk_seq = 1;
  client.set_chunk_observer(
      [&](uint32_t, const wire::ResultChunk& chunk) {
        if (chunks_seen == 0) first_chunk_seq = chunk.seq;
        ++chunks_seen;
      });
  ASSERT_TRUE(client.Use("sql", "payroll").ok());
  server::Session local(99, &local_system);
  ASSERT_TRUE(local.Use(wire::UseRequest{"sql", "payroll"}).ok());

  Result<wire::ExecuteResult> remote =
      client.Execute("SELECT name, wage FROM staff");
  Result<wire::ExecuteResult> in_process =
      local.Execute("SELECT name, wage FROM staff", /*explain=*/false);
  ASSERT_TRUE(remote.ok()) << remote.status();
  ASSERT_TRUE(in_process.ok()) << in_process.status();
  EXPECT_EQ(remote->body, in_process->body);
  EXPECT_GT(remote->body.size(), tiny.stream_threshold);

  // The body arrived as >= 2 chunks starting at seq 0.
  EXPECT_GE(chunks_seen, 2u);
  EXPECT_EQ(first_chunk_seq, 0u);
  Result<wire::StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->results_streamed, 1u);
  EXPECT_GE(stats->chunks_streamed, 2u);
  EXPECT_GT(stats->write_buffer_highwater, 0u);
  const std::string text = stats->ToText();
  EXPECT_NE(text.find("server.results_streamed"), std::string::npos);
  EXPECT_NE(text.find("server.chunks_streamed"), std::string::npos);
  EXPECT_NE(text.find("server.inflight_highwater"), std::string::npos);
  EXPECT_NE(text.find("server.backpressure_stalls"), std::string::npos);

  EXPECT_TRUE(client.Close().ok());
  server.Shutdown();
  EXPECT_EQ(server.stats().results_streamed, 1u);
}

/// Graceful drain: Shutdown() lets the in-flight request finish and the
/// response flush before the socket closes.
TEST_F(ServerRoundTripTest, ShutdownDrainsInFlightRequests) {
  client::MldsClient client = Connected();
  ASSERT_TRUE(client.Use("sql", "payroll").ok());
  ASSERT_TRUE(client.Execute("SELECT name FROM staff").ok());
  server_->Shutdown();
  // After the drain the connection is gone; the client sees a clean
  // transport error, not a hang.
  Result<wire::ExecuteResult> after =
      client.Execute("SELECT name FROM staff");
  EXPECT_FALSE(after.ok());
}

TEST_F(ServerRoundTripTest, RemoteShutdownRequestWakesWaiter) {
  client::MldsClient client = Connected();
  EXPECT_FALSE(server_->shutdown_requested());
  ASSERT_TRUE(client.RequestShutdown().ok());
  server_->WaitForShutdownRequest();  // returns promptly, no hang
  EXPECT_TRUE(server_->shutdown_requested());
}

}  // namespace
}  // namespace mlds
