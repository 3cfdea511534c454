// Robustness fuzzing: every parser in the system must reject arbitrary
// byte salad with a ParseError-style Status — never crash, hang, or
// accept garbage that then corrupts downstream state.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>
#include <sstream>
#include <string>

#include "abdl/parser.h"
#include "abdl/prepared.h"
#include "abdm/record.h"
#include "client/client.h"
#include "common/frame.h"
#include "kds/snapshot.h"
#include "kds/wal.h"
#include "kfs/formatter.h"
#include "server/wire.h"
#include "codasyl/parser.h"
#include "daplex/ddl_parser.h"
#include "daplex/query.h"
#include "hierarchical/schema.h"
#include "kms/dli_machine.h"
#include "network/ddl_parser.h"
#include "relational/schema.h"
#include "sql/ast.h"

namespace mlds {
namespace {

/// Generates adversarial inputs: printable garbage, keyword fragments
/// spliced with junk, deeply nested parentheses, and truncated valid
/// statements.
class FuzzInputs {
 public:
  explicit FuzzInputs(uint32_t seed) : rng_(seed) {}

  std::string Garbage(size_t length) {
    static constexpr char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789 ()<>=!',.;*\"-_";
    std::uniform_int_distribution<size_t> pick(0, sizeof(kAlphabet) - 2);
    std::string out;
    out.reserve(length);
    for (size_t i = 0; i < length; ++i) out += kAlphabet[pick(rng_)];
    return out;
  }

  std::string Spliced(std::string_view valid) {
    std::uniform_int_distribution<size_t> cut(0, valid.size());
    const size_t at = cut(rng_);
    return std::string(valid.substr(0, at)) + Garbage(8) +
           std::string(valid.substr(at));
  }

  std::string Truncated(std::string_view valid) {
    std::uniform_int_distribution<size_t> cut(1, valid.size());
    return std::string(valid.substr(0, cut(rng_)));
  }

  std::string Nested(int depth) {
    std::string out;
    for (int i = 0; i < depth; ++i) out += "(";
    out += "a = 1";
    for (int i = 0; i < depth; ++i) out += ")";
    return out;
  }

 private:
  std::mt19937 rng_;
};

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, AllParsersSurviveGarbage) {
  FuzzInputs inputs(GetParam());
  const std::string valid_samples[] = {
      "RETRIEVE ((FILE = course) and (title = 'DB')) (title) BY course",
      "EXPLAIN RETRIEVE ((FILE = course) and (credits > 3)) (title)",
      "FIND ANY course USING title IN course",
      "EXPLAIN FIND ANY course USING title IN course",
      "SELECT title FROM course WHERE credits > 3 ORDER BY title",
      "EXPLAIN SELECT title FROM course WHERE credits > 3",
      "FOR EACH student SUCH THAT major = 'CS' PRINT pname",
      "GU patient (pname = 'Smith') visit (cost > 100)",
      "TYPE a IS ENTITY x : INTEGER; END ENTITY;",
      "RECORD NAME IS r; ITEM x TYPE IS INTEGER;",
      "CREATE TABLE t (a INTEGER, b CHAR(4));",
      "SEGMENT s; FIELD f CHAR(4);",
      // Lexical edges of the one lexer every parser shares.
      "MOVE \"unterminated TO title IN course",
      "FIND ANY course USING title IN 'unterminated",
      "SELECT title FROM course WHERE title = ''",
      "GET title IN course --",
      "TYPE r IS INTEGER RANGE 1..2;",
      "SELECT title FROM course WHERE credits = 1e",
      "RETRIEVE ((credits = -",
      "GU patient (pname <> 'Smith')",
      "REPL , (cost = 1)",
  };
  for (int trial = 0; trial < 60; ++trial) {
    constexpr size_t kSamples = std::size(valid_samples);
    std::string candidates[] = {
        valid_samples[trial % kSamples],
        inputs.Garbage(5 + trial % 60),
        inputs.Spliced(valid_samples[trial % kSamples]),
        inputs.Truncated(valid_samples[trial % kSamples]),
        "RETRIEVE " + inputs.Nested(40) + " (x)",
        "EXPLAIN " + inputs.Garbage(12),
    };
    for (const auto& text : candidates) {
      // Each call must return (no crash/hang); outcome itself is free.
      (void)abdl::ParseRequest(text);
      (void)abdl::ParseQuery(text);
      (void)codasyl::ParseStatement(text);
      (void)codasyl::ParseDmlStatement(text);
      (void)daplex::ParseFunctionalSchema(text);
      (void)daplex::ParseDaplexStatement(text);
      (void)network::ParseSchema(text);
      (void)relational::ParseRelationalSchema(text);
      (void)hierarchical::ParseHierarchicalSchema(text);
      (void)sql::ParseSql(text);
      (void)kms::ParseDliCall(text);
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(ParserFuzzTest, EmptyAndWhitespaceInputsRejectCleanly) {
  for (const char* text : {"", "   ", "\n\t", ";;;", "()", "''"}) {
    EXPECT_FALSE(abdl::ParseRequest(text).ok()) << "'" << text << "'";
    EXPECT_FALSE(codasyl::ParseStatement(text).ok()) << "'" << text << "'";
    EXPECT_FALSE(sql::ParseSql(text).ok()) << "'" << text << "'";
    EXPECT_FALSE(daplex::ParseDaplexStatement(text).ok())
        << "'" << text << "'";
    EXPECT_FALSE(kms::ParseDliCall(text).ok()) << "'" << text << "'";
  }
}

TEST(ParserFuzzTest, MalformedExplainCombosRejectCleanly) {
  // The EXPLAIN prefix composes with every operation that has an access
  // path and nothing else: doubled prefixes, bare prefixes, INSERT (no
  // access path), and MOVE (no kernel request) must all fail to parse.
  const char* abdl_bad[] = {
      "EXPLAIN",
      "EXPLAIN EXPLAIN RETRIEVE ((FILE = course)) (title)",
      "EXPLAIN INSERT (<FILE, course>, <title, 'DB'>)",
      "EXPLAIN garbage",
  };
  for (const char* text : abdl_bad) {
    EXPECT_FALSE(abdl::ParseRequest(text).ok()) << "'" << text << "'";
  }
  const char* sql_bad[] = {
      "EXPLAIN",
      "EXPLAIN EXPLAIN SELECT title FROM course",
      "EXPLAIN INSERT INTO course (title) VALUES ('DB')",
      "EXPLAIN CREATE TABLE t (a INTEGER)",
  };
  for (const char* text : sql_bad) {
    EXPECT_FALSE(sql::ParseSql(text).ok()) << "'" << text << "'";
  }
  const char* dml_bad[] = {
      "EXPLAIN",
      "EXPLAIN EXPLAIN GET",
      "EXPLAIN MOVE 'DB' TO title IN course",
      "EXPLAIN FROB course",
  };
  for (const char* text : dml_bad) {
    EXPECT_FALSE(codasyl::ParseDmlStatement(text).ok()) << "'" << text << "'";
  }
  // The explain-unaware DML entry point never accepts the prefix.
  EXPECT_FALSE(codasyl::ParseStatement("EXPLAIN GET").ok());
}

TEST(ParserFuzzTest, WellFormedExplainPrefixesParse) {
  auto abdl = abdl::ParseRequest(
      "EXPLAIN RETRIEVE ((FILE = course) and (credits > 3)) (title)");
  ASSERT_TRUE(abdl.ok()) << abdl.status();
  EXPECT_TRUE(abdl::IsExplain(*abdl));

  auto sql = sql::ParseSql("EXPLAIN DELETE FROM course WHERE credits = 0");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_TRUE(std::get<sql::DeleteStatement>(*sql).explain);

  auto dml =
      codasyl::ParseDmlStatement("EXPLAIN FIND ANY course USING title IN course");
  ASSERT_TRUE(dml.ok()) << dml.status();
  EXPECT_TRUE(dml->explain);
}

/// A small two-file engine whose snapshot (and WAL) the durability
/// fuzzers below mangle. Quoted values exercise the escaping path.
std::string ReferenceSnapshot() {
  kds::Engine engine;
  abdm::FileDescriptor f;
  f.name = "course";
  f.attributes = {
      {"FILE", abdm::ValueKind::kString, 0, true},
      {"course", abdm::ValueKind::kString, 0, true},
      {"title", abdm::ValueKind::kString, 20, true},
      {"credits", abdm::ValueKind::kInteger, 0, false},
  };
  EXPECT_TRUE(engine.DefineFile(f).ok());
  for (int i = 0; i < 6; ++i) {
    auto req = abdl::ParseRequest(
        "INSERT (<FILE, course>, <course, 'c" + std::to_string(i) +
        "'>, <title, 'it''s #" + std::to_string(i) + "'>, <credits, " +
        std::to_string(i) + ">)");
    EXPECT_TRUE(req.ok());
    EXPECT_TRUE(engine.Execute(*req).ok());
  }
  std::ostringstream out;
  EXPECT_TRUE(kds::SaveSnapshot(engine, out).ok());
  return out.str();
}

/// The snapshot reader is a parser too: arbitrary mangling must yield a
/// clean Status, and a failed load must roll back every file it defined
/// — a half-loaded engine would poison everything downstream.
TEST_P(ParserFuzzTest, SnapshotReaderSurvivesMangledInput) {
  FuzzInputs inputs(static_cast<uint32_t>(GetParam()) + 7000);
  const std::string valid = ReferenceSnapshot();
  std::vector<std::string> candidates;
  for (int trial = 0; trial < 20; ++trial) {
    candidates.push_back(inputs.Garbage(40 + trial * 13));
    candidates.push_back(inputs.Truncated(valid));
    candidates.push_back(inputs.Spliced(valid));
  }
  // Surgical corruptions that keep most of the structure intact.
  candidates.push_back("MLDS-SNAPSHOT 99\n" + valid.substr(valid.find('\n')));
  candidates.push_back(valid + "ATTR orphan string 0 1\n");
  candidates.push_back(valid + "INSERT (<FILE, nofile>, <x, 1>)\n");
  std::string dup = valid;
  dup += valid.substr(valid.find("FILE course"));  // file defined twice.
  candidates.push_back(dup);
  for (const auto& text : candidates) {
    kds::Engine engine;
    std::istringstream in(text);
    Status status = kds::LoadSnapshot(in, &engine);
    if (!status.ok()) {
      EXPECT_TRUE(engine.FileNames().empty())
          << "failed load left files behind: " << status.message();
    }
  }
  // The unmangled snapshot still round-trips after all that.
  kds::Engine engine;
  std::istringstream in(valid);
  ASSERT_TRUE(kds::LoadSnapshot(in, &engine).ok());
  EXPECT_EQ(engine.FileSize("course"), 6u);
}

/// Bit-flip property for the WAL scanner: flipping any single byte of a
/// valid log must never crash the scan, and whatever entries survive are
/// a strict prefix of the original — the checksum framing cannot let a
/// corrupted entry through or resynchronize past one.
TEST(ParserFuzzTest, WalScannerByteFlipsYieldOnlyEntryPrefixes) {
  kds::WalWriter wal;
  ASSERT_TRUE(wal.Append("REQUEST INSERT (<FILE, course>, <x, 1>)").ok());
  ASSERT_TRUE(wal.Append("BEGIN 1").ok());
  ASSERT_TRUE(wal.Append("TREQUEST 1 DELETE ((FILE = course))").ok());
  ASSERT_TRUE(wal.Append("COMMIT 1").ok());
  const std::string log = wal.contents();
  const kds::WalScan original = kds::ScanWal(log);
  ASSERT_EQ(original.entries.size(), 4u);
  ASSERT_FALSE(original.torn);

  for (size_t at = 0; at < log.size(); ++at) {
    for (char flip : {'\0', 'Z', '\n'}) {
      std::string mangled = log;
      if (mangled[at] == flip) continue;
      mangled[at] = flip;
      kds::WalScan scan = kds::ScanWal(mangled);
      ASSERT_LE(scan.entries.size(), original.entries.size());
      for (size_t k = 0; k < scan.entries.size(); ++k) {
        EXPECT_EQ(scan.entries[k].payload, original.entries[k].payload)
            << "byte " << at << " flip '" << flip
            << "' corrupted entry " << k << " undetected";
      }
      // Recovery over the mangled log must also fail or succeed cleanly.
      kds::Engine engine;
      std::istringstream no_checkpoint("");
      (void)kds::RecoverEngine(no_checkpoint, mangled, &engine);
    }
  }
}

TEST(ParserFuzzTest, WalScannerSurvivesGarbageLogs) {
  FuzzInputs inputs(31337);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string junk = inputs.Garbage(3 + trial * 7);
    kds::WalScan scan = kds::ScanWal(junk);
    // The alphabet has no 'E', so no frame can ever start: everything is
    // one torn tail.
    EXPECT_TRUE(scan.entries.empty());
    EXPECT_TRUE(scan.torn);
    kds::Engine engine;
    std::istringstream no_checkpoint("");
    (void)kds::RecoverEngine(no_checkpoint, junk, &engine);
    // Entry-shaped garbage: a plausible header with a bogus checksum.
    const std::string framed = "E 5 deadbeef01234567 hello\n";
    EXPECT_TRUE(kds::ScanWal(framed + junk).entries.empty());
  }
}

TEST(ParserFuzzTest, DeeplyNestedQueriesParseWithoutBlowup) {
  FuzzInputs inputs(7);
  // 200 nesting levels: recursive-descent depth must be tolerable.
  auto q = abdl::ParseQuery(inputs.Nested(200));
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->disjuncts().size(), 1u);
}

// ---------------------------------------------------------------------
// Wire-frame decoder fuzzing: the network-facing parser. Hostile bytes
// must never crash, hang, over-allocate, or produce a frame that was not
// sent — the decoder poisons itself on lost framing and stays poisoned.
// ---------------------------------------------------------------------

/// A canonical valid stream of three frames of varying payload sizes.
std::vector<common::Frame> ReferenceFrames() {
  std::vector<common::Frame> frames;
  common::Frame hello;
  hello.type = 0x01;
  hello.session_id = 0;
  hello.request_id = 1;
  hello.payload = "fuzz-client";
  frames.push_back(hello);
  common::Frame execute;
  execute.type = 0x03;
  execute.session_id = 7;
  execute.request_id = 0xDEADBEEF;
  execute.payload = "SELECT name FROM staff WHERE wage > 90";
  frames.push_back(execute);
  common::Frame empty;
  empty.type = 0x05;
  empty.session_id = 7;
  empty.request_id = 3;
  frames.push_back(empty);
  return frames;
}

std::string EncodeAll(const std::vector<common::Frame>& frames) {
  std::string stream;
  for (const common::Frame& frame : frames) {
    stream += common::EncodeFrame(frame);
  }
  return stream;
}

/// Feeds `bytes` in random-size chunks and counts clean frames; the
/// decoder must terminate for every input (no hang) and never crash.
size_t DrainAll(common::FrameDecoder& decoder, std::string_view bytes,
                std::mt19937& rng) {
  size_t frames = 0;
  size_t offset = 0;
  std::uniform_int_distribution<size_t> chunk(1, 17);
  while (offset < bytes.size()) {
    const size_t n = std::min(chunk(rng), bytes.size() - offset);
    decoder.Feed(bytes.substr(offset, n));
    offset += n;
    while (true) {
      auto decoded = decoder.Next();
      if (decoded.event == common::FrameDecoder::Event::kFrame) {
        ++frames;
        continue;
      }
      break;
    }
  }
  return frames;
}

TEST_P(ParserFuzzTest, FrameDecoderSurvivesGarbageStreams) {
  FuzzInputs inputs(static_cast<uint32_t>(GetParam()) + 9000);
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) + 9001);
  const std::string valid = EncodeAll(ReferenceFrames());
  for (int trial = 0; trial < 40; ++trial) {
    const std::string candidates[] = {
        inputs.Garbage(1 + trial * 11),
        inputs.Spliced(valid),
        inputs.Truncated(valid),
        std::string(trial, '\0'),
    };
    for (const std::string& bytes : candidates) {
      common::FrameDecoder decoder;
      (void)DrainAll(decoder, bytes, rng);
      // Poisoned decoders stay poisoned and report a cause.
      if (decoder.poisoned()) EXPECT_FALSE(decoder.error().empty());
    }
  }
}

/// Truncation at every byte boundary of a valid stream: whole frames
/// before the cut decode, nothing after it does, and the decoder simply
/// waits for more bytes (kNeedMore, not a crash or a bogus frame).
TEST(ParserFuzzTest, FrameDecoderTruncationAtEveryBoundary) {
  const std::vector<common::Frame> frames = ReferenceFrames();
  std::string valid;
  std::vector<size_t> boundaries;  // stream offset after each frame.
  for (const common::Frame& frame : frames) {
    valid += common::EncodeFrame(frame);
    boundaries.push_back(valid.size());
  }
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    common::FrameDecoder decoder;
    decoder.Feed(std::string_view(valid).substr(0, cut));
    size_t decoded = 0;
    while (decoder.Next().event == common::FrameDecoder::Event::kFrame) {
      ++decoded;
    }
    size_t expected = 0;
    for (size_t boundary : boundaries) {
      if (boundary <= cut) ++expected;
    }
    EXPECT_FALSE(decoder.poisoned()) << "cut at " << cut;
    EXPECT_EQ(decoded, expected) << "cut at " << cut;
  }
}

/// Single-byte flips across a valid two-frame stream: flips in a payload
/// or checksum must never yield that frame (the checksum catches them),
/// and no flip anywhere may crash or hang the decoder.
TEST(ParserFuzzTest, FrameDecoderBitFlipsNeverForgeFrames) {
  std::vector<common::Frame> frames = ReferenceFrames();
  const std::string valid = EncodeAll(frames);
  std::mt19937 rng(4242);
  for (size_t at = 0; at < valid.size(); ++at) {
    for (int bit : {0, 3, 7}) {
      std::string mangled = valid;
      mangled[at] = static_cast<char>(mangled[at] ^ (1 << bit));
      common::FrameDecoder decoder;
      size_t offset = 0;
      std::vector<common::Frame> decoded_frames;
      while (offset < mangled.size() && !decoder.poisoned()) {
        const size_t n = std::min<size_t>(13, mangled.size() - offset);
        decoder.Feed(std::string_view(mangled).substr(offset, n));
        offset += n;
        while (true) {
          auto decoded = decoder.Next();
          if (decoded.event != common::FrameDecoder::Event::kFrame) break;
          decoded_frames.push_back(std::move(decoded.frame));
        }
      }
      // Every frame that decoded must be byte-identical to one that was
      // sent: a flipped payload byte cannot survive the checksum.
      for (const common::Frame& got : decoded_frames) {
        bool genuine = false;
        for (const common::Frame& sent : frames) {
          if (got.type == sent.type && got.session_id == sent.session_id &&
              got.request_id == sent.request_id &&
              got.payload == sent.payload) {
            genuine = true;
            break;
          }
        }
        EXPECT_TRUE(genuine)
            << "byte " << at << " bit " << bit << " forged a frame";
      }
      EXPECT_LT(decoded_frames.size(), 3u)
          << "byte " << at << " bit " << bit << " left all frames intact";
    }
  }
}

/// N concatenated frames decode to exactly N, regardless of how the
/// bytes are chunked across Feed() calls.
TEST(ParserFuzzTest, FrameDecoderConcatenatedFramesDecodeExactly) {
  std::mt19937 rng(99);
  std::vector<common::Frame> frames;
  std::string stream;
  for (int i = 0; i < 23; ++i) {
    common::Frame frame;
    frame.type = static_cast<uint8_t>(1 + i % 8);
    frame.session_id = static_cast<uint32_t>(i);
    frame.payload = std::string(static_cast<size_t>(i * 31 % 257), 'x');
    stream += common::EncodeFrame(frame);
    frames.push_back(std::move(frame));
  }
  for (int round = 0; round < 10; ++round) {
    common::FrameDecoder decoder;
    EXPECT_EQ(DrainAll(decoder, stream, rng), frames.size());
    EXPECT_FALSE(decoder.poisoned());
  }
}

/// An oversized length field is rejected from the header alone — the
/// decoder never buffers toward the attacker's claimed length.
TEST(ParserFuzzTest, FrameDecoderRejectsOversizedLengthWithoutBuffering) {
  common::Frame frame;
  frame.type = 0x03;
  std::string encoded = common::EncodeFrame(frame);
  // Patch payload_len (v2 header offset 16) to 2 GiB.
  const uint32_t evil = 0x7fffffffu;
  encoded[16] = static_cast<char>(evil & 0xff);
  encoded[17] = static_cast<char>((evil >> 8) & 0xff);
  encoded[18] = static_cast<char>((evil >> 16) & 0xff);
  encoded[19] = static_cast<char>((evil >> 24) & 0xff);
  common::FrameDecoder decoder;
  decoder.Feed(encoded);
  auto decoded = decoder.Next();
  EXPECT_EQ(decoded.event, common::FrameDecoder::Event::kError);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_LE(decoder.buffered_bytes(), encoded.size());
  // Later bytes are discarded, not accumulated.
  decoder.Feed(std::string(1 << 16, 'y'));
  EXPECT_LE(decoder.buffered_bytes(), encoded.size());
}

/// A streamed result — kResultChunk frames closed by a kResult — cut at
/// every byte boundary: whole frames before the cut decode and their
/// chunk payloads parse back exactly; the cut frame never appears.
TEST(ParserFuzzTest, ChunkStreamTruncationAtEveryBoundary) {
  std::vector<common::Frame> frames;
  std::string valid;
  std::vector<size_t> boundaries;
  for (uint32_t seq = 0; seq < 4; ++seq) {
    common::Frame frame;
    frame.type = 0x87;  // kResultChunk
    frame.session_id = 5;
    frame.request_id = 11;
    frame.payload = wire::EncodeResultChunk(
        {seq, std::string(17 + seq * 31, static_cast<char>('a' + seq))});
    valid += common::EncodeFrame(frame);
    boundaries.push_back(valid.size());
    frames.push_back(std::move(frame));
  }
  common::Frame fin;
  fin.type = 0x82;  // kResult carrying the meta payload closes the stream
  fin.session_id = 5;
  fin.request_id = 11;
  fin.payload = wire::EncodeExecuteResult({});
  valid += common::EncodeFrame(fin);
  boundaries.push_back(valid.size());
  frames.push_back(std::move(fin));

  for (size_t cut = 0; cut <= valid.size(); ++cut) {
    common::FrameDecoder decoder;
    decoder.Feed(std::string_view(valid).substr(0, cut));
    size_t decoded = 0;
    while (true) {
      auto event = decoder.Next();
      if (event.event != common::FrameDecoder::Event::kFrame) break;
      ASSERT_LT(decoded, frames.size());
      EXPECT_EQ(event.frame.payload, frames[decoded].payload)
          << "cut at " << cut;
      if (event.frame.type == 0x87) {
        auto chunk = wire::DecodeResultChunk(event.frame.payload);
        ASSERT_TRUE(chunk.ok()) << chunk.status() << " cut at " << cut;
        EXPECT_EQ(chunk->seq, decoded);
      }
      ++decoded;
    }
    size_t expected = 0;
    for (size_t boundary : boundaries) {
      if (boundary <= cut) ++expected;
    }
    EXPECT_FALSE(decoder.poisoned()) << "cut at " << cut;
    EXPECT_EQ(decoded, expected) << "cut at " << cut;
  }
}

/// Chunk streams for several requests interleaved in random order on one
/// connection: the assembler reassembles each request's body exactly, in
/// any interleaving, and rejects any out-of-sequence chunk (a dropped,
/// duplicated, or reordered frame can never splice bytes silently).
TEST_P(ParserFuzzTest, ChunkAssemblerSurvivesHostileInterleavings) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()) + 13000);
  for (int trial = 0; trial < 20; ++trial) {
    // Three concurrent streams with distinct request ids and bodies.
    std::map<uint32_t, std::string> want;
    std::map<uint32_t, std::deque<wire::ResultChunk>> pending;
    for (uint32_t stream = 0; stream < 3; ++stream) {
      const uint32_t request_id = 100 + stream;
      std::string body;
      const size_t chunks = 1 + (trial + stream) % 5;
      for (uint32_t seq = 0; seq < chunks; ++seq) {
        std::string piece(1 + (seq * 7 + stream * 3) % 41,
                          static_cast<char>('A' + stream));
        body += piece;
        pending[request_id].push_back({seq, std::move(piece)});
      }
      want[request_id] = std::move(body);
    }
    // Random merge: pick a stream with chunks left, deliver its next
    // chunk — any cross-stream interleaving, in-order within a stream.
    client::ChunkAssembler assembler;
    while (!pending.empty()) {
      auto it = pending.begin();
      std::uniform_int_distribution<size_t> pick(0, pending.size() - 1);
      std::advance(it, pick(rng));
      const Status status = assembler.OnChunk(it->first, it->second.front());
      ASSERT_TRUE(status.ok()) << status;
      it->second.pop_front();
      if (it->second.empty()) pending.erase(it);
    }
    for (auto& [request_id, body] : want) {
      EXPECT_TRUE(assembler.streaming(request_id));
      EXPECT_EQ(assembler.Take(request_id), body);
      EXPECT_FALSE(assembler.streaming(request_id));
    }
    EXPECT_EQ(assembler.active_streams(), 0u);

    // Out-of-sequence chunks are rejected, never silently spliced.
    client::ChunkAssembler strict;
    ASSERT_TRUE(strict.OnChunk(9, {0, "first"}).ok());
    EXPECT_FALSE(strict.OnChunk(9, {0, "dup"}).ok());     // duplicate
    EXPECT_FALSE(strict.OnChunk(9, {2, "skipped"}).ok()); // gap
    ASSERT_TRUE(strict.OnChunk(9, {1, "second"}).ok());   // in order
    EXPECT_EQ(strict.Take(9), "firstsecond");
  }
}

/// The wire payload decoders (one per message) are parsers too: byte
/// salad must come back as a clean error Status, never a crash or an
/// out-of-bounds read. kfs::ParseHealth shares the property.
TEST_P(ParserFuzzTest, WirePayloadDecodersSurviveGarbage) {
  FuzzInputs inputs(static_cast<uint32_t>(GetParam()) + 11000);
  wire::ExecuteResult result;
  result.body = "name\n----\nada\n";
  result.elapsed_ms = 1.25;
  result.warnings.push_back({2, "quarantined", "injected crash"});
  const std::string valid_results[] = {
      wire::EncodeExecuteResult(result),
      wire::EncodeUseRequest({"sql", "payroll"}),
      wire::EncodeBusyReply({"session", 8, 8}),
      wire::EncodeStatsReply({}),
      wire::EncodeResultChunk({3, "name\n----\nada\n"}),
      "degraded 1\nbackend 0 healthy 3 0\nbackend 1 quarantined 0 2 hit\n",
  };
  for (int trial = 0; trial < 30; ++trial) {
    for (const std::string& valid : valid_results) {
      const std::string candidates[] = {
          inputs.Garbage(trial % 23),
          inputs.Truncated(valid),
          inputs.Spliced(valid),
      };
      for (const std::string& bytes : candidates) {
        (void)wire::DecodeExecuteResult(bytes);
        (void)wire::DecodeUseRequest(bytes);
        (void)wire::DecodeBusyReply(bytes);
        (void)wire::DecodeStatsReply(bytes);
        (void)wire::DecodeResultChunk(bytes);
        (void)wire::DecodeWireError(bytes);
        (void)wire::DecodeStatus(bytes);
        (void)kfs::ParseHealth(bytes);
      }
    }
  }
  // The unmangled encodings still round-trip after all that.
  auto round = wire::DecodeExecuteResult(valid_results[0]);
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->body, result.body);
  ASSERT_EQ(round->warnings.size(), 1u);
  EXPECT_EQ(round->warnings[0].backend_id, 2);
  auto health = kfs::ParseHealth(valid_results[5]);
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->degraded);
  ASSERT_EQ(health->backends.size(), 2u);
  EXPECT_EQ(health->backends[1].state, "quarantined");
}

// ---------------------------------------------------------------------
// Batch-INSERT grammar fuzzing: the prepared/parameterized forms added
// for bulk ingest are parsers too. Hostile parameter counts, mismatched
// rows, and zero-row batches must come back as clean Status errors.
// ---------------------------------------------------------------------

TEST_P(ParserFuzzTest, BatchInsertGrammarSurvivesHostileInputs) {
  FuzzInputs inputs(static_cast<uint32_t>(GetParam()) + 15000);
  const std::string valid_samples[] = {
      "INSERT (<FILE, staff>, <name, ?>, <wage, ?>)",
      "INSERT (<FILE, staff>, <name, 'ada'>, <wage, 90>), "
      "(<FILE, staff>, <name, 'grace'>, <wage, 87>)",
      "INSERT INTO staff (name, wage) VALUES (?, ?)",
      "INSERT INTO staff (name, wage) VALUES ('ada', 90), ('grace', 87)",
      "STORE staff (name = ?, wage = ?)",
      "CREATE student (pname = ?, major = ?)",
      "ISRT patient (pname = ?, age = ?)",
  };
  for (int trial = 0; trial < 40; ++trial) {
    constexpr size_t kSamples = std::size(valid_samples);
    const std::string candidates[] = {
        inputs.Garbage(4 + trial % 50) + "?",
        inputs.Spliced(valid_samples[trial % kSamples]),
        inputs.Truncated(valid_samples[trial % kSamples]),
        "INSERT (<FILE, staff>, <name, ??>)",
        "INSERT INTO t (a) VALUES (?), (?)",  // params in multiple rows
        "INSERT INTO t (a) VALUES (1), ",     // trailing row comma
        "INSERT INTO t (a) VALUES ()",        // empty row
    };
    for (const std::string& text : candidates) {
      // Each call must return (no crash/hang); outcome itself is free.
      (void)abdl::ParseRequest(text);
      (void)abdl::ParsePreparedInsert(text);
      (void)sql::ParseSql(text);
      (void)codasyl::ParseDmlStatement(text);
      (void)daplex::ParseDaplexStatement(text);
      (void)kms::ParseDliCall(text);
    }
  }
  SUCCEED();
}

TEST(ParserFuzzTest, ParameterMarkersOutsideInsertRejectCleanly) {
  // '?' only binds in INSERT-family field lists; everywhere else it is a
  // parse error, not a silent null.
  EXPECT_FALSE(sql::ParseSql("SELECT a FROM t WHERE a = ?").ok());
  EXPECT_FALSE(sql::ParseSql("UPDATE t SET a = ? WHERE a = 1").ok());
  EXPECT_FALSE(codasyl::ParseDmlStatement("MOVE ? TO name IN staff").ok());
  EXPECT_FALSE(kms::ParseDliCall("GU patient (pname = ?)").ok());
  EXPECT_FALSE(kms::ParseDliCall("DLET patient (pname = ?)").ok());
  EXPECT_FALSE(
      abdl::ParseRequest("RETRIEVE ((FILE = staff) and (name = ?)) (name)")
          .ok());
}

TEST(ParserFuzzTest, PreparedBindRejectsMismatchedRows) {
  auto prepared = abdl::ParsePreparedInsert(
      "INSERT (<FILE, staff>, <dept, 'sales'>, <name, ?>, <wage, ?>)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->params_per_row(), 2u);

  const std::vector<abdm::Value> narrow = {abdm::Value::String("ada")};
  const std::vector<abdm::Value> exact = {abdm::Value::String("ada"),
                                          abdm::Value::Integer(90)};
  const std::vector<abdm::Value> wide = {abdm::Value::String("ada"),
                                         abdm::Value::Integer(90),
                                         abdm::Value::Integer(7)};
  EXPECT_FALSE(prepared->BindRow(narrow).ok());
  EXPECT_TRUE(prepared->BindRow(exact).ok());
  EXPECT_FALSE(prepared->BindRow(wide).ok());

  // Zero-row batches and any row/params mismatch inside a batch fail as
  // a whole — a batch never partially binds.
  EXPECT_FALSE(prepared->Bind({}, 0, 0).ok());
  EXPECT_FALSE(prepared->Bind({exact, narrow, exact}, 0, 3).ok());
  EXPECT_FALSE(prepared->Bind({exact, wide}, 0, 2).ok());
  auto bound = prepared->Bind({exact, exact, exact}, 0, 3);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->records.size(), 3u);

  // Chunked binds clamp the end and reject empty ranges.
  EXPECT_FALSE(prepared->Bind({exact, exact}, 2, 2).ok());
  EXPECT_FALSE(prepared->Bind({exact, exact}, 5, 9).ok());
  auto tail = prepared->Bind({exact, exact, exact}, 1, 99);
  ASSERT_TRUE(tail.ok()) << tail.status();
  EXPECT_EQ(tail->records.size(), 2u);
}

TEST(ParserFuzzTest, HostileParameterCountsClampBatchSize) {
  const abdl::BatchLimits limits;  // 1024 rows, 65535 parameters
  EXPECT_EQ(abdl::EffectiveBatchSize(limits, 0), 1024u);
  EXPECT_EQ(abdl::EffectiveBatchSize(limits, 2), 1024u);
  EXPECT_EQ(abdl::EffectiveBatchSize(limits, 256), 255u);
  // A row wider than max_parameters still ships one row at a time.
  EXPECT_EQ(abdl::EffectiveBatchSize(limits, 1u << 20), 1u);
  // Degenerate knobs never yield a zero batch (infinite-loop bait).
  EXPECT_EQ(abdl::EffectiveBatchSize({0, 0}, 17), 1u);

  // A template with thousands of slots parses and reports its width;
  // the zero-slot template is legal and binds empty rows.
  std::string huge = "INSERT (<FILE, t>";
  for (int i = 0; i < 4000; ++i) {
    huge += ", <a" + std::to_string(i) + ", ?>";
  }
  huge += ")";
  auto wide = abdl::ParsePreparedInsert(huge);
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide->params_per_row(), 4000u);
  EXPECT_EQ(abdl::EffectiveBatchSize(limits, wide->params_per_row()), 16u);

  auto constant =
      abdl::ParsePreparedInsert("INSERT (<FILE, t>, <a, 1>)");
  ASSERT_TRUE(constant.ok()) << constant.status();
  EXPECT_EQ(constant->params_per_row(), 0u);
  auto bound = constant->Bind({{}, {}}, 0, 2);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->records.size(), 2u);
}

/// Record decoding reads page bytes, so a mutated payload must decode or
/// be rejected, never crash or over-allocate. Anything accepted is a valid
/// record: it re-serializes to exactly the bytes it came from, whichever
/// layout the decoder's table or previous record offered.
TEST_P(ParserFuzzTest, RecordDecoderSurvivesMutatedPayloads) {
  FuzzInputs inputs(static_cast<uint32_t>(GetParam()) + 19000);
  std::mt19937 rng(static_cast<uint32_t>(GetParam()));
  std::vector<abdm::Record> shapes(3);
  shapes[0].Set("FILE", abdm::Value::String("course"));
  shapes[0].Set("course", abdm::Value::String("c1"));
  shapes[0].Set("credits", abdm::Value::Integer(4));
  shapes[0].Set("gpa", abdm::Value::Float(3.5));
  shapes[0].Set("note", abdm::Value::Null());
  shapes[1] = abdm::Record({{"course", abdm::Value::String("c2")},
                            {"FILE", abdm::Value::String("course")},
                            {"credits", abdm::Value::Integer(-1)}},
                           "text portion");
  shapes[2].Set("x", abdm::Value::Integer(7));
  abdm::LayoutTable table;
  std::vector<std::string> valid;
  for (const auto& r : shapes) {
    table.Intern(r);
    abdm::SerializeRecord(r, valid.emplace_back());
  }
  abdm::RecordDecoder with_table(&table);
  abdm::RecordDecoder without_table;
  auto check = [&](const std::string& bytes) {
    for (abdm::RecordDecoder* decoder : {&with_table, &without_table}) {
      auto rec = decoder->Decode(bytes);
      if (!rec.has_value()) continue;
      std::string again;
      abdm::SerializeRecord(*rec, again);
      EXPECT_EQ(again, bytes);
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    const std::string& base = valid[rng() % valid.size()];
    // Decoding a valid payload first primes the decoder's last layout.
    check(base);
    std::string flipped = base;
    flipped[rng() % flipped.size()] ^= char(1u << (rng() % 8));
    check(flipped);
    check(inputs.Truncated(base));
    check(inputs.Spliced(base));
    check(inputs.Garbage(trial % 37));
  }
  // A name byte changed in place keeps the count and lengths but must not
  // decode under the previous record's layout.
  std::string renamed = valid[0];
  renamed[renamed.find("credits")] = 'k';
  check(valid[0]);
  auto rec = with_table.Decode(renamed);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->Has("kredits"));
  EXPECT_FALSE(rec->Has("credits"));
}

TEST_P(ParserFuzzTest, BatchRequestDecoderSurvivesGarbage) {
  FuzzInputs inputs(static_cast<uint32_t>(GetParam()) + 17000);
  wire::BatchRequest request;
  request.statement = "INSERT INTO staff (name, wage) VALUES (?, ?)";
  request.rows = {{abdm::Value::String("ada"), abdm::Value::Float(91.5)},
                  {abdm::Value::Null(), abdm::Value::Integer(87)}};
  const std::string valid = wire::EncodeBatchRequest(request);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string candidates[] = {
        inputs.Garbage(trial % 29),
        inputs.Truncated(valid),
        inputs.Spliced(valid),
    };
    for (const std::string& bytes : candidates) {
      (void)wire::DecodeBatchRequest(bytes);
    }
  }
  // A claimed row count far beyond the remaining bytes is rejected from
  // the header alone — the decoder never allocates toward the claim.
  std::string evil = valid.substr(0, 4 + request.statement.size());
  for (int i = 0; i < 4; ++i) evil += static_cast<char>(0xff);
  EXPECT_FALSE(wire::DecodeBatchRequest(evil).ok());

  // The unmangled encoding still round-trips after all that.
  auto round = wire::DecodeBatchRequest(valid);
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->statement, request.statement);
  ASSERT_EQ(round->rows.size(), 2u);
  ASSERT_EQ(round->rows[0].size(), 2u);
  EXPECT_EQ(round->rows[0][0].AsString(), "ada");
  EXPECT_EQ(round->rows[0][1].AsFloat(), 91.5);
  EXPECT_TRUE(round->rows[1][0].is_null());
  EXPECT_EQ(round->rows[1][1].AsInteger(), 87);
}

}  // namespace
}  // namespace mlds
