// E-streaming — chunked RETRIEVE results over the wire.
//
// A million-row RETRIEVE must not cost a million rows of server memory:
// the kfs table formatter renders incrementally (ChunkSource), the
// server emits kResultChunk frames under a write-buffer high-water cap,
// and the client reassembles the exact bytes. This bench loads a bulk
// kernel file through the executor (no per-row statement parsing),
// retrieves it over loopback, and reports:
//
//  - time-to-first-chunk vs total transfer time: streaming delivers the
//    head of the result while the tail is still being rendered/sent.
//  - server write-buffer high water vs body size: bounded by
//    write_high_water + one chunk, no matter how many rows stream.
//  - byte identity: the reassembled wire body equals the in-process
//    render of the same retrieve.
//
// Row count defaults to 120k (>= 100k rendered rows) and can be lowered
// for smoke runs with MLDS_STREAM_BENCH_ROWS.
//
// main() writes BENCH_streaming.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "abdl/request.h"
#include "abdm/record.h"
#include "abdm/schema.h"
#include "bench_json.h"
#include "client/client.h"
#include "mlds/mlds.h"
#include "server/server.h"
#include "server/session.h"

namespace {

using namespace mlds;

constexpr const char* kRetrieve =
    "RETRIEVE ((FILE = benchrows)) (name) BY name";

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int RowCount() {
  if (const char* env = std::getenv("MLDS_STREAM_BENCH_ROWS")) {
    const int rows = std::atoi(env);
    if (rows > 0) return rows;
  }
  return 120000;
}

/// Defines the bulk kernel file and loads `rows` records through the
/// executor directly — abdm::Record + abdl::InsertRequest, no statement
/// parsing — the way a data-model transformation would populate it.
bool LoadBulkFile(MldsSystem* system, int rows) {
  abdm::DatabaseDescriptor db;
  db.name = "streambench";
  abdm::FileDescriptor file;
  file.name = "benchrows";
  file.attributes.push_back(
      abdm::AttributeDescriptor{"name", abdm::ValueKind::kString, 0, true});
  file.attributes.push_back(
      abdm::AttributeDescriptor{"note", abdm::ValueKind::kString, 0, false});
  db.files.push_back(std::move(file));
  if (!system->executor()->DefineDatabase(db).ok()) return false;

  for (int i = 0; i < rows; ++i) {
    abdm::Record record;
    record.Set(abdm::kFileAttribute, abdm::Value::String("benchrows"));
    // Zero-padded so BY name sorts stably and rows render equal-width.
    char name[32];
    std::snprintf(name, sizeof(name), "row-%09d", i);
    record.Set("name", abdm::Value::String(name));
    record.Set("note", abdm::Value::String("streamed result bench row"));
    abdl::InsertRequest insert;
    insert.records.push_back(std::move(record));
    if (!system->executor()->Execute(std::move(insert)).ok()) {
      return false;
    }
  }
  return true;
}

struct StreamRun {
  bool ok = false;
  size_t body_bytes = 0;
  size_t rows_rendered = 0;
  uint64_t chunks = 0;
  double time_to_first_chunk_ms = 0.0;
  double total_ms = 0.0;
  uint64_t write_buffer_highwater = 0;
  uint64_t backpressure_stalls = 0;
  bool byte_identical = false;
  bool memory_bounded = false;
};

StreamRun MeasureStreamedRetrieve(int rows) {
  StreamRun out;
  server::ServerOptions options;  // default 256 KiB threshold, 64 KiB chunks
  MldsSystem system;
  if (!LoadBulkFile(&system, rows)) return out;
  server::MldsServer server(&system, options);
  if (!server.Start().ok()) return out;

  client::MldsClient client;
  if (!client.Connect("127.0.0.1", server.port()).ok() ||
      !client.Use("abdl", "streambench").ok()) {
    server.Shutdown();
    return out;
  }
  double first_chunk_ms = -1.0;
  auto start = std::chrono::steady_clock::now();
  client.set_chunk_observer([&](uint32_t, const wire::ResultChunk&) {
    if (first_chunk_ms < 0.0) first_chunk_ms = ElapsedMs(start);
  });

  start = std::chrono::steady_clock::now();
  Result<uint32_t> id = client.SubmitExecute(kRetrieve);
  if (!id.ok()) {
    server.Shutdown();
    return out;
  }
  Result<wire::ExecuteResult> streamed = client.AwaitResult(*id);
  out.total_ms = ElapsedMs(start);
  if (!streamed.ok()) {
    server.Shutdown();
    return out;
  }
  out.time_to_first_chunk_ms = first_chunk_ms;
  out.body_bytes = streamed->body.size();
  for (char ch : streamed->body) {
    if (ch == '\n') ++out.rows_rendered;
  }
  // Header + rule line render above the rows.
  out.rows_rendered = out.rows_rendered > 2 ? out.rows_rendered - 2 : 0;

  // In-process render of the same retrieve, for byte identity.
  server::Session local(99, &system);
  if (local.Use(wire::UseRequest{"abdl", "streambench"}).ok()) {
    Result<wire::ExecuteResult> in_process =
        local.Execute(kRetrieve, /*explain=*/false);
    out.byte_identical =
        in_process.ok() && in_process->body == streamed->body;
  }

  const wire::StatsReply stats = server.stats();
  out.chunks = stats.chunks_streamed;
  out.write_buffer_highwater = stats.write_buffer_highwater;
  out.backpressure_stalls = stats.backpressure_stalls;
  // Bounded: high water + one chunk frame + framing slack, regardless of
  // how large the body was.
  out.memory_bounded =
      stats.write_buffer_highwater <=
      options.write_high_water + options.chunk_bytes + 1024;
  out.ok = true;
  (void)client.Close();
  server.Shutdown();
  return out;
}

void WriteStreamingJson(const char* path) {
  const int rows = RowCount();
  bench::BenchReport report("streaming");
  const auto load_start = std::chrono::steady_clock::now();
  const StreamRun run = MeasureStreamedRetrieve(rows);
  const double wall_ms = ElapsedMs(load_start);

  report.root()
      .Set("rows_requested", rows)
      .Set("ok", run.ok)
      .Set("rows_rendered", static_cast<int64_t>(run.rows_rendered))
      .Set("body_bytes", static_cast<int64_t>(run.body_bytes))
      .Set("chunks_streamed", run.chunks)
      .Set("time_to_first_chunk_ms", run.time_to_first_chunk_ms)
      .Set("transfer_total_ms", run.total_ms)
      .Set("rows_per_sec",
           run.total_ms > 0.0 ? run.rows_rendered / (run.total_ms / 1000.0)
                              : 0.0)
      .Set("mib_per_sec",
           run.total_ms > 0.0
               ? run.body_bytes / (1024.0 * 1024.0) / (run.total_ms / 1000.0)
               : 0.0)
      .Set("write_buffer_highwater_bytes", run.write_buffer_highwater)
      .Set("backpressure_stalls", run.backpressure_stalls)
      .Set("memory_bounded", run.memory_bounded)
      .Set("byte_identical_to_in_process", run.byte_identical)
      .Set("load_and_run_wall_ms", wall_ms);

  if (report.Write(path)) {
    std::printf(
        "wrote %s (%zu rows, %.1f MiB, first chunk %.1f ms, total %.1f "
        "ms, %llu chunks, bounded=%d, identical=%d)\n",
        path, run.rows_rendered, run.body_bytes / (1024.0 * 1024.0),
        run.time_to_first_chunk_ms, run.total_ms,
        static_cast<unsigned long long>(run.chunks),
        run.memory_bounded ? 1 : 0, run.byte_identical ? 1 : 0);
  }
}

}  // namespace

int main() {
  WriteStreamingJson("BENCH_streaming.json");
  return 0;
}
