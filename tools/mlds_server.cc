// The MLDS session server binary: loads the demo databases (university
// functional, payroll relational, clinic hierarchical) into one
// MldsSystem, serves the wire protocol on a TCP port, and drains
// gracefully on a remote SHUTDOWN frame or SIGINT/SIGTERM.
//
//   mlds_server [--port N] [--host A.B.C.D] [--max-sessions N]
//               [--queue-depth N] [--backends N] [--workers N]
//               [--stream-threshold BYTES] [--chunk-bytes BYTES]
//               [--write-high-water BYTES] [--source FILE]
//               [--data-dir DIR] [--pool-pages N]
//
// --port 0 (the default) binds an ephemeral port; the chosen port is
// printed as "listening on HOST:PORT" so scripts can parse it. A numeric
// value that is not a number or does not fit its field prints the usage
// line and exits 2.
//
// --workers N runs max(1, N) server threads (default 2). Each thread
// reads a request, executes it and writes its reply, so N bounds how
// many statements run at once; --workers 0 is the serial mode, where a
// long statement delays every other connection.
//
// --data-dir DIR stores kernel page files under DIR: databases written
// during the run persist across a clean restart with no snapshot calls
// (demo seeding is skipped when persisted data is found). --pool-pages
// sizes the shared buffer pool in frames (0 = write-through).
//
// The server's engines (the single engine and each --backends engine)
// fill every page by bytes: their record cap per page is
// kds::kPageLimitedCapacity, not the engine default of 16 records that
// models the thesis's block. A 93-byte payroll `staff` record then packs
// about 80 to an 8 KiB page instead of 16. A page file restored from
// --data-dir keeps the cap it was written with (its `CAP` line); new
// files, and files rebuilt by crash or corruption recovery, fill by
// bytes.
//
// --source FILE replays a bulk-load script over a loopback client
// session right after the demo databases come up, so the server starts
// serving pre-seeded data. Script lines are statements in the language
// bound by the most recent `.use <language> <database>` line; '#' and
// '--' start comments. An unreadable script is fatal; statement
// failures are reported and counted but the server keeps serving.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <charconv>
#include <limits>
#include <string>
#include <string_view>

#include "client/client.h"
#include "client/script.h"
#include "mlds/mlds.h"
#include "server/demo.h"
#include "server/server.h"

namespace {

std::atomic<mlds::server::MldsServer*> g_server{nullptr};

void HandleSignal(int) {
  // Async-signal-safe: just flag the server; the main thread's
  // WaitForShutdownRequest() is woken by Shutdown() at exit. We cannot
  // take locks here, so poke the process to exit its wait via a second
  // signal-safe path: write a note and rely on the wait predicate.
  mlds::server::MldsServer* server = g_server.load();
  if (server != nullptr) server->NoteShutdownRequested();
}

/// Parses a decimal flag value into `*out`; false when the text is not a
/// number or the value does not fit `T`, so an out-of-range value is
/// rejected rather than wrapped.
template <typename T>
bool ParseFlag(std::string_view text, T* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end ||
      value > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mlds::server::ServerOptions options;
  int backends = 0;
  std::string source_path;
  std::string data_dir;
  size_t pool_pages = 0;
  // Every flag takes one value.
  for (int i = 1; i < argc; i += 2) {
    const std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = true;
    if (value == nullptr) {
      ok = false;
    } else if (arg == "--port") {
      ok = ParseFlag(value, &options.port);
    } else if (arg == "--host") {
      options.host = value;
    } else if (arg == "--max-sessions") {
      ok = ParseFlag(value, &options.max_sessions);
    } else if (arg == "--queue-depth") {
      ok = ParseFlag(value, &options.max_queue_depth);
    } else if (arg == "--backends") {
      ok = ParseFlag(value, &backends);
    } else if (arg == "--workers") {
      ok = ParseFlag(value, &options.worker_threads);
    } else if (arg == "--stream-threshold") {
      ok = ParseFlag(value, &options.stream_threshold);
    } else if (arg == "--chunk-bytes") {
      ok = ParseFlag(value, &options.chunk_bytes);
    } else if (arg == "--write-high-water") {
      ok = ParseFlag(value, &options.write_high_water);
    } else if (arg == "--source") {
      source_path = value;
    } else if (arg == "--data-dir") {
      data_dir = value;
    } else if (arg == "--pool-pages") {
      ok = ParseFlag(value, &pool_pages);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: mlds_server [--port N] [--host A.B.C.D] "
                   "[--max-sessions N] [--queue-depth N] [--backends N] "
                   "[--workers N] [--stream-threshold BYTES] "
                   "[--chunk-bytes BYTES] [--write-high-water BYTES] "
                   "[--source FILE] [--data-dir DIR] [--pool-pages N]\n");
      return 2;
    }
  }

  mlds::MldsSystem::Options system_options;
  system_options.backends = backends;
  system_options.engine.block_capacity = mlds::kds::kPageLimitedCapacity;
  system_options.engine.data_dir = data_dir;
  system_options.engine.pool_pages = pool_pages;
  mlds::MldsSystem system(system_options);
  const mlds::Status loaded = mlds::server::LoadDemoDatabases(&system);
  if (!loaded.ok()) {
    std::fprintf(stderr, "demo database load failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }

  mlds::server::MldsServer server(&system, options);
  const mlds::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  g_server.store(&server);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Seed the freshly loaded databases from a bulk-load script before
  // announcing readiness, replaying it over a loopback session — the
  // same path any client takes, so the script exercises the wire
  // protocol, not a side door.
  if (!source_path.empty()) {
    mlds::client::MldsClient seeder;
    const mlds::Status connected =
        seeder.Connect(options.host, server.port(), "mlds-server-source");
    if (!connected.ok()) {
      std::fprintf(stderr, "source connect failed: %s\n",
                   connected.ToString().c_str());
      server.Shutdown();
      return 1;
    }
    mlds::Result<mlds::client::ScriptSummary> sourced =
        mlds::client::RunScript(seeder, source_path,
                                /*stop_on_error=*/false, /*out=*/nullptr);
    if (!sourced.ok()) {
      std::fprintf(stderr, "source failed: %s\n",
                   sourced.status().ToString().c_str());
      server.Shutdown();
      return 1;
    }
    (void)seeder.Close();
    std::printf("sourced %s: %zu statement(s), %zu failed\n",
                source_path.c_str(), sourced->statements, sourced->failed);
  }

  std::printf("listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  server.WaitForShutdownRequest();
  std::printf("draining\n");
  std::fflush(stdout);
  g_server.store(nullptr);
  server.Shutdown();
  std::printf("stopped\n");
  return 0;
}
