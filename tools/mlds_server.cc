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
// printed as "listening on HOST:PORT" so scripts can parse it.
//
// --data-dir DIR stores kernel page files under DIR: databases written
// during the run persist across a clean restart with no snapshot calls
// (demo seeding is skipped when persisted data is found). --pool-pages
// sizes the shared buffer pool in frames (0 = write-through).
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

bool ParseUint(std::string_view text, uint64_t* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  mlds::server::ServerOptions options;
  int backends = 0;
  std::string source_path;
  std::string data_dir;
  size_t pool_pages = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t value = 0;
    if (arg == "--port" && has_value && ParseUint(argv[++i], &value)) {
      options.port = static_cast<uint16_t>(value);
    } else if (arg == "--host" && has_value) {
      options.host = argv[++i];
    } else if (arg == "--max-sessions" && has_value &&
               ParseUint(argv[++i], &value)) {
      options.max_sessions = static_cast<int>(value);
    } else if (arg == "--queue-depth" && has_value &&
               ParseUint(argv[++i], &value)) {
      options.max_queue_depth = static_cast<size_t>(value);
    } else if (arg == "--backends" && has_value &&
               ParseUint(argv[++i], &value)) {
      backends = static_cast<int>(value);
    } else if (arg == "--workers" && has_value &&
               ParseUint(argv[++i], &value)) {
      options.worker_threads = static_cast<int>(value);
    } else if (arg == "--stream-threshold" && has_value &&
               ParseUint(argv[++i], &value)) {
      options.stream_threshold = static_cast<size_t>(value);
    } else if (arg == "--chunk-bytes" && has_value &&
               ParseUint(argv[++i], &value)) {
      options.chunk_bytes = static_cast<size_t>(value);
    } else if (arg == "--write-high-water" && has_value &&
               ParseUint(argv[++i], &value)) {
      options.write_high_water = static_cast<size_t>(value);
    } else if (arg == "--source" && has_value) {
      source_path = argv[++i];
    } else if (arg == "--data-dir" && has_value) {
      data_dir = argv[++i];
    } else if (arg == "--pool-pages" && has_value &&
               ParseUint(argv[++i], &value)) {
      pool_pages = static_cast<size_t>(value);
    } else {
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
