// Ablation benchmarks for the reproduction's load-bearing design choices:
//
//  A1 — the ABDM keyword directory: the same queries with directory
//       clustering enabled vs disabled (all predicates degrade to scans).
//  A2 — storage block capacity: how records-per-block changes the
//       simulated I/O cost of selective and exhaustive retrievals.
//  A3 — MBDS overhead sensitivity: how the bus round trip and per-request
//       seek affect the reciprocal-speedup claim (the "nearly" in
//       "nearly reciprocal").

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "abdl/parser.h"
#include "kds/engine.h"
#include "mbds/controller.h"

namespace {

using namespace mlds;

abdm::FileDescriptor ItemFile(bool directory) {
  abdm::FileDescriptor f;
  f.name = "item";
  f.attributes = {
      {"FILE", abdm::ValueKind::kString, 0, true},
      {"key", abdm::ValueKind::kInteger, 0, directory},
      {"grp", abdm::ValueKind::kInteger, 0, directory},
      {"payload", abdm::ValueKind::kString, 0, false},
  };
  return f;
}

std::unique_ptr<kds::Engine> MakeEngine(bool directory, int records,
                                        int block_capacity = 16) {
  kds::EngineOptions options;
  options.block_capacity = block_capacity;
  auto engine = std::make_unique<kds::Engine>(options);
  engine->DefineFile(ItemFile(directory));
  for (int i = 0; i < records; ++i) {
    auto req = abdl::ParseRequest(
        "INSERT (<FILE, item>, <key, " + std::to_string(i) + ">, <grp, " +
        std::to_string(i % 50) + ">, <payload, 'x'>)");
    benchmark::DoNotOptimize(engine->Execute(*req));
  }
  return engine;
}

// --- A1: directory on/off ---

void BM_Ablation_Directory(benchmark::State& state) {
  const bool directory = state.range(0) != 0;
  auto engine = MakeEngine(directory, 20000);
  auto req = abdl::ParseRequest(
      "RETRIEVE ((FILE = item) and (grp = 17)) (key)");
  uint64_t blocks = 0;
  for (auto _ : state) {
    auto resp = engine->Execute(*req);
    if (resp.ok()) blocks = resp->io.blocks_read;
  }
  state.counters["directory"] = directory ? 1 : 0;
  state.counters["blocks_read"] = static_cast<double>(blocks);
}
BENCHMARK(BM_Ablation_Directory)->Arg(0)->Arg(1);

void BM_Ablation_DirectoryPointLookup(benchmark::State& state) {
  const bool directory = state.range(0) != 0;
  auto engine = MakeEngine(directory, 20000);
  auto req = abdl::ParseRequest(
      "RETRIEVE ((FILE = item) and (key = 777)) (all attributes)");
  uint64_t blocks = 0;
  for (auto _ : state) {
    auto resp = engine->Execute(*req);
    if (resp.ok()) blocks = resp->io.blocks_read;
  }
  state.counters["directory"] = directory ? 1 : 0;
  state.counters["blocks_read"] = static_cast<double>(blocks);
}
BENCHMARK(BM_Ablation_DirectoryPointLookup)->Arg(0)->Arg(1);

// --- A2: block capacity sweep ---

void BM_Ablation_BlockCapacity(benchmark::State& state) {
  const int capacity = static_cast<int>(state.range(0));
  auto engine = MakeEngine(true, 20000, capacity);
  auto req = abdl::ParseRequest(
      "RETRIEVE ((FILE = item) and (grp = 17)) (key)");
  uint64_t blocks = 0;
  for (auto _ : state) {
    auto resp = engine->Execute(*req);
    if (resp.ok()) blocks = resp->io.blocks_read;
  }
  state.counters["block_capacity"] = capacity;
  state.counters["blocks_read"] = static_cast<double>(blocks);
}
BENCHMARK(BM_Ablation_BlockCapacity)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// --- A3: MBDS overhead sensitivity ---

double SimScanMs(int backends, double seek_ms, double bus_ms) {
  mbds::MbdsOptions options;
  options.num_backends = backends;
  options.engine.disk.seek_ms = seek_ms;
  options.bus.broadcast_ms = bus_ms;
  options.bus.reply_ms = bus_ms;
  mbds::Controller controller(options);
  controller.DefineFile(ItemFile(true));
  for (int i = 0; i < 4096; ++i) {
    auto req = abdl::ParseRequest("INSERT (<FILE, item>, <key, " +
                                  std::to_string(i) + ">, <payload, 'x'>)");
    controller.Execute(*req);
  }
  auto req = abdl::ParseRequest("RETRIEVE ((payload = 'x')) (key)");
  auto report = controller.Execute(*req);
  return report.ok() ? report->response_time_ms : 0.0;
}

void BM_Ablation_MbdsOverhead(benchmark::State& state) {
  // range(0): seek ms; range(1): bus ms. Reports 16-backend speedup.
  const double seek = static_cast<double>(state.range(0));
  const double bus = static_cast<double>(state.range(1));
  double speedup = 0.0;
  for (auto _ : state) {
    const double t1 = SimScanMs(1, seek, bus);
    const double t16 = SimScanMs(16, seek, bus);
    speedup = t1 / t16;
  }
  state.counters["seek_ms"] = seek;
  state.counters["bus_ms"] = bus;
  state.counters["speedup_16"] = speedup;
}
BENCHMARK(BM_Ablation_MbdsOverhead)
    ->Args({0, 0})     // ideal: no fixed costs -> ~16x
    ->Args({28, 1})    // default late-80s disk + light bus
    ->Args({28, 50})   // congested bus erodes the speedup
    ->Args({200, 1});  // seek-dominated disk erodes it too

}  // namespace

BENCHMARK_MAIN();
