// E1 — MBDS response time vs. number of backends at fixed database size
// (thesis Ch. I.B.2: "nearly reciprocal decrease in the response times"),
// and E2 — capacity growth: backends grow with the database, response
// times stay invariant.
//
// Two timing domains are reported for E1:
//  - sim_ms: the simulated response time (bus + slowest backend under the
//    engines' kds::DiskModel), the quantity the paper's claim is about;
//  - wall_ms: measured wall-clock of the controller's parallel fan-out
//    with every backend engine really waiting its DiskModel cost (times
//    the latency scale), so the reciprocal behaviour is observable on
//    real hardware, not only in the model.
// E2 is simulated time only: kCapacityRecordsPerBackend records per
// backend, one full scan per backend count.
//
// main() first writes BENCH_mbds_scaling.json with all three row sets,
// then runs the registered google-benchmarks as usual.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "abdl/parser.h"
#include "bench_json.h"
#include "mbds/controller.h"

namespace {

using namespace mlds;

constexpr int kRecords = 8192;
/// Injected disk latency for the wall-clock measurement: each backend
/// really waits CostMs * kLatencyScale, concurrently (~57 ms for a
/// single-backend full scan of the 8192-record database).
constexpr double kLatencyScale = 0.05;
/// E2: the database grows with the backends, this many records each.
constexpr int kCapacityRecordsPerBackend = 1024;

abdm::FileDescriptor ItemFile() {
  abdm::FileDescriptor f;
  f.name = "item";
  f.attributes = {
      {"FILE", abdm::ValueKind::kString, 0, true},
      {"key", abdm::ValueKind::kInteger, 0, true},
      {"payload", abdm::ValueKind::kString, 0, false},
  };
  return f;
}

std::unique_ptr<mbds::Controller> MakeLoadedController(int backends,
                                                       int records) {
  mbds::MbdsOptions options;
  options.num_backends = backends;
  auto controller = std::make_unique<mbds::Controller>(options);
  controller->DefineFile(ItemFile());
  for (int i = 0; i < records; ++i) {
    auto req = abdl::ParseRequest("INSERT (<FILE, item>, <key, " +
                                  std::to_string(i) + ">, <payload, 'x'>)");
    benchmark::DoNotOptimize(controller->Execute(*req));
  }
  return controller;
}

double SimTimeOfScan(mbds::Controller* controller) {
  auto req = abdl::ParseRequest("RETRIEVE ((payload = 'x')) (key)");
  auto report = controller->Execute(*req);
  return report.ok() ? report->response_time_ms : 0.0;
}

double BaselineSimMs() {
  static const double baseline = [] {
    auto controller = MakeLoadedController(1, kRecords);
    return SimTimeOfScan(controller.get());
  }();
  return baseline;
}

void BM_MbdsScaling_FullScan(benchmark::State& state) {
  const int backends = static_cast<int>(state.range(0));
  auto controller = MakeLoadedController(backends, kRecords);
  double sim_ms = 0.0;
  for (auto _ : state) {
    sim_ms = SimTimeOfScan(controller.get());
    benchmark::DoNotOptimize(sim_ms);
  }
  state.counters["backends"] = backends;
  state.counters["sim_ms"] = sim_ms;
  state.counters["speedup_vs_1"] = BaselineSimMs() / sim_ms;
}
BENCHMARK(BM_MbdsScaling_FullScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Indexed point lookups barely profit from extra backends (only one
// backend holds the record) — the contrast the reciprocal claim rests on.
void BM_MbdsScaling_PointLookup(benchmark::State& state) {
  const int backends = static_cast<int>(state.range(0));
  auto controller = MakeLoadedController(backends, kRecords);
  auto req = abdl::ParseRequest(
      "RETRIEVE ((FILE = item) and (key = 4242)) (all attributes)");
  double sim_ms = 0.0;
  for (auto _ : state) {
    auto report = controller->Execute(*req);
    sim_ms = report.ok() ? report->response_time_ms : 0.0;
  }
  state.counters["backends"] = backends;
  state.counters["sim_ms"] = sim_ms;
}
BENCHMARK(BM_MbdsScaling_PointLookup)->Arg(1)->Arg(4)->Arg(16);

// Broadcast update: affected records spread over all partitions.
void BM_MbdsScaling_Update(benchmark::State& state) {
  const int backends = static_cast<int>(state.range(0));
  auto controller = MakeLoadedController(backends, kRecords);
  auto req =
      abdl::ParseRequest("UPDATE ((payload = 'x')) (payload = 'x')");
  double sim_ms = 0.0;
  for (auto _ : state) {
    auto report = controller->Execute(*req);
    sim_ms = report.ok() ? report->response_time_ms : 0.0;
  }
  state.counters["backends"] = backends;
  state.counters["sim_ms"] = sim_ms;
}
BENCHMARK(BM_MbdsScaling_Update)->Arg(1)->Arg(4)->Arg(16);

struct ScalingRun {
  int backends = 0;
  double sim_ms = 0.0;
  double wall_ms = 0.0;
};

/// Measures the broadcast full scan at each backend count with latency
/// injection on (E1), then the simulated full scan under proportional
/// growth (E2), and writes the machine-readable curves.
void WriteScalingJson(const char* path) {
  std::vector<ScalingRun> runs;
  for (int backends : {1, 2, 4, 8}) {
    auto controller = MakeLoadedController(backends, kRecords);
    auto req = abdl::ParseRequest("RETRIEVE ((payload = 'x')) (key)");
    controller->set_latency_scale(kLatencyScale);
    ScalingRun run;
    run.backends = backends;
    run.wall_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {  // best-of-3 wall clock
      auto report = controller->Execute(*req);
      if (!report.ok()) {
        std::fprintf(stderr, "scaling run failed: %s\n",
                     report.status().ToString().c_str());
        return;
      }
      run.sim_ms = report->response_time_ms;
      run.wall_ms = std::min(run.wall_ms, report->wall_time_ms);
    }
    controller->set_latency_scale(0.0);
    runs.push_back(run);
  }

  std::vector<ScalingRun> capacity;
  for (int backends : {1, 2, 4, 8}) {
    auto controller = MakeLoadedController(
        backends, kCapacityRecordsPerBackend * backends);
    capacity.push_back({backends, SimTimeOfScan(controller.get()), 0.0});
  }
  bool capacity_sim_invariant = true;
  for (const ScalingRun& r : capacity) {
    capacity_sim_invariant &= std::fabs(r.sim_ms - capacity[0].sim_ms) < 1e-6;
  }

  bench::BenchReport report("mbds_scaling");
  report.root()
      .Set("workload", "broadcast full-scan retrieve")
      .Set("records", kRecords)
      .Set("latency_scale", kLatencyScale)
      .Set("capacity_sim_invariant", capacity_sim_invariant)
      .Set("sim_speedup_4_ge_3x", runs[0].sim_ms / runs[2].sim_ms >= 3.0);
  for (const ScalingRun& r : runs) {
    report.AddRow("runs")
        .Set("backends", r.backends)
        .Set("sim_ms", r.sim_ms)
        .Set("wall_ms", r.wall_ms)
        .Set("sim_speedup_vs_1", runs[0].sim_ms / r.sim_ms)
        .Set("wall_speedup_vs_1", runs[0].wall_ms / r.wall_ms);
  }
  for (const ScalingRun& r : capacity) {
    report.AddRow("capacity")
        .Set("backends", r.backends)
        .Set("records", kCapacityRecordsPerBackend * r.backends)
        .Set("sim_ms", r.sim_ms);
  }
  if (report.Write(path)) {
    std::printf("wrote %s (wall speedup 4 backends vs 1: %.2fx)\n", path,
                runs[0].wall_ms / runs[2].wall_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  WriteScalingJson("BENCH_mbds_scaling.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
