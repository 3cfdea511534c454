#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "abdl/parser.h"
#include "common/backoff.h"
#include "kc/executor.h"
#include "mbds/controller.h"

namespace mlds::mbds {
namespace {

using abdm::FileDescriptor;
using abdm::ValueKind;

FileDescriptor ItemFile() {
  FileDescriptor f;
  f.name = "item";
  f.attributes = {
      {"FILE", ValueKind::kString, 0, true},
      {"key", ValueKind::kInteger, 0, true},
      {"payload", ValueKind::kString, 0, false},
  };
  return f;
}

abdl::Request MustParse(std::string_view text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

/// Four backends with the availability machinery on: a wall-clock
/// deadline (stalls need one to resolve), two retries with a pinned
/// backoff schedule, and small health thresholds so quarantine and
/// reintegration happen within a handful of requests. Backoff delays are
/// always simulated, so nothing here sleeps except a deadline wait when
/// a test stalls a backend on purpose.
Controller MakeFaultTolerant(int backends = 4, size_t pool_pages = 0) {
  MbdsOptions options;
  options.num_backends = backends;
  options.engine.block_capacity = 4;
  options.engine.pool_pages = pool_pages;
  options.fault_tolerance.request_deadline_ms = 250.0;
  options.fault_tolerance.max_retries = 2;
  options.fault_tolerance.backoff = {.base_ms = 4.0,
                                     .multiplier = 2.0,
                                     .max_ms = 64.0,
                                     .jitter = 0.0};
  // Deliberately NOT the HealthPolicy defaults, so these tests prove the
  // configured thresholds reach the per-backend trackers.
  options.fault_tolerance.health = {.quarantine_after = 2,
                                    .reintegrate_after = 3};
  return Controller(options);
}

void Load(Controller* c, int n) {
  ASSERT_TRUE(c->DefineFile(ItemFile()).ok());
  for (int i = 0; i < n; ++i) {
    auto resp = c->Execute(MustParse("INSERT (<FILE, item>, <key, " +
                                     std::to_string(i) +
                                     ">, <payload, 'x'>)"));
    ASSERT_TRUE(resp.ok()) << resp.status();
  }
}

bool HasWarningFor(const std::vector<kds::PartialResultWarning>& warnings,
                   int backend_id) {
  for (const auto& w : warnings) {
    if (w.backend_id == backend_id) return true;
  }
  return false;
}

/// Every kernel counter in `after` is at least its value in `before`:
/// a client taking a STATS delta must never see one step backwards.
void ExpectNoCounterBelow(const kds::KernelCounters& before,
                          const kds::KernelCounters& after) {
  EXPECT_GE(after.pool.hits, before.pool.hits);
  EXPECT_GE(after.pool.misses, before.pool.misses);
  EXPECT_GE(after.pool.evictions, before.pool.evictions);
  EXPECT_GE(after.pool.dirty_writebacks, before.pool.dirty_writebacks);
  EXPECT_GE(after.integrity.checksum_failures,
            before.integrity.checksum_failures);
  EXPECT_GE(after.integrity.io_errors_injected,
            before.integrity.io_errors_injected);
  EXPECT_GE(after.integrity.io_errors_real, before.integrity.io_errors_real);
  EXPECT_GE(after.integrity.pages_scrubbed, before.integrity.pages_scrubbed);
  EXPECT_GE(after.integrity.files_rebuilt, before.integrity.files_rebuilt);
  EXPECT_GE(after.integrity.fsyncs, before.integrity.fsyncs);
  EXPECT_GE(after.statistics.histogram_builds,
            before.statistics.histogram_builds);
  EXPECT_GE(after.statistics.replans, before.statistics.replans);
  EXPECT_GE(after.statistics.hash_joins, before.statistics.hash_joins);
  EXPECT_GE(after.statistics.merge_joins, before.statistics.merge_joins);
}

// ---------------------------------------------------------------------
// Backoff schedule: purely computational, pinned exactly.

TEST(BackoffTest, UnjitteredScheduleIsExactExponentialWithCap) {
  common::Backoff backoff({.base_ms = 4.0,
                           .multiplier = 2.0,
                           .max_ms = 64.0,
                           .jitter = 0.0},
                          /*seed=*/1);
  const double expected[] = {4.0, 8.0, 16.0, 32.0, 64.0, 64.0, 64.0};
  for (int k = 0; k < 7; ++k) {
    EXPECT_DOUBLE_EQ(backoff.UnjitteredDelayMs(k), expected[k]) << "k=" << k;
  }
  for (int k = 0; k < 7; ++k) {
    EXPECT_DOUBLE_EQ(backoff.NextDelayMs(), expected[k]) << "k=" << k;
  }
  EXPECT_EQ(backoff.attempts(), 7);
}

TEST(BackoffTest, JitterStaysWithinBoundsAndIsSeedDeterministic) {
  common::BackoffPolicy policy{.base_ms = 8.0,
                               .multiplier = 2.0,
                               .max_ms = 512.0,
                               .jitter = 0.5};
  common::Backoff a(policy, /*seed=*/7);
  common::Backoff b(policy, /*seed=*/7);
  common::Backoff c(policy, /*seed=*/8);
  bool seeds_diverged = false;
  for (int k = 0; k < 6; ++k) {
    const double full = a.UnjitteredDelayMs(k);
    const double da = a.NextDelayMs();
    const double db = b.NextDelayMs();
    const double dc = c.NextDelayMs();
    // delay = full * (1 - jitter * u), u in [0, 1).
    EXPECT_GT(da, full * (1.0 - policy.jitter) - 1e-9) << "k=" << k;
    EXPECT_LE(da, full + 1e-9) << "k=" << k;
    EXPECT_DOUBLE_EQ(da, db) << "same seed must replay identically, k=" << k;
    if (da != dc) seeds_diverged = true;
  }
  EXPECT_TRUE(seeds_diverged) << "distinct seeds should spread retriers";
}

// ---------------------------------------------------------------------
// Retries and quarantine on broadcast reads.

TEST(BackendFailoverTest, TransientErrorIsRetriedToSuccess) {
  Controller c = MakeFaultTolerant();
  Load(&c, 40);
  // Two consecutive transient errors, retry budget of two: the third
  // attempt reaches the engine. (The injector counts attempts since
  // construction, so the load phase's inserts are part of the tally.)
  const uint64_t attempts_before = c.backend(1).injector().attempts();
  c.InjectFault(1, {.kind = FaultKind::kError, .at_attempt = 0, .count = 2});
  auto report = c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)"));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->response.records.size(), 40u);
  EXPECT_TRUE(report->response.warnings.empty());
  EXPECT_EQ(c.backend(1).injector().faults_served(), 2u);
  EXPECT_EQ(c.backend(1).injector().attempts() - attempts_before, 3u);
  EXPECT_EQ(c.backend(1).health().state(), BackendHealth::kHealthy);
  // The retries charge their (simulated) backoff to this backend's time:
  // 4 + 8 ms under the pinned schedule.
  ASSERT_EQ(report->backend_times_ms.size(), 4u);
  EXPECT_GE(report->backend_times_ms[1], 12.0);
}

TEST(BackendFailoverTest, PersistentFaultYieldsPartialResultWithWarning) {
  Controller c = MakeFaultTolerant();
  Load(&c, 40);
  c.InjectFault(2, {.kind = FaultKind::kError, .at_attempt = 0, .count = 100});
  auto report = c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)"));
  ASSERT_TRUE(report.ok()) << report.status();
  // The other three backends' shares arrive; the faulty one is reported,
  // never silently dropped.
  EXPECT_EQ(report->response.records.size(), 30u);
  ASSERT_EQ(report->response.warnings.size(), 1u);
  EXPECT_EQ(report->response.warnings[0].backend_id, 2);
  EXPECT_EQ(report->response.warnings[0].state, "suspect");
  EXPECT_EQ(c.backend(2).health().state(), BackendHealth::kSuspect);

  // One more failing read exhausts quarantine_after = 2.
  ASSERT_TRUE(c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)")).ok());
  EXPECT_EQ(c.backend(2).health().state(), BackendHealth::kQuarantined);
  // Quarantined partitions drop out of the global size until they rejoin.
  EXPECT_EQ(c.FileSize("item"), 30u);

  ControllerHealth health = c.Health();
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.backends[2].state, BackendHealth::kQuarantined);
  EXPECT_GE(health.backends[2].faults_injected, 6u);  // 2 requests x 3 tries.
}

TEST(BackendFailoverTest, CrashQuarantinesImmediately) {
  Controller c = MakeFaultTolerant();
  Load(&c, 40);
  c.InjectFault(3, {.kind = FaultKind::kCrash, .at_attempt = 0, .count = 1});
  auto report = c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)"));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->response.records.size(), 30u);
  ASSERT_TRUE(HasWarningFor(report->response.warnings, 3));
  // A crash is fatal on the first strike — no three-failure grace.
  EXPECT_EQ(c.backend(3).health().state(), BackendHealth::kQuarantined);
  EXPECT_NE(c.backend(3).health().last_fault().find("crash"),
            std::string::npos);
}

TEST(BackendFailoverTest, StalledBackendTripsDeadlineInsteadOfHanging) {
  Controller c = MakeFaultTolerant();
  Load(&c, 40);
  c.InjectFault(0, {.kind = FaultKind::kStall, .at_attempt = 0, .count = 1});
  auto report = c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)"));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->response.records.size(), 30u);
  ASSERT_EQ(report->response.warnings.size(), 1u);
  EXPECT_EQ(report->response.warnings[0].backend_id, 0);
  EXPECT_NE(report->response.warnings[0].detail.find("deadline"),
            std::string::npos);
  // The fan-out waited out the 250 ms deadline, not the stall (which
  // never ends on its own). Allow generous scheduler slack.
  EXPECT_LT(report->wall_time_ms, 30000.0);
  EXPECT_EQ(c.backend(0).health().state(), BackendHealth::kSuspect);
}

// ---------------------------------------------------------------------
// Quarantine catch-up and reintegration.

TEST(BackendFailoverTest, QuarantinedBackendReintegratesViaWalReplay) {
  Controller c = MakeFaultTolerant(4, /*pool_pages=*/8);
  Load(&c, 40);
  ASSERT_EQ(c.backend(1).engine().FileSize("item"), 10u);
  // Reads before the crash give backend 1's engine more pool hits than
  // the other backends serve while it is out, so dropping the retired
  // engine's counters at the swap would show as a step backwards.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)")).ok());
  }
  kc::MbdsExecutor executor(&c);
  const kds::KernelCounters before_crash = executor.Counters();

  // Strike 1: a crash on a broadcast mutation — fatal, quarantined.
  c.InjectFault(1, {.kind = FaultKind::kCrash, .at_attempt = 0, .count = 1});
  auto crash_report =
      c.Execute(MustParse("UPDATE ((FILE = item)) (payload = 'y')"));
  ASSERT_TRUE(crash_report.ok()) << crash_report.status();
  EXPECT_EQ(crash_report->response.affected, 30u);  // three live partitions.
  ASSERT_TRUE(HasWarningFor(crash_report->response.warnings, 1));
  EXPECT_EQ(c.backend(1).health().state(), BackendHealth::kQuarantined);

  // Three requests while quarantined: the broadcast mutation is appended
  // to the sidelined backend's log as catch-up; the reads are merely
  // missed.
  auto update2 = c.Execute(
      MustParse("UPDATE ((FILE = item) and (key < 4)) (payload = 'z')"));
  ASSERT_TRUE(update2.ok());
  EXPECT_EQ(update2->response.affected, 3u);  // key 1 lives on backend 1.
  ASSERT_TRUE(HasWarningFor(update2->response.warnings, 1));
  for (int i = 0; i < 2; ++i) {
    auto read = c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)"));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->response.records.size(), 30u);
  }

  // reintegrate_after = 3 requests have been sat out: the next request
  // first reintegrates (torn-tail repair, rebuild from checkpoint + full
  // log replay including the catch-up), then fans out to all four.
  auto healed = c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)"));
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(c.backend(1).health().state(), BackendHealth::kHealthy);
  EXPECT_EQ(healed->response.records.size(), 40u);
  EXPECT_TRUE(healed->response.warnings.empty());
  EXPECT_EQ(c.FileSize("item"), 40u);
  EXPECT_EQ(c.backend(1).engine().FileSize("item"), 10u);
  EXPECT_EQ(c.backend(1).health().quarantine_count(), 1u);
  // The rebuilt engine replaced the dead one; its counters live on.
  ExpectNoCounterBelow(before_crash, executor.Counters());

  // The rebuilt partition holds every mutation it missed: both updates
  // applied to its records exactly once.
  auto z = c.Execute(MustParse(
      "RETRIEVE ((FILE = item) and (payload = 'z')) (key) BY key"));
  ASSERT_TRUE(z.ok());
  ASSERT_EQ(z->response.records.size(), 4u);  // keys 0..3 across backends.
  auto y = c.Execute(MustParse(
      "RETRIEVE ((FILE = item) and (payload = 'y')) (key)"));
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->response.records.size(), 36u);
}

TEST(BackendFailoverTest, RebuiltBackendKeepsTheLatencyScale) {
  Controller c = MakeFaultTolerant();
  Load(&c, 40);
  // Small enough that every backend's wait stays far below the deadline.
  constexpr double kScale = 0.2;
  c.set_latency_scale(kScale);
  const kds::Engine* crashed = &c.backend(1).engine();

  // Crash backend 1 on a mutation, sit out reintegrate_after = 3
  // requests, and let the next one rebuild it from its log.
  c.InjectFault(1, {.kind = FaultKind::kCrash, .at_attempt = 0, .count = 1});
  ASSERT_TRUE(c.Execute(MustParse("UPDATE ((FILE = item)) (payload = 'y')"))
                  .ok());
  ASSERT_EQ(c.backend(1).health().state(), BackendHealth::kQuarantined);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)")).ok());
  }
  ASSERT_EQ(c.backend(1).health().state(), BackendHealth::kHealthy);
  kds::Engine& rebuilt = c.mutable_backend(1).engine();
  ASSERT_NE(&rebuilt, crashed);

  // The rebuilt engine still waits its disk cost times the scale.
  const auto start = std::chrono::steady_clock::now();
  auto scan = rebuilt.Execute(MustParse("RETRIEVE ((FILE = item)) (key)"));
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(scan.ok()) << scan.status();
  const double wait_ms = rebuilt.options().disk.CostMs(scan->io) * kScale;
  EXPECT_GT(wait_ms, 0.0);
  EXPECT_GE(wall_ms, wait_ms - 0.01);
  c.set_latency_scale(0.0);
}

TEST(BackendFailoverTest, InsertFailsOverToNextAvailableBackend) {
  Controller c = MakeFaultTolerant();
  ASSERT_TRUE(c.DefineFile(ItemFile()).ok());
  // First insert targets backend 0 (round-robin from zero); its crash
  // fires before the record reaches the engine, so failover is safe.
  c.InjectFault(0, {.kind = FaultKind::kCrash, .at_attempt = 0, .count = 1});
  auto report = c.Execute(
      MustParse("INSERT (<FILE, item>, <key, 0>, <payload, 'x'>)"));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->response.affected, 1u);
  ASSERT_TRUE(HasWarningFor(report->response.warnings, 0));
  EXPECT_EQ(c.backend(0).health().state(), BackendHealth::kQuarantined);
  EXPECT_EQ(c.backend(0).engine().FileSize("item"), 0u);
  EXPECT_EQ(c.FileSize("item"), 1u);
  // The record landed on a live backend and is logged there — not in the
  // dead backend's log, which would resurrect it as a duplicate.
  EXPECT_EQ(c.backend(1).engine().FileSize("item"), 1u);
  EXPECT_EQ(c.backend(1).wal().entry_count(), 2u);  // DEFINE + the insert.
}

TEST(BackendFailoverTest, CheckpointBoundsReplayAndTruncatesLogs) {
  Controller c = MakeFaultTolerant();
  Load(&c, 40);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.backend(i).wal().entry_count(), 11u);  // DEFINE + 10 inserts.
  }
  ASSERT_TRUE(c.CheckpointAll().ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.backend(i).wal().entry_count(), 0u);
    EXPECT_FALSE(c.backend(i).checkpoint().empty());
  }

  // Post-checkpoint: quarantine backend 2, mutate, reintegrate. Recovery
  // now starts from the checkpoint, replaying only the short tail.
  c.InjectFault(2, {.kind = FaultKind::kCrash, .at_attempt = 0, .count = 1});
  ASSERT_TRUE(
      c.Execute(MustParse("UPDATE ((FILE = item)) (payload = 'w')")).ok());
  EXPECT_EQ(c.backend(2).health().state(), BackendHealth::kQuarantined);
  ASSERT_TRUE(
      c.Execute(MustParse("DELETE ((FILE = item) and (key = 0))")).ok());
  ASSERT_TRUE(c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)")).ok());
  ASSERT_TRUE(c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)")).ok());
  auto healed = c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)"));
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(c.backend(2).health().state(), BackendHealth::kHealthy);
  EXPECT_EQ(healed->response.records.size(), 39u);
  auto w = c.Execute(
      MustParse("RETRIEVE ((FILE = item) and (payload = 'w')) (key)"));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->response.records.size(), 39u);
}

TEST(BackendFailoverTest, AllBackendsQuarantinedReportsUnavailable) {
  Controller c = MakeFaultTolerant(2);
  Load(&c, 8);
  // Quarantine one backend at a time: a mutation with at least one live
  // backend still succeeds (partially, with a warning)...
  c.InjectFault(0, {.kind = FaultKind::kCrash, .at_attempt = 0, .count = 1});
  ASSERT_TRUE(
      c.Execute(MustParse("UPDATE ((FILE = item)) (payload = 'y')")).ok());
  EXPECT_EQ(c.backend(0).health().state(), BackendHealth::kQuarantined);
  // ...but when the sole remaining backend crashes too, there is no
  // partial result left to report.
  c.InjectFault(1, {.kind = FaultKind::kCrash, .at_attempt = 0, .count = 1});
  auto update = c.Execute(MustParse("UPDATE ((FILE = item)) (payload = 'z')"));
  EXPECT_FALSE(update.ok());
  EXPECT_EQ(c.backend(1).health().state(), BackendHealth::kQuarantined);
  auto report = c.Execute(MustParse("RETRIEVE ((FILE = item)) (key)"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
}

TEST(BackendFailoverTest, SeededFaultPlansAreReproducible) {
  FaultPlan a = FaultInjector::Seeded(FaultKind::kError, /*seed=*/99,
                                      /*window=*/32, /*count=*/2);
  FaultPlan b = FaultInjector::Seeded(FaultKind::kError, /*seed=*/99,
                                      /*window=*/32, /*count=*/2);
  EXPECT_EQ(a.at_attempt, b.at_attempt);
  EXPECT_LT(a.at_attempt, 32u);
  EXPECT_EQ(a.count, 2);
  FaultPlan other = FaultInjector::Seeded(FaultKind::kError, /*seed=*/100,
                                          /*window=*/1u << 20, /*count=*/2);
  EXPECT_NE(a.at_attempt, other.at_attempt);
}

}  // namespace
}  // namespace mlds::mbds
