// Multi-user tests: concurrent sessions over one shared kernel engine —
// the thesis's "single-user systems that will eventually be modified to
// multi-user systems" (Ch. IV.A), realized through the engine's
// per-request atomicity.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "abdl/parser.h"
#include "kds/engine.h"
#include "mlds/mlds.h"
#include "university/university.h"

namespace mlds {
namespace {

abdm::FileDescriptor ItemFile() {
  abdm::FileDescriptor f;
  f.name = "item";
  f.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                  {"key", abdm::ValueKind::kInteger, 0, true},
                  {"owner", abdm::ValueKind::kInteger, 0, true}};
  return f;
}

TEST(ConcurrencyTest, ParallelInsertsAllLand) {
  kds::Engine engine;
  ASSERT_TRUE(engine.DefineFile(ItemFile()).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto req = abdl::ParseRequest(
            "INSERT (<FILE, item>, <key, " + std::to_string(t * 1000 + i) +
            ">, <owner, " + std::to_string(t) + ">)");
        if (!req.ok() || !engine.Execute(*req).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.FileSize("item"),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(ConcurrencyTest, ReadersSeeConsistentSnapshotsUnderWrites) {
  kds::Engine engine;
  ASSERT_TRUE(engine.DefineFile(ItemFile()).ok());
  // Writers insert pairs atomically via transactions; readers count and
  // must always observe an even total (per-request atomicity + whole
  // transactions under one lock).
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::thread writer([&] {
    int key = 0;
    while (!stop.load() && key < 4000) {
      const int first = key++;
      const int second = key++;
      auto txn = abdl::ParseTransaction(
          "INSERT (<FILE, item>, <key, " + std::to_string(first) +
          ">, <owner, 1>); INSERT (<FILE, item>, <key, " +
          std::to_string(second) + ">, <owner, 1>)");
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(engine.ExecuteTransaction(*txn).ok());
    }
  });
  std::thread reader([&] {
    auto req =
        abdl::ParseRequest("RETRIEVE ((FILE = item)) (COUNT(key))");
    ASSERT_TRUE(req.ok());
    for (int i = 0; i < 60; ++i) {
      auto resp = engine.Execute(*req);
      if (!resp.ok()) {
        bad_reads.fetch_add(1);
        continue;
      }
      const int64_t count =
          resp->records[0].GetOrNull("COUNT(key)").AsInteger();
      if (count % 2 != 0) bad_reads.fetch_add(1);
    }
  });
  reader.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(bad_reads.load(), 0);
}

TEST(ConcurrencyTest, ConcurrentReadersMatchSerialReplay) {
  // Shared-lock retrieves run truly concurrently under the two-level
  // locking scheme; every thread must still see exactly the results a
  // serial replay of its queries produces.
  kds::Engine engine;
  ASSERT_TRUE(engine.DefineFile(ItemFile()).ok());
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    auto req = abdl::ParseRequest(
        "INSERT (<FILE, item>, <key, " + std::to_string(i) + ">, <owner, " +
        std::to_string(i % 7) + ">)");
    ASSERT_TRUE(req.ok());
    ASSERT_TRUE(engine.Execute(*req).ok());
  }

  std::vector<abdl::Request> queries;
  for (int owner = 0; owner < 7; ++owner) {
    auto req = abdl::ParseRequest("RETRIEVE ((FILE = item) and (owner = " +
                                  std::to_string(owner) + ")) (key)");
    ASSERT_TRUE(req.ok());
    queries.push_back(*req);
  }

  // Serial replay first: the expected per-query record counts.
  std::vector<size_t> expected;
  for (const auto& query : queries) {
    auto resp = engine.Execute(query);
    ASSERT_TRUE(resp.ok());
    expected.push_back(resp->records.size());
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto resp = engine.Execute(queries[q]);
          if (!resp.ok() || resp->records.size() != expected[q]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  // Concurrently hammer the cumulative-I/O snapshot: under TSan this
  // verifies the atomic counters carry no data race.
  std::atomic<bool> stop{false};
  std::thread stats([&] {
    while (!stop.load()) {
      kds::IoStats io = engine.cumulative_io();
      if (io.blocks_read > (1u << 30)) break;  // keep the load observable
    }
  });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  stats.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ConcurrentDmlSessionsOnSharedDatabase) {
  MldsSystem system;
  ASSERT_TRUE(
      system.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
  university::UniversityConfig config;
  ASSERT_TRUE(
      university::BuildUniversityDatabaseOnLoaded(config, system.executor())
          .ok());
  constexpr int kSessions = 6;
  std::vector<kms::DmlMachine*> machines;
  for (int i = 0; i < kSessions; ++i) {
    auto session = system.OpenCodasylSession("university");
    ASSERT_TRUE(session.ok());
    machines.push_back(*session);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      kms::DmlMachine* machine = machines[t];
      for (int i = 0; i < 30; ++i) {
        auto result = machine->RunProgram(
            "MOVE 'Computer Science' TO major IN student\n"
            "FIND ANY student USING major IN student\n"
            "GET major IN student\n");
        if (!result.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

/// Runs `request` from `clients` threads at once against `engine` and
/// returns the wall-clock milliseconds until the last one finished, plus
/// (in `waits_ms`) each request's disk cost times `scale` — what the
/// engine must have slept for it.
double RunConcurrently(kds::Engine* engine, const abdl::Request& request,
                       int clients, double scale,
                       std::vector<double>* waits_ms) {
  waits_ms->assign(clients, 0.0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto response = engine->Execute(request);
      EXPECT_TRUE(response.ok()) << response.status();
      if (response.ok()) {
        (*waits_ms)[t] = engine->options().disk.CostMs(response->io) * scale;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(ConcurrencyTest, DiskLatencySerializesWritersAndOverlapsReaders) {
  // The engine really waits DiskModel::CostMs(io) * scale while holding
  // the request's file locks: writers to one file hold it exclusively, so
  // their waits add up; readers share it, so theirs overlap. The file is
  // small and the scale large so the waits dwarf the scan's CPU time even
  // under a sanitizer on a loaded host.
  kds::EngineOptions options;
  options.disk = {.seek_ms = 0,
                  .transfer_ms_per_block = 2.0,
                  .index_probe_ms = 0,
                  .cpu_ms_per_record = 0};
  kds::Engine engine(options);
  ASSERT_TRUE(engine.DefineFile(ItemFile()).ok());
  for (int i = 0; i < 64; ++i) {
    auto insert = abdl::ParseRequest("INSERT (<FILE, item>, <key, " +
                                     std::to_string(i) + ">, <owner, 0>)");
    ASSERT_TRUE(insert.ok() && engine.Execute(*insert).ok());
  }
  auto update =
      abdl::ParseRequest("UPDATE ((FILE = item) and (key < 4)) (owner = 1)");
  auto scan = abdl::ParseRequest("RETRIEVE ((FILE = item)) (key)");
  ASSERT_TRUE(update.ok() && scan.ok());

  constexpr int kClients = 4;
  constexpr double kScale = 8.0;
  engine.set_latency_scale(kScale);
  std::vector<double> waits;
  const double writers_ms =
      RunConcurrently(&engine, *update, kClients, kScale, &waits);
  double writers_sum = 0.0;
  for (double ms : waits) {
    EXPECT_GT(ms, 0.0);
    writers_sum += ms;
  }
  const double readers_ms =
      RunConcurrently(&engine, *scan, kClients, kScale, &waits);
  double readers_sum = 0.0;
  for (double ms : waits) {
    EXPECT_GT(ms, 0.0);
    readers_sum += ms;
  }
  engine.set_latency_scale(0.0);

  // Exclusive writers cannot overlap: a lower bound, robust under load.
  EXPECT_GE(writers_ms, writers_sum - 0.01);
  // Shared readers overlap: well under the serial sum (generous margin
  // for slow CI).
  EXPECT_LT(readers_ms, readers_sum * 0.75);
}

}  // namespace
}  // namespace mlds
