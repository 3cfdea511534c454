// Tests for the controller's true parallel broadcast path: concurrent
// client sessions over one multi-backend controller, deterministic merge
// order, and wall-clock overlap of the backends' (injected) disk latency.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "abdl/parser.h"
#include "mbds/controller.h"

namespace mlds::mbds {
namespace {

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

abdl::Request MustParse(std::string_view text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

std::unique_ptr<Controller> MakeController(int backends) {
  MbdsOptions options;
  options.num_backends = backends;
  options.engine.block_capacity = 4;
  return std::make_unique<Controller>(options);
}

abdl::Request InsertOf(int key) {
  return MustParse("INSERT (<FILE, item>, <key, " + std::to_string(key) +
                   ">, <payload, 'x'>)");
}

abdl::Request DeleteOf(int key) {
  return MustParse("DELETE ((FILE = item) and (key = " + std::to_string(key) +
                   "))");
}

/// Sorted keys of every live item record, fetched through the controller.
std::vector<int64_t> AllKeys(Controller* c) {
  auto report = c->Execute(MustParse("RETRIEVE ((FILE = item)) (key) BY key"));
  EXPECT_TRUE(report.ok()) << report.status();
  std::vector<int64_t> keys;
  if (report.ok()) {
    for (const auto& r : report->response.records) {
      keys.push_back(r.GetOrNull("key").AsInteger());
    }
  }
  return keys;
}

// The headline stress test: many client threads drive broadcasts, inserts
// and deletes through one 4-backend controller at once. Writers touch
// disjoint key ranges, so every interleaving must converge to the same
// final state as a serial replay of the same operations.
TEST(ParallelControllerTest, ConcurrentMixedWorkloadMatchesSerialReplay) {
  constexpr int kBackends = 4;
  constexpr int kPreload = 400;
  constexpr int kWriters = 4;
  constexpr int kInsertsPerWriter = 100;
  constexpr int kDeletesPerWriter = 50;

  auto concurrent = MakeController(kBackends);
  ASSERT_TRUE(concurrent->DefineFile(ItemFile()).ok());
  for (int i = 0; i < kPreload; ++i) {
    ASSERT_TRUE(concurrent->Execute(InsertOf(i)).ok());
  }

  std::atomic<int> failures{0};
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      // Inserts land in a fresh per-writer range; deletes target a
      // preloaded range no other writer touches.
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        if (!concurrent->Execute(InsertOf(1000 * (t + 1) + i)).ok()) {
          failures.fetch_add(1);
        }
      }
      for (int i = 0; i < kDeletesPerWriter; ++i) {
        auto report = concurrent->Execute(DeleteOf(t * kDeletesPerWriter + i));
        if (!report.ok() || report->response.affected != 1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      auto count_req = MustParse("RETRIEVE ((FILE = item)) (COUNT(key))");
      auto range_req =
          MustParse("RETRIEVE ((FILE = item) and (key < 1000)) (key)");
      while (!stop_readers.load()) {
        auto counted = concurrent->Execute(count_req);
        if (!counted.ok() || counted->response.records.size() != 1) {
          failures.fetch_add(1);
          continue;
        }
        const int64_t count =
            counted->response.records[0].GetOrNull("COUNT(key)").AsInteger();
        // Never fewer than the fully-deleted floor, never more than
        // preload plus every insert.
        if (count < kPreload - kWriters * kDeletesPerWriter ||
            count > kPreload + kWriters * kInsertsPerWriter) {
          failures.fetch_add(1);
        }
        if (!concurrent->Execute(range_req).ok()) failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop_readers.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  ASSERT_EQ(failures.load(), 0);

  // Serial replay of the same operation set, in canonical order.
  auto serial = MakeController(kBackends);
  ASSERT_TRUE(serial->DefineFile(ItemFile()).ok());
  for (int i = 0; i < kPreload; ++i) {
    ASSERT_TRUE(serial->Execute(InsertOf(i)).ok());
  }
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kInsertsPerWriter; ++i) {
      ASSERT_TRUE(serial->Execute(InsertOf(1000 * (t + 1) + i)).ok());
    }
    for (int i = 0; i < kDeletesPerWriter; ++i) {
      ASSERT_TRUE(serial->Execute(DeleteOf(t * kDeletesPerWriter + i)).ok());
    }
  }

  EXPECT_EQ(concurrent->FileSize("item"), serial->FileSize("item"));
  EXPECT_EQ(AllKeys(concurrent.get()), AllKeys(serial.get()));
  // The merged count equals the sum over partitions.
  size_t partition_sum = 0;
  for (int b = 0; b < kBackends; ++b) {
    partition_sum += concurrent->backend(b).engine().FileSize("item");
  }
  EXPECT_EQ(partition_sum, concurrent->FileSize("item"));
}

TEST(ParallelControllerTest, BroadcastMergeIsDeterministic) {
  auto c = MakeController(8);
  ASSERT_TRUE(c->DefineFile(ItemFile()).ok());
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(c->Execute(InsertOf(i)).ok());
  // Without BY, merge order is backend-id order — identical on every run
  // no matter which backend finishes first.
  auto req = MustParse("RETRIEVE ((FILE = item)) (key)");
  auto first = c->Execute(req);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 5; ++run) {
    auto again = c->Execute(req);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->response.records.size(),
              first->response.records.size());
    for (size_t i = 0; i < first->response.records.size(); ++i) {
      EXPECT_EQ(again->response.records[i].GetOrNull("key").AsInteger(),
                first->response.records[i].GetOrNull("key").AsInteger())
          << "run " << run << " position " << i;
    }
  }
}

TEST(ParallelControllerTest, ParallelDefineReportsDuplicateExactlyOnce) {
  auto c = MakeController(4);
  ASSERT_TRUE(c->DefineFile(ItemFile()).ok());
  Status dup = c->DefineFile(ItemFile());
  EXPECT_FALSE(dup.ok());
  // Every backend still agrees on the catalog.
  for (int b = 0; b < 4; ++b) {
    EXPECT_TRUE(c->backend(b).engine().HasFile("item"));
  }
}

TEST(ParallelControllerTest, InjectedLatencyOverlapsAcrossBackends) {
  // With latency injection on, each backend really waits its simulated
  // disk time. Backends wait on pool threads concurrently, so a broadcast
  // must complete in roughly the slowest backend's time, not the sum —
  // the observable proof that the fan-out is parallel, even on one core.
  constexpr int kBackends = 4;
  auto c = MakeController(kBackends);
  ASSERT_TRUE(c->DefineFile(ItemFile()).ok());
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(c->Execute(InsertOf(i)).ok());
  // One untimed broadcast first: the fan-out executor starts its workers
  // on demand, so the timed one below measures only the shares' waits.
  const abdl::Request scan = MustParse("RETRIEVE ((payload = 'x')) (key)");
  ASSERT_TRUE(c->Execute(scan).ok());

  const double scale = 0.1;  // a few ms of injected wait per backend
  c->set_latency_scale(scale);
  auto report = c->Execute(scan);
  c->set_latency_scale(0.0);
  ASSERT_TRUE(report.ok());

  double sum_ms = 0.0;
  double max_ms = 0.0;
  for (double ms : report->backend_times_ms) {
    sum_ms += ms;
    max_ms = std::max(max_ms, ms);
  }
  ASSERT_EQ(report->backend_times_ms.size(), size_t{kBackends});
  EXPECT_GT(report->wall_time_ms, 0.0);
  // At least the slowest backend's injected wait...
  EXPECT_GE(report->wall_time_ms, max_ms * scale * 0.9);
  // ...but well under the serial sum (generous margin for slow CI).
  EXPECT_LT(report->wall_time_ms, sum_ms * scale * 0.75);
}

}  // namespace
}  // namespace mlds::mbds
