// The MBDS fan-out executor: a share never waits behind another share,
// the worker count follows the peak number of shares in flight, and a
// serial dispatcher reuses its workers instead of starting new ones.

#include "common/fan_out.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "abdl/parser.h"
#include "mbds/controller.h"

namespace mlds {
namespace {

/// A one-shot flag a test thread can wait on.
class Latch {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }
  bool WaitFor(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(FanOutExecutorTest, ShareDoesNotWaitBehindABlockedShare) {
  common::FanOutExecutor executor;
  auto release = std::make_shared<Latch>();
  auto second_done = std::make_shared<Latch>();
  executor.Submit([release]() -> std::function<void()> {
    release->Wait();
    return [] {};
  });
  executor.Submit([second_done]() -> std::function<void()> {
    return [second_done] { second_done->Open(); };
  });
  // Runs while the first share still holds its worker.
  const bool ran = second_done->WaitFor(std::chrono::seconds(10));
  release->Open();
  EXPECT_TRUE(ran);
  EXPECT_EQ(executor.threads(), 2u);
}

TEST(FanOutExecutorTest, SerialSharesReuseOneWorker) {
  common::FanOutExecutor executor;
  for (int i = 0; i < 1000; ++i) {
    auto done = std::make_shared<Latch>();
    executor.Submit([done]() -> std::function<void()> {
      return [done] { done->Open(); };
    });
    // The worker counts as idle before the result is published, so the
    // next share finds it free.
    done->Wait();
  }
  EXPECT_EQ(executor.threads(), 1u);
}

TEST(FanOutExecutorTest, DestructorRunsEveryShare) {
  auto ran = std::make_shared<std::atomic<int>>(0);
  {
    common::FanOutExecutor executor;
    for (int i = 0; i < 8; ++i) {
      executor.Submit([ran]() -> std::function<void()> {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return [ran] { ran->fetch_add(1); };
      });
    }
  }
  EXPECT_EQ(ran->load(), 8);
}

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

abdl::Request MustParse(const std::string& text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

abdl::Request InsertOf(int key) {
  return MustParse("INSERT (<FILE, item>, <key, " + std::to_string(key) +
                   ">, <payload, 'x'>)");
}

std::unique_ptr<mbds::Controller> LoadedController(int backends, int rows) {
  mbds::MbdsOptions options;
  options.num_backends = backends;
  options.engine.block_capacity = 4;
  auto c = std::make_unique<mbds::Controller>(options);
  EXPECT_TRUE(c->DefineFile(ItemFile()).ok());
  for (int i = 0; i < rows; ++i) EXPECT_TRUE(c->Execute(InsertOf(i)).ok());
  return c;
}

TEST(FanOutExecutorTest, SerialBroadcastsAddNoThread) {
  constexpr int kBackends = 4;
  auto c = LoadedController(kBackends, 64);
  const abdl::Request scan = MustParse("RETRIEVE ((FILE = item)) (key)");
  // The emulated disk (a 28 ms seek per share) keeps the first
  // broadcast's four shares in flight together, so it starts one worker
  // per backend.
  c->set_latency_scale(1.0);
  ASSERT_TRUE(c->Execute(scan).ok());
  c->set_latency_scale(0.0);
  ASSERT_EQ(c->fanout_threads(), size_t{kBackends});
  for (int i = 0; i < 1000; ++i) {
    auto report = c->Execute(scan);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->response.records.size(), 64u);
  }
  EXPECT_EQ(c->fanout_threads(), size_t{kBackends});
}

TEST(FanOutExecutorTest, ConcurrentClientsHoldAtMostTheirShares) {
  // Four writers and three readers over four backends, as in
  // ParallelControllerTest.ConcurrentMixedWorkloadMatchesSerialReplay:
  // at most 7 requests of at most 4 shares each are ever in flight.
  constexpr int kBackends = 4;
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  auto c = LoadedController(kBackends, 400);
  std::atomic<int> failures{0};
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        if (!c->Execute(InsertOf(1000 * (t + 1) + i)).ok()) {
          failures.fetch_add(1);
        }
      }
      for (int i = 0; i < 50; ++i) {
        auto report = c->Execute(
            MustParse("DELETE ((FILE = item) and (key = " +
                      std::to_string(t * 50 + i) + "))"));
        if (!report.ok() || report->response.affected != 1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      const abdl::Request count =
          MustParse("RETRIEVE ((FILE = item)) (COUNT(key))");
      while (!stop_readers.load()) {
        if (!c->Execute(count).ok()) failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop_readers.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(c->FileSize("item"), 400u + 4 * 100 - 4 * 50);
  EXPECT_LE(c->fanout_threads(), size_t{(kWriters + kReaders) * kBackends});
}

}  // namespace
}  // namespace mlds
