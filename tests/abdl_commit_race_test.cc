// ABDL COMMIT atomicity regression: a COMMIT hands its buffered requests
// to the kernel controller as one transaction, so no other session can
// observe a prefix of it. A writer session commits `INSERT ghost; DELETE
// ghost` in a loop while reader sessions look the ghost record up; a
// reader that ever finds it has seen a half-applied transaction.
// tools/check.sh runs this suite under ThreadSanitizer on every PR, so
// the transaction's lock discipline is race-checked as well.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mlds/mlds.h"

namespace mlds {
namespace {

TEST(AbdlCommitRaceTest, ReadersNeverSeeHalfAppliedCommit) {
  MldsSystem mlds;  // backends = 0: one engine, the server's default
  ASSERT_TRUE(mlds.LoadRelationalDatabase(
                      "SCHEMA store; CREATE TABLE item (key INTEGER, "
                      "tag CHAR(8));")
                  .ok());
  auto writer = mlds.Open(Language::kAbdl, "");
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int key = 0; key < 64; ++key) {
    ASSERT_TRUE((*writer)
                    ->Execute("INSERT (<FILE, item>, <key, " +
                                  std::to_string(key) + ">, <tag, 'live'>)",
                              false)
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> commits{0};
  std::thread committer([&] {
    while (!stop.load()) {
      for (const char* text :
           {"BEGIN", "INSERT (<FILE, item>, <key, 999>, <tag, 'ghost'>)",
            "DELETE ((FILE = item) and (tag = 'ghost'))"}) {
        ASSERT_TRUE((*writer)->Execute(text, false).ok()) << text;
      }
      auto committed = (*writer)->Execute("COMMIT", false);
      ASSERT_TRUE(committed.ok()) << committed.status();
      EXPECT_EQ(committed->TakeBody(),
                "transaction committed: 2 requests, 2 records affected\n");
      commits.fetch_add(1);
    }
  });

  constexpr int kReaders = 4;
  constexpr int kRounds = 2000;
  std::atomic<int> sightings{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      auto reader = mlds.Open(Language::kAbdl, "");
      ASSERT_TRUE(reader.ok()) << reader.status();
      for (int round = 0; round < kRounds; ++round) {
        auto found = (*reader)->Execute(
            "RETRIEVE ((FILE = item) and (tag = 'ghost')) (key)", false);
        ASSERT_TRUE(found.ok()) << found.status();
        if (found->TakeBody().find("999") != std::string::npos) {
          sightings.fetch_add(1);
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  committer.join();
  EXPECT_GT(commits.load(), 0);
  EXPECT_EQ(sightings.load(), 0)
      << "readers saw the ghost record in " << sightings.load() << " of "
      << kReaders * kRounds << " lookups across " << commits.load()
      << " commits";
  EXPECT_EQ(mlds.executor()->FileSize("item"), 64u);
}

}  // namespace
}  // namespace mlds
