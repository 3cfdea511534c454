// Tests for storage compaction.

#include <gtest/gtest.h>

#include "abdl/parser.h"
#include "kds/engine.h"

namespace mlds {
namespace {

abdm::FileDescriptor ItemFile() {
  abdm::FileDescriptor f;
  f.name = "item";
  f.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                  {"key", abdm::ValueKind::kInteger, 0, true},
                  {"payload", abdm::ValueKind::kString, 0, false}};
  return f;
}

abdl::Request MustParse(std::string_view text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

void Load(kds::Engine* engine, int n) {
  ASSERT_TRUE(engine->DefineFile(ItemFile()).ok());
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(engine
                    ->Execute(MustParse("INSERT (<FILE, item>, <key, " +
                                        std::to_string(i) +
                                        ">, <payload, 'x'>)"))
                    .ok());
  }
}

TEST(CompactionTest, ReclaimsBlocksAfterMassDeletion) {
  kds::Engine engine(kds::EngineOptions{.block_capacity = 8});
  Load(&engine, 800);
  const uint64_t before = engine.TotalBlocks();
  ASSERT_TRUE(
      engine.Execute(MustParse("DELETE ((FILE = item) and (key >= 100))"))
          .ok());
  // Tombstones keep the blocks allocated until compaction.
  EXPECT_EQ(engine.TotalBlocks(), before);
  const uint64_t reclaimed = engine.CompactAll();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(engine.TotalBlocks(), before);
  EXPECT_EQ(engine.FileSize("item"), 100u);
}

TEST(CompactionTest, QueriesAnswerIdenticallyAfterCompaction) {
  kds::Engine engine(kds::EngineOptions{.block_capacity = 4});
  Load(&engine, 200);
  ASSERT_TRUE(engine
                  .Execute(MustParse(
                      "DELETE ((FILE = item) and (key < 150) and (key >= 50))"))
                  .ok());
  auto probe = MustParse("RETRIEVE ((FILE = item)) (key) BY key");
  auto before = engine.Execute(probe);
  ASSERT_TRUE(before.ok());
  engine.CompactAll();
  auto after = engine.Execute(probe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->records, after->records);
  // And indexed point lookups still work off the rebuilt directory.
  auto point = engine.Execute(
      MustParse("RETRIEVE ((FILE = item) and (key = 180)) (key)"));
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->records.size(), 1u);
}

TEST(CompactionTest, ScanCostDropsAfterCompaction) {
  kds::Engine engine(kds::EngineOptions{.block_capacity = 4});
  Load(&engine, 400);
  ASSERT_TRUE(
      engine.Execute(MustParse("DELETE ((FILE = item) and (key >= 40))"))
          .ok());
  auto scan = MustParse("RETRIEVE ((payload = 'x')) (key)");
  auto costly = engine.Execute(scan);
  ASSERT_TRUE(costly.ok());
  engine.CompactAll();
  auto cheap = engine.Execute(scan);
  ASSERT_TRUE(cheap.ok());
  EXPECT_LT(cheap->io.blocks_read, costly->io.blocks_read);
  EXPECT_EQ(cheap->records.size(), costly->records.size());
}

}  // namespace
}  // namespace mlds
