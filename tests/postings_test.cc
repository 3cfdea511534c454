#include "kds/postings.h"

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <set>
#include <vector>

namespace mlds::kds {
namespace {

std::vector<RecordId> Sorted(const std::set<RecordId>& ids) {
  return std::vector<RecordId>(ids.begin(), ids.end());
}

TEST(PostingsTest, AscendingAddsAppend) {
  Postings p;
  for (RecordId id = 0; id < 100; id += 3) p.Add(id);
  p.Settle();
  std::vector<RecordId> want;
  for (RecordId id = 0; id < 100; id += 3) want.push_back(id);
  EXPECT_EQ(p.ids(), want);
  EXPECT_EQ(p.size(), want.size());
}

TEST(PostingsTest, RemovedIdsLeaveNoTrace) {
  Postings p;
  for (RecordId id = 0; id < 10; ++id) p.Add(id);
  p.Remove(3);
  p.Remove(9);
  p.Settle();
  EXPECT_EQ(p.ids(), (std::vector<RecordId>{0, 1, 2, 4, 5, 6, 7, 8}));
  // A removed id added back takes its place again.
  p.Add(3);
  p.Settle();
  EXPECT_EQ(p.ids(), (std::vector<RecordId>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  for (RecordId id : p.ids()) p.Remove(id);
  EXPECT_TRUE(p.empty());
  p.Settle();
  EXPECT_TRUE(p.ids().empty());
}

TEST(PostingsTest, OutOfOrderAddsReadAscending) {
  Postings p;
  for (RecordId id = 100; id < 200; ++id) p.Add(id);
  p.Add(50);
  p.Add(7);
  p.Settle();
  std::vector<RecordId> out = {1};
  p.AppendTo(&out);
  ASSERT_EQ(out.size(), 103u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 7u);
  EXPECT_EQ(out[2], 50u);
  EXPECT_EQ(out[3], 100u);
  p.Remove(50);
  p.Settle();
  EXPECT_EQ(p.size(), 101u);
  EXPECT_EQ(p.ids().front(), 7u);
}

TEST(PostingsTest, MatchesSetOracle) {
  // Random statements of adds (mostly ascending, some below the largest
  // id) and removals, each followed by one Settle, against std::set.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Postings p;
    std::set<RecordId> ref;
    std::set<RecordId> absent;
    RecordId next = 0;
    for (int statement = 0; statement < 200; ++statement) {
      const int edits = 1 + int(rng() % (rng() % 4 == 0 ? 300 : 4));
      std::vector<RecordId> removals, adds;
      std::set<RecordId> touched;
      for (int e = 0; e < edits; ++e) {
        switch (rng() % 4) {
          case 0:
            // An id this bucket skips, for a later out-of-order add.
            absent.insert(next++);
            [[fallthrough]];
          case 1:
            adds.push_back(next++);
            touched.insert(adds.back());
            break;
          case 2:
            if (!absent.empty()) {
              auto it = std::next(absent.begin(), long(rng() % absent.size()));
              if (touched.insert(*it).second) adds.push_back(*it);
            }
            break;
          default:
            if (!ref.empty()) {
              auto it = std::next(ref.begin(), long(rng() % ref.size()));
              if (touched.insert(*it).second) removals.push_back(*it);
            }
            break;
        }
      }
      // A statement's removals, then its adds, as FileStore applies them.
      for (RecordId id : removals) {
        p.Remove(id);
        ref.erase(id);
        absent.insert(id);
      }
      for (RecordId id : adds) {
        p.Add(id);
        ref.insert(id);
        absent.erase(id);
      }
      p.Settle();
      ASSERT_EQ(p.size(), ref.size()) << "trial " << trial;
      ASSERT_EQ(p.ids(), Sorted(ref)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace mlds::kds
