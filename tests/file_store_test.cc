#include "kds/file_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kds/statistics.h"

namespace mlds::kds {
namespace {

using abdm::AttributeDescriptor;
using abdm::Conjunction;
using abdm::FileDescriptor;
using abdm::Predicate;
using abdm::Query;
using abdm::Record;
using abdm::RelOp;
using abdm::Value;
using abdm::ValueKind;

FileDescriptor Descriptor(bool key_indexed) {
  FileDescriptor f;
  f.name = "f";
  f.attributes = {
      {"FILE", ValueKind::kString, 0, true},
      {"key", ValueKind::kInteger, 0, key_indexed},
      {"payload", ValueKind::kString, 0, false},
  };
  return f;
}

Record MakeRecord(int key) {
  Record r;
  r.Set("FILE", Value::String("f"));
  r.Set("key", Value::Integer(key));
  r.Set("payload", Value::String("p" + std::to_string(key)));
  return r;
}

TEST(FileStoreTest, InsertAndSelectByIndexedEquality) {
  FileStore store(Descriptor(/*key_indexed=*/true), /*block_capacity=*/4);
  IoStats io;
  for (int i = 0; i < 100; ++i) store.Insert(MakeRecord(i), &io);

  io.Reset();
  Query q = Query::And({{"key", RelOp::kEq, Value::Integer(42)}});
  auto ids = *store.Select(q, &io);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(store.Get(ids[0])->GetOrNull("key").AsInteger(), 42);
  // Index-assisted: only the candidate's block is read.
  EXPECT_EQ(io.blocks_read, 1u);
  EXPECT_EQ(io.records_examined, 1u);
}

TEST(FileStoreTest, RangePredicateUsesIndex) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  for (int i = 0; i < 64; ++i) store.Insert(MakeRecord(i), &io);
  io.Reset();
  Query q = Query::And({{"key", RelOp::kLt, Value::Integer(8)}});
  auto ids = *store.Select(q, &io);
  EXPECT_EQ(ids.size(), 8u);
  // 8 records in blocks of 4, inserted in order: exactly 2 blocks.
  EXPECT_EQ(io.blocks_read, 2u);
}

TEST(FileStoreTest, NonIndexedPredicateScansAllBlocks) {
  // The descriptor marks 'payload' non-directory; a query on it must scan.
  FileStore store(Descriptor(true), 4);
  IoStats io;
  for (int i = 0; i < 64; ++i) store.Insert(MakeRecord(i), &io);
  io.Reset();
  Query q = Query::And({{"payload", RelOp::kEq, Value::String("p7")}});
  auto ids = *store.Select(q, &io);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(io.blocks_read, store.block_count());
  EXPECT_EQ(io.records_examined, 64u);
}

TEST(FileStoreTest, DeleteRemovesAndFreesSlots) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  for (int i = 0; i < 10; ++i) store.Insert(MakeRecord(i), &io);
  Query q = Query::And({{"key", RelOp::kLt, Value::Integer(5)}});
  EXPECT_EQ(*store.Delete(q, &io), 5u);
  EXPECT_EQ(store.size(), 5u);
  // Deleted records no longer match.
  auto ids = *store.Select(
      Query::And({{"key", RelOp::kEq, Value::Integer(0)}}), &io);
  EXPECT_TRUE(ids.empty());
}

TEST(FileStoreTest, ReplaceUpdatesIndex) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  RecordId id = *store.Insert(MakeRecord(1), &io);
  const Query one = Query::And({{"key", RelOp::kEq, Value::Integer(1)}});
  EXPECT_EQ(*store.Update(one, [](Record& r) { r = MakeRecord(99); }, &io),
            1u);
  auto old_ids =
      *store.Select(Query::And({{"key", RelOp::kEq, Value::Integer(1)}}), &io);
  EXPECT_TRUE(old_ids.empty());
  auto new_ids =
      *store.Select(Query::And({{"key", RelOp::kEq, Value::Integer(99)}}), &io);
  ASSERT_EQ(new_ids.size(), 1u);
  EXPECT_EQ(new_ids[0], id);
}

TEST(FileStoreTest, NullValuedPredicateFallsBackToScan) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  Record with_null = MakeRecord(1);
  with_null.Set("key", Value::Null());
  store.Insert(with_null, &io);
  store.Insert(MakeRecord(2), &io);
  auto ids =
      *store.Select(Query::And({{"key", RelOp::kEq, Value::Null()}}), &io);
  ASSERT_EQ(ids.size(), 1u);
}

TEST(FileStoreTest, UndeclaredAttributesAreStillIndexed) {
  // Set-membership attributes added by transformations may be absent from
  // the descriptor; the directory indexes them anyway.
  FileStore store(Descriptor(true), 4);
  IoStats io;
  Record r = MakeRecord(1);
  r.Set("owner_set", Value::String("emp_3"));
  store.Insert(r, &io);
  for (int i = 2; i < 50; ++i) store.Insert(MakeRecord(i), &io);
  io.Reset();
  auto ids = *store.Select(
      Query::And({{"owner_set", RelOp::kEq, Value::String("emp_3")}}), &io);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(io.blocks_read, 1u);
}

TEST(FileStoreTest, BlockCountGrowsWithInserts) {
  FileStore store(Descriptor(true), 8);
  IoStats io;
  EXPECT_EQ(store.block_count(), 0u);
  for (int i = 0; i < 17; ++i) store.Insert(MakeRecord(i), &io);
  EXPECT_EQ(store.block_count(), 3u);
}

TEST(FileStoreTest, RangeBoundariesAreExact) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  for (int i = 1; i <= 10; ++i) store.Insert(MakeRecord(i), &io);
  auto keys_of = [&](const Query& q) {
    std::vector<int64_t> keys;
    const std::vector<RecordId> ids = *store.Select(q, &io);
    for (RecordId id : ids) {
      keys.push_back(store.Get(id)->GetOrNull("key").AsInteger());
    }
    return keys;
  };
  EXPECT_EQ(keys_of(Query::And({{"key", RelOp::kGe, Value::Integer(8)}})),
            (std::vector<int64_t>{8, 9, 10}));
  EXPECT_EQ(keys_of(Query::And({{"key", RelOp::kGt, Value::Integer(8)}})),
            (std::vector<int64_t>{9, 10}));
  EXPECT_EQ(keys_of(Query::And({{"key", RelOp::kLe, Value::Integer(3)}})),
            (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(keys_of(Query::And({{"key", RelOp::kLt, Value::Integer(3)}})),
            (std::vector<int64_t>{1, 2}));
  // Bounds outside the stored domain.
  EXPECT_EQ(keys_of(Query::And({{"key", RelOp::kGt, Value::Integer(10)}})),
            (std::vector<int64_t>{}));
  EXPECT_EQ(keys_of(Query::And({{"key", RelOp::kGe, Value::Integer(-5)}})).size(),
            10u);
  // Bound value absent from the file: lower/upper bound still lands right.
  store.Insert(MakeRecord(20), &io);
  EXPECT_EQ(keys_of(Query::And({{"key", RelOp::kGt, Value::Integer(15)}})),
            (std::vector<int64_t>{20}));
}

TEST(FileStoreTest, RangeLookupSkipsDeadSlots) {
  // Deleted records leave dead slots; an indexed range must neither
  // return them nor fetch blocks that hold only dead slots.
  FileStore store(Descriptor(true), /*block_capacity=*/2);
  IoStats io;
  for (int i = 0; i < 10; ++i) store.Insert(MakeRecord(i), &io);  // 5 blocks
  (void)store.Delete(Query::And({{"key", RelOp::kGe, Value::Integer(4)}}), &io);
  io.Reset();
  Query q = Query::And({{"key", RelOp::kGe, Value::Integer(0)}});
  auto ids = *store.Select(q, &io);
  EXPECT_EQ(ids.size(), 4u);  // keys 0..3 survive
  // Keys 0..3 sit in blocks 0 and 1; blocks 2..4 hold only dead slots and
  // are never touched because the directory no longer lists their ids.
  EXPECT_EQ(io.blocks_read, 2u);
}

TEST(FileStoreTest, RangeBeatsBroadEqualityAsAccessPath) {
  // (FILE = f) AND (key >= 60): the FILE bucket holds all 64 records, the
  // range holds 4. The cost-based planner must drive from the range, so
  // only the range's blocks are fetched — not the whole file.
  FileStore store(Descriptor(true), 4);
  IoStats io;
  for (int i = 0; i < 64; ++i) store.Insert(MakeRecord(i), &io);
  io.Reset();
  Query q = Query::And({{"FILE", RelOp::kEq, Value::String("f")},
                        {"key", RelOp::kGe, Value::Integer(60)}});
  auto ids = *store.Select(q, &io);
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(io.blocks_read, 1u);  // keys 60..63 share one block of 4
  EXPECT_EQ(io.records_examined, 4u);
  EXPECT_LT(io.blocks_read, store.block_count());
}

TEST(FileStoreTest, CheapestBucketDrivesConjunction) {
  // Two indexed equalities with very different selectivities: the planner
  // must fetch via the narrow one regardless of predicate order.
  FileDescriptor d = Descriptor(true);
  d.attributes.push_back({"tag", ValueKind::kString, 0, true});
  FileStore store(d, 4);
  IoStats io;
  for (int i = 0; i < 80; ++i) {
    Record r = MakeRecord(i % 5);  // 'key' buckets hold 16 records each
    r.Set("tag", Value::String(i == 40 ? "rare" : "common"));
    store.Insert(r, &io);
  }
  for (bool rare_first : {true, false}) {
    io.Reset();
    std::vector<Predicate> preds = {
        {"tag", RelOp::kEq, Value::String("rare")},
        {"key", RelOp::kEq, Value::Integer(40 % 5)}};
    if (!rare_first) std::swap(preds[0], preds[1]);
    auto ids = *store.Select(Query::And(preds), &io);
    ASSERT_EQ(ids.size(), 1u) << "rare_first=" << rare_first;
    // Driven by tag='rare' (1 candidate) and intersected with the key
    // bucket: a single block and a single record examined.
    EXPECT_EQ(io.blocks_read, 1u);
    EXPECT_EQ(io.records_examined, 1u);
  }
}

TEST(FileStoreTest, EmptyRangeIsProvenByDirectoryAlone) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  for (int i = 0; i < 32; ++i) store.Insert(MakeRecord(i), &io);
  io.Reset();
  auto ids = *store.Select(
      Query::And({{"key", RelOp::kGt, Value::Integer(1000)}}), &io);
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(io.blocks_read, 0u);
  EXPECT_EQ(io.records_examined, 0u);
}

// --- Folded key intervals ---

TEST(FileStoreTest, TwoSidedRangeIsOneDirectoryWalk) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  for (int i = 0; i < 256; ++i) store.Insert(MakeRecord(i), &io);
  io.Reset();
  PlanNode plan;
  Query q = Query::And({{"FILE", RelOp::kEq, Value::String("f")},
                        {"key", RelOp::kGe, Value::Integer(100)},
                        {"key", RelOp::kLt, Value::Integer(108)}});
  auto ids = *store.Select(q, &io, &plan);
  EXPECT_EQ(ids.size(), 8u);
  ASSERT_EQ(plan.children.size(), 1u);
  const PlanNode& node = plan.children[0];
  EXPECT_EQ(node.kind, PlanNodeKind::kIndexRange);
  EXPECT_TRUE(node.Describe().starts_with(
      "INDEX RANGE (key >= 100 AND key < 108)"))
      << node.Describe();
  EXPECT_EQ(node.actual_rows, 8u);
  // One directory probe, and no candidate outside the result.
  EXPECT_EQ(io.index_probes, 1u);
  EXPECT_EQ(io.records_examined, 8u);
  EXPECT_EQ(io.blocks_read, 2u);
}

TEST(FileStoreTest, ContradictoryIntervalReadsNoBlock) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  for (int i = 0; i < 64; ++i) store.Insert(MakeRecord(i), &io);
  const std::pair<RelOp, RelOp> empty[] = {{RelOp::kGt, RelOp::kLt},
                                           {RelOp::kGt, RelOp::kLe},
                                           {RelOp::kGe, RelOp::kLt}};
  for (const auto& [lower, upper] : empty) {
    // (key > 50 AND key < 40) and the equal-bound cases that exclude 50.
    const int lo = 50;
    const int hi = lower == RelOp::kGt && upper == RelOp::kLt ? 40 : 50;
    io.Reset();
    PlanNode plan;
    auto ids = *store.Select(
        Query::And({{"FILE", RelOp::kEq, Value::String("f")},
                    {"key", lower, Value::Integer(lo)},
                    {"key", upper, Value::Integer(hi)}}),
        &io, &plan);
    EXPECT_TRUE(ids.empty());
    ASSERT_EQ(plan.children.size(), 1u);
    const PlanNode& node = plan.children[0];
    EXPECT_EQ(node.kind, PlanNodeKind::kIndexRange) << node.Describe();
    EXPECT_EQ(node.est_rows, 0u) << node.Describe();
    EXPECT_EQ(node.est_source, abdm::EstimateSource::kDirectory);
    EXPECT_TRUE(node.executed);
    EXPECT_EQ(node.actual_blocks, 0u);
    EXPECT_EQ(io.blocks_read, 0u);
    EXPECT_EQ(io.records_examined, 0u);
  }
  // Equal inclusive bounds are the point itself.
  auto ids = *store.Select(
      Query::And({{"key", RelOp::kGe, Value::Integer(50)},
                  {"key", RelOp::kLe, Value::Integer(50)}}),
      &io);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(store.Get(ids[0])->GetOrNull("key").AsInteger(), 50);
}

TEST(FileStoreTest, KeywordOrderSurvivesPagesAndSharedLayouts) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  std::vector<Record> originals;
  for (int i = 0; i < 12; ++i) {
    Record r = MakeRecord(i);
    if (i % 3 == 1) {
      // The same names in another order: a second layout of the file.
      r = Record({{"payload", r.GetOrNull("payload")},
                  {"FILE", Value::String("f")},
                  {"key", Value::Integer(i)}});
    }
    originals.push_back(r);
    store.Insert(std::move(r), &io);
  }
  // An update that adds a keyword registers a third layout.
  Record grown = originals[5];
  grown.Set("extra", Value::Float(1.5));
  const Query fifth = Query::And({{"key", RelOp::kEq, Value::Integer(5)}});
  ASSERT_EQ(*store.Update(fifth, [&](Record& r) { r = grown; }, &io), 1u);
  originals[5] = grown;
  auto rows = *store.SelectRecords(
      Query::And({{"FILE", RelOp::kEq, Value::String("f")}}), &io);
  ASSERT_EQ(rows.size(), originals.size());
  for (const auto& [id, rec] : rows) {
    EXPECT_EQ(rec, originals[id]);
    EXPECT_EQ(rec.ToString(), originals[id].ToString());
  }
  EXPECT_EQ(rows[0].second.layout(), rows[3].second.layout());
  EXPECT_EQ(rows[1].second.layout(), rows[4].second.layout());
  EXPECT_NE(rows[0].second.layout(), rows[1].second.layout());
}

TEST(FileStoreTest, QueriedRecordsOutliveCompactionAndTheStore) {
  std::vector<std::pair<RecordId, Record>> kept;
  {
    FileStore store(Descriptor(true), 4);
    IoStats io;
    for (int i = 0; i < 20; ++i) store.Insert(MakeRecord(i), &io);
    kept = *store.SelectRecords(
        Query::And({{"key", RelOp::kLt, Value::Integer(10)}}), &io);
    ASSERT_TRUE(
        store.Delete(Query::And({{"key", RelOp::kLt, Value::Integer(10)}}),
                     &io)
            .ok());
    ASSERT_TRUE(store.Compact(&io).ok());
    auto after = *store.SelectRecords(
        Query::And({{"key", RelOp::kGe, Value::Integer(10)}}), &io);
    ASSERT_EQ(after.size(), 10u);
    EXPECT_EQ(after[0].second, MakeRecord(10));
  }
  ASSERT_EQ(kept.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(kept[i].second, MakeRecord(i));
    EXPECT_EQ(kept[i].second.GetOrNull("payload").AsString(),
              "p" + std::to_string(i));
  }
}

TEST(FileStoreTest, OverflowChainPagesCountOnceInActualBlocks) {
  FileStore store(Descriptor(true), 4);
  IoStats io;
  for (int i = 0; i < 6; ++i) {
    Record r = MakeRecord(i);
    if (i == 3) r.Set("payload", Value::String(std::string(20000, 'x')));
    store.Insert(std::move(r), &io);
  }
  for (int key : {3, 4}) {
    io.Reset();
    PlanNode plan;
    auto rows = *store.SelectRecords(
        Query::And({{"key", RelOp::kEq, Value::Integer(key)}}), &io, &plan);
    ASSERT_EQ(rows.size(), 1u);
    // The write-through pool reads each logical page exactly once.
    EXPECT_EQ(plan.actual_blocks, io.blocks_read) << "key=" << key;
    if (key == 3) {
      EXPECT_GT(plan.actual_blocks, 2u);  // the head page and its chain
    } else {
      EXPECT_EQ(plan.actual_blocks, 1u);
    }
  }
  io.Reset();
  PlanNode plan;
  ASSERT_TRUE(store
                  .SelectRecords(Query::And({{"payload", RelOp::kEq,
                                              Value::String("p5")}}),
                                 &io, &plan)
                  .ok());
  EXPECT_EQ(plan.actual_blocks, store.block_count());
}

TEST(FileStoreTest, PageRecordRepeatingANameIsCorruption) {
  // SerializeRecord never writes a repeated name, so build the payload by
  // hand: two <a, integer> keywords and an empty text portion.
  auto put_u32 = [](std::string& out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
  };
  std::string payload;
  put_u32(payload, 2);
  for (int k = 0; k < 2; ++k) {
    put_u32(payload, 1);
    payload += "a";
    payload.push_back(char(ValueKind::kInteger));
    payload.append(8, char(k));
  }
  put_u32(payload, 0);
  auto file = std::make_unique<PageFile>(kDefaultPageBytes);
  std::vector<char> page(kDefaultPageBytes);
  PageView view(page.data(), page.size());
  view.Init();
  ASSERT_GE(view.Append(/*rid=*/0, payload), 0);
  ASSERT_TRUE(file->WritePage(0, page.data()).ok());
  FileStore store(Descriptor(true), 4, nullptr, std::move(file));
  const Status loaded = store.LoadFromPages();
  EXPECT_TRUE(loaded.IsCorruption()) << loaded;
  EXPECT_NE(loaded.message().find("undecodable record"), std::string::npos)
      << loaded;
}

/// A value of one of the three kinds, or (rarely) null.
Value RandomValue(std::mt19937& rng) {
  switch (rng() % 7) {
    case 0:
      return Value::Null();
    case 1:
    case 2:
      return Value::Integer(int(rng() % 40));
    case 3:
    case 4:
      return Value::Float(double(rng() % 80) / 2.0);
    default:
      return Value::String("s" + std::to_string(rng() % 40));
  }
}

TEST(FileStoreTest, FoldedIntervalsMatchFullScanOracle) {
  // Random intervals of one to three bounds over a column mixing integers,
  // floats, strings and nulls, with deletes between rounds: the indexed
  // store returns exactly the ids a full scan of an unindexed twin does,
  // and examines no record outside the result.
  std::mt19937 rng(15);
  FileStore indexed(Descriptor(true), 4);
  FileStore scanned(Descriptor(false), 4);
  IoStats io;
  auto insert = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Record r;
      r.Set("FILE", Value::String("f"));
      r.Set("key", RandomValue(rng));
      indexed.Insert(r, &io);
      scanned.Insert(r, &io);
    }
  };
  constexpr RelOp kOrdering[] = {RelOp::kLt, RelOp::kLe, RelOp::kGt,
                                 RelOp::kGe};
  insert(400);
  for (int round = 0; round < 300; ++round) {
    std::vector<Predicate> preds = {{"FILE", RelOp::kEq, Value::String("f")}};
    const int bounds = 1 + int(rng() % 3);
    for (int b = 0; b < bounds; ++b) {
      Value v = RandomValue(rng);
      if (v.is_null()) v = Value::Integer(20);
      preds.push_back({"key", kOrdering[rng() % 4], std::move(v)});
    }
    const Query q = Query::And(preds);
    io.Reset();
    PlanNode plan;
    const std::vector<RecordId> got = *indexed.Select(q, &io, &plan);
    EXPECT_EQ(got, *scanned.Select(q, nullptr)) << q.ToString();
    EXPECT_EQ(io.records_examined, got.size()) << q.ToString();
    EXPECT_EQ(plan.actual_rows, got.size()) << q.ToString();
    if (round % 25 == 24) {
      // Delete a random point or interval from both stores, then refill.
      const Query victims = Query::And(
          {{"key", kOrdering[rng() % 4], RandomValue(rng)},
           {"key", kOrdering[rng() % 4], Value::Integer(int(rng() % 40))}});
      const size_t removed = *indexed.Delete(victims, &io);
      EXPECT_EQ(*scanned.Delete(victims, &io), removed) << victims.ToString();
      insert(int(removed) / 2);
    }
  }
  EXPECT_EQ(indexed.size(), scanned.size());
}

TEST(FileStoreTest, KeySetFoldMatchesUnindexedTwin) {
  // Random key sets folded into one INDEX KEYS probe over a column mixing
  // integers, floats (3.0 equals 3), strings and nulls, with duplicate and
  // absent keys, a shared predicate the directory cannot answer, and
  // deletes every few rounds: the indexed store returns exactly the
  // records the unindexed twin's per-disjunct scans do, and examines one
  // record per candidate the keys' buckets hold.
  std::mt19937 rng(21);
  FileStore indexed(Descriptor(true), 4);
  FileStore scanned(Descriptor(false), 4);
  IoStats io;
  auto insert = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Record r;
      r.Set("FILE", Value::String("f"));
      r.Set("key", RandomValue(rng));
      r.Set("payload", Value::String("p" + std::to_string(rng() % 2)));
      indexed.Insert(r, &io);
      scanned.Insert(r, &io);
    }
  };
  const Predicate file{"FILE", RelOp::kEq, Value::String("f")};
  insert(400);
  for (int round = 0; round < 200; ++round) {
    std::vector<Value> keys;
    const int count = 2 + int(rng() % 11);
    for (int k = 0; k < count; ++k) {
      switch (rng() % 6) {
        case 0:
          keys.push_back(Value::String("absent"));
          break;
        case 1:
          if (!keys.empty()) {
            keys.push_back(keys[rng() % keys.size()]);  // a duplicate
            break;
          }
          [[fallthrough]];
        default:
          keys.push_back(RandomValue(rng));
      }
    }
    const bool filtered = round % 2 == 1;
    std::vector<Conjunction> disjuncts;
    for (const Value& key : keys) {
      Conjunction conj{{file, {"key", RelOp::kEq, key}}};
      if (filtered) {
        conj.predicates.push_back(
            {"payload", RelOp::kEq, Value::String("p1")});
      }
      disjuncts.push_back(std::move(conj));
    }
    const Query q(std::move(disjuncts));

    io.Reset();
    PlanNode plan;
    auto got = *indexed.SelectRecords(q, &io, &plan);
    PlanNode twin_plan;
    auto want = *scanned.SelectRecords(q, nullptr, &twin_plan);
    ASSERT_EQ(got.size(), want.size()) << q.ToString();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << q.ToString();
      EXPECT_EQ(got[i].second.ToString(), want[i].second.ToString());
    }
    // One node stands for every disjunct (identical disjuncts name no key
    // attribute and stay a UNION); the twin keeps the UNION.
    const bool identical =
        std::all_of(keys.begin(), keys.end(),
                    [&](const Value& k) { return k == keys.front(); });
    EXPECT_EQ(plan.children.size(), identical ? keys.size() : 1u)
        << plan.ToString();
    EXPECT_EQ(twin_plan.children.size(), keys.size());
    EXPECT_EQ(plan.actual_rows, got.size());

    // Candidates: the live records whose key equals one of the keys.
    uint64_t candidates = 0;
    const auto live = *scanned.SelectRecords(Query::And({file}), nullptr);
    for (const auto& [id, rec] : live) {
      const Value& v = rec.GetOrNull("key");
      candidates += std::any_of(keys.begin(), keys.end(), [&](const Value& k) {
        return k.Compare(v) == 0;
      });
    }
    if (!identical) {
      EXPECT_EQ(io.records_examined, candidates) << plan.ToString();
    }

    if (round % 20 == 19) {
      const Query victims = Query::And({{"key", RelOp::kEq, RandomValue(rng)}});
      const size_t removed = *indexed.Delete(victims, &io);
      EXPECT_EQ(*scanned.Delete(victims, &io), removed) << victims.ToString();
      insert(int(removed) / 2);
    }
  }
  EXPECT_EQ(indexed.size(), scanned.size());
}

/// Three directory attributes (a mixed-kind key, a four-value group and
/// the FILE keyword) and a payload of three lengths that no page of 512
/// bytes holds four times, so a grown record moves to a later page.
FileDescriptor OracleDescriptor(bool payload_indexed) {
  FileDescriptor f;
  f.name = "f";
  f.attributes = {
      {"FILE", ValueKind::kString, 0, true},
      {"key", ValueKind::kInteger, 0, true},
      {"grp", ValueKind::kInteger, 0, true},
      {"payload", ValueKind::kString, 0, false, payload_indexed},
  };
  return f;
}

Value OraclePayload(std::mt19937& rng) {
  constexpr size_t kLengths[] = {4, 60, 150};
  return Value::String(
      std::string(kLengths[rng() % 3], char('a' + rng() % 3)));
}

Record OracleRecord(std::mt19937& rng) {
  Record r;
  r.Set("FILE", Value::String("f"));
  r.Set("key", RandomValue(rng));
  r.Set("grp", Value::Integer(int(rng() % 4)));
  r.Set("payload", OraclePayload(rng));
  return r;
}

/// attribute -> value -> ids: the directory as ordered sets.
using ReferenceDirectory =
    std::map<std::string, std::map<Value, std::set<RecordId>>>;

TEST(FileStoreTest, DirectoryMatchesReferenceOracle) {
  // Random inserts, bulk DELETEs, UPDATEs that move many ids between the
  // low-cardinality group buckets, one-key UPDATEs that push records
  // onto later pages, reopening through LoadFromPages, Compact, and a
  // secondary index built midway: after every round each bucket equals
  // the reference built from the live records, and so do point and range
  // Select results, EstimateMatches, DistinctValues and records_examined.
  std::mt19937 rng(25);
  auto store = std::make_unique<FileStore>(
      OracleDescriptor(false), 4, nullptr, std::make_unique<PageFile>(512));
  std::map<RecordId, Record> live;
  std::vector<std::string> indexed = {"FILE", "key", "grp"};
  std::map<std::string, std::set<Value>> seen;
  IoStats io;

  auto insert = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Record r = OracleRecord(rng);
      for (size_t a = 0; a < r.size(); ++a) {
        seen[r.attribute(a)].insert(r.value(a));
      }
      const RecordId id = *store->Insert(r, &io);
      ASSERT_EQ(live.count(id), 0u);
      live.emplace(id, std::move(r));
    }
  };
  auto matching = [&](const Query& q) {
    std::vector<RecordId> ids;
    for (const auto& [id, rec] : live) {
      if (q.Matches(rec)) ids.push_back(id);
    }
    return ids;
  };
  constexpr RelOp kOps[] = {RelOp::kEq, RelOp::kLt, RelOp::kLe, RelOp::kGt,
                            RelOp::kGe};
  auto check = [&](int round) {
    ASSERT_EQ(store->size(), live.size()) << "round " << round;
    ReferenceDirectory ref;
    for (const auto& [id, rec] : live) {
      for (const std::string& attr : indexed) {
        if (const Value* v = rec.Find(attr)) ref[attr][*v].insert(id);
      }
    }
    for (const std::string& attr : indexed) {
      const auto& buckets = ref[attr];
      EXPECT_EQ(store->DistinctValues(attr), buckets.size())
          << "round " << round << " " << attr;
      for (const auto& [value, ids] : buckets) {
        EXPECT_EQ(store->Bucket(attr, value),
                  std::vector<RecordId>(ids.begin(), ids.end()))
            << "round " << round << " " << attr << " = " << value.ToString();
        // A point interval, built by hand: a null keyword has no
        // predicate interval, yet its bucket counts like any other.
        const Predicate eq{attr, RelOp::kEq, value};
        EXPECT_EQ(store->EstimateMatches(abdm::KeyInterval{&eq, &eq}),
                  ids.size());
      }
      // Deleted records and moved-away keywords leave no id behind.
      for (const Value& v : seen[attr]) {
        if (buckets.count(v) == 0) {
          EXPECT_TRUE(store->Bucket(attr, v).empty())
              << "round " << round << " " << attr << " = " << v.ToString();
        }
      }
    }
    for (int k = 0; k < 4; ++k) {
      const bool on_key = rng() % 2 == 0;
      Value v = on_key ? RandomValue(rng) : Value::Integer(int(rng() % 5));
      if (v.is_null()) v = Value::Integer(20);
      const Predicate pred{on_key ? "key" : "grp", kOps[rng() % 5], v};
      const Query q = Query::And({pred});
      const std::vector<RecordId> want = matching(q);
      io.Reset();
      PlanNode plan;
      EXPECT_EQ(*store->Select(q, &io, &plan), want) << q.ToString();
      EXPECT_EQ(store->EstimateMatches(*abdm::KeyInterval::Of(pred)),
                want.size())
          << q.ToString();
      const bool scan = plan.children.front().kind == PlanNodeKind::kFullScan;
      EXPECT_EQ(io.records_examined, scan ? live.size() : want.size())
          << plan.ToString();
    }
  };
  auto reopen = [&] {
    auto copy = std::make_unique<PageFile>(512);
    std::vector<char> page(512);
    for (uint64_t p = 0; p < store->page_file()->page_count(); ++p) {
      ASSERT_TRUE(store->page_file()->ReadPage(p, page.data()).ok());
      ASSERT_TRUE(copy->WritePage(p, page.data()).ok());
    }
    const bool payload_indexed = indexed.size() == 4;
    store = std::make_unique<FileStore>(OracleDescriptor(payload_indexed), 4,
                                        nullptr, std::move(copy));
    ASSERT_TRUE(store->LoadFromPages().ok());
  };

  insert(200);
  uint64_t moved = 0;
  for (int round = 0; round < 150; ++round) {
    const int grp = int(rng() % 4);
    switch (rng() % 9) {
      case 0:
      case 1:
        insert(1 + int(rng() % 40));
        break;
      case 2: {
        // A bulk DELETE of one group, or of a key range.
        const Query q =
            rng() % 2 == 0
                ? Query::And({{"grp", RelOp::kEq, Value::Integer(grp)}})
                : Query::And({{"key", kOps[1 + rng() % 4],
                               Value::Integer(int(rng() % 40))}});
        const std::vector<RecordId> victims = matching(q);
        EXPECT_EQ(*store->Delete(q, &io), victims.size()) << q.ToString();
        for (RecordId id : victims) live.erase(id);
        break;
      }
      case 3:
      case 4: {
        // An UPDATE moving a group (or every record) to another group,
        // growing some payloads on the way.
        const Query q =
            rng() % 3 == 0
                ? Query::And({{"FILE", RelOp::kEq, Value::String("f")}})
                : Query::And({{"grp", RelOp::kEq, Value::Integer(grp)}});
        const Value to = Value::Integer(int(rng() % 4));
        const Value payload = OraclePayload(rng);
        seen["payload"].insert(payload);
        const bool grow = rng() % 2 == 0;
        auto modify = [&](Record& r) {
          r.Set("grp", to);
          if (grow) r.Set("payload", payload);
        };
        const std::vector<RecordId> ids = matching(q);
        EXPECT_EQ(*store->Update(q, modify, &io), ids.size()) << q.ToString();
        for (RecordId id : ids) modify(live.at(id));
        break;
      }
      case 5:
      case 6: {
        // One-key UPDATEs: the records holding a random live record's key
        // get a new key and a longer payload, so they move to later pages.
        for (int k = 0; k < 5 && !live.empty(); ++k) {
          const Record& picked =
              std::next(live.begin(), long(rng() % live.size()))->second;
          if (picked.Find("key")->is_null()) continue;
          const Query q =
              Query::And({{"key", RelOp::kEq, *picked.Find("key")}});
          const Value key = RandomValue(rng);
          const Value payload = Value::String(std::string(150, 'z'));
          seen["key"].insert(key);
          seen["payload"].insert(payload);
          auto modify = [&](Record& r) {
            r.Set("key", key);
            r.Set("payload", payload);
          };
          const std::vector<RecordId> ids = matching(q);
          const uint64_t pages = store->block_count();
          EXPECT_EQ(*store->Update(q, modify, &io), ids.size())
              << q.ToString();
          moved += store->block_count() > pages;
          for (RecordId id : ids) modify(live.at(id));
        }
        break;
      }
      case 7:
        reopen();
        break;
      default: {
        ASSERT_TRUE(store->Compact(&io).ok());
        std::map<RecordId, Record> renumbered;
        for (auto& [id, rec] : live) {
          renumbered.emplace(renumbered.size(), std::move(rec));
        }
        live = std::move(renumbered);
        break;
      }
    }
    if (round == 75) {
      ASSERT_TRUE(store->BuildSecondaryIndex("payload", &io).ok());
      indexed.push_back("payload");
    }
    check(round);
    if (live.size() < 50) insert(100);
  }
  // The one-key UPDATEs really did push records onto later pages.
  EXPECT_GT(moved, 0u);
}

/// The equi-depth rule written out independently of AttributeHistogram:
/// the Encode() text a fresh histogram over `counts` must produce.
std::string ExpectedHistogramEncoding(const std::map<Value, uint64_t>& counts,
                                      size_t max_buckets) {
  auto hex = [](const Value& v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (unsigned char c : v.ToString()) {
      out.push_back(kDigits[c >> 4]);
      out.push_back(kDigits[c & 0xf]);
    }
    return out;
  };
  uint64_t total = 0;
  for (const auto& [value, count] : counts) total += count;
  if (total == 0) return AttributeHistogram().Encode();
  const uint64_t target = (total + max_buckets - 1) / max_buckets;
  std::string buckets;
  size_t bucket_count = 0;
  uint64_t rows = 0, distinct = 0, depth = 0;
  const Value* upper = nullptr;
  auto close = [&] {
    buckets += " " + hex(*upper) + " " + std::to_string(rows) + " " +
               std::to_string(distinct);
    depth = std::max(depth, rows);
    ++bucket_count;
    rows = distinct = 0;
  };
  for (const auto& [value, count] : counts) {
    upper = &value;
    rows += count;
    ++distinct;
    if (rows >= target) close();
  }
  if (rows > 0) close();
  return std::to_string(total) + " " + std::to_string(counts.size()) + " " +
         std::to_string(total) + " " + std::to_string(depth) + " 0 " +
         hex(counts.begin()->first) + " " + std::to_string(bucket_count) +
         buckets;
}

TEST(FileStoreTest, DirectoryBuiltHistogramEqualsCopiedBuild) {
  // Random directories over integers, floats, strings and nulls, some
  // dominated by one heavy value: the histogram a store rebuilds straight
  // from its directory encodes byte for byte like AttributeHistogram::Build
  // over a copied (value, count) vector, and like the equi-depth rule
  // written out above.
  for (int seed = 0; seed < 24; ++seed) {
    std::mt19937 rng(seed);
    FileStore store(OracleDescriptor(false), 16);
    std::map<std::string, std::map<Value, uint64_t>> counts;
    const int n = 1 + int(rng() % 600);
    const Value heavy = RandomValue(rng);
    const int heavy_share = seed % 3 == 0 ? 2 : 0;  // of every 3 records
    IoStats io;
    for (int i = 0; i < n; ++i) {
      Record r = OracleRecord(rng);
      if (int(rng() % 3) < heavy_share) r.Set("key", heavy);
      for (size_t a = 0; a < r.size(); ++a) {
        ++counts[r.attribute(a)][r.value(a)];
      }
      ASSERT_TRUE(store.Insert(std::move(r), &io).ok());
    }
    // A new access path rebuilds every histogram from the directory.
    ASSERT_TRUE(store.BuildSecondaryIndex("payload", &io).ok());
    for (const auto& [attr, by_value] : counts) {
      const std::vector<std::pair<Value, uint64_t>> copied(by_value.begin(),
                                                          by_value.end());
      const AttributeHistogram* built = store.statistics().Find(attr);
      ASSERT_NE(built, nullptr) << attr;
      EXPECT_EQ(built->Encode(), AttributeHistogram::Build(copied).Encode())
          << "seed " << seed << " " << attr;
      for (size_t max_buckets : {1, 2, 7, 32, 1000}) {
        EXPECT_EQ(AttributeHistogram::Build(copied, max_buckets).Encode(),
                  ExpectedHistogramEncoding(by_value, max_buckets))
            << "seed " << seed << " " << attr << " buckets " << max_buckets;
      }
    }
  }
}

// Property sweep: for random-ish mixes of indexed and scanned selection,
// the same ids come back regardless of access path.
class FileStoreAccessPathTest : public ::testing::TestWithParam<int> {};

TEST_P(FileStoreAccessPathTest, IndexAndScanAgree) {
  const int n = GetParam();
  FileStore indexed(Descriptor(true), 4);
  FileStore scanned(Descriptor(false), 4);
  IoStats io;
  for (int i = 0; i < n; ++i) {
    Record r = MakeRecord(i % 17);  // duplicate keys on purpose
    indexed.Insert(r, &io);
    scanned.Insert(r, &io);
  }
  for (int probe : {0, 3, 16, 42}) {
    Query q = Query::And({{"key", RelOp::kEq, Value::Integer(probe)}});
    auto a = *indexed.Select(q, &io);
    auto b = *scanned.Select(q, &io);
    EXPECT_EQ(a, b) << "n=" << n << " probe=" << probe;
  }
  for (int bound : {1, 8, 20}) {
    Query q = Query::And({{"key", RelOp::kGe, Value::Integer(bound)}});
    auto a = *indexed.Select(q, &io);
    auto b = *scanned.Select(q, &io);
    EXPECT_EQ(a, b) << "n=" << n << " bound=" << bound;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FileStoreAccessPathTest,
                         ::testing::Values(0, 1, 7, 32, 100, 333));

}  // namespace
}  // namespace mlds::kds
