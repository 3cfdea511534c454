// Standalone planner tests: the KDS planner consumes only the
// abdm::DirectoryStats interface, so plan shapes are pinned here against
// synthetic statistics — no FileStore, no records. The estimate-vs-actual
// bound tests at the bottom run real queries through a FileStore and
// check the documented relationships between the planner's estimates and
// the executor's actuals.

#include "kds/planner.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>

#include "abdm/stats.h"
#include "kds/file_store.h"
#include "kds/plan.h"

namespace mlds::kds {
namespace {

using abdm::Conjunction;
using abdm::Predicate;
using abdm::Query;
using abdm::Record;
using abdm::RelOp;
using abdm::Value;
using abdm::ValueKind;

/// Synthetic directory statistics: a fixed per-attribute bucket size.
/// Attributes absent from the map are not index-assisted, matching a
/// non-directory attribute in a real FileStore.
class FakeStats : public abdm::DirectoryStats {
 public:
  FakeStats(size_t live, uint64_t blocks) : live_(live), blocks_(blocks) {}

  FakeStats& Bucket(std::string attribute, size_t size) {
    buckets_[std::move(attribute)] = size;
    return *this;
  }

  std::optional<size_t> EstimateMatches(
      const abdm::KeyInterval& interval) const override {
    if (interval.IsEmpty()) return 0;
    auto it = buckets_.find(interval.attribute());
    if (it == buckets_.end()) return std::nullopt;
    return it->second;
  }
  size_t live_records() const override { return live_; }
  uint64_t allocated_blocks() const override { return blocks_; }

 private:
  size_t live_;
  uint64_t blocks_;
  std::map<std::string, size_t> buckets_;
};

Predicate Eq(std::string attribute, int64_t value) {
  return Predicate{std::move(attribute), RelOp::kEq, Value::Integer(value)};
}

TEST(PlannerTest, WorthIntersectingRule) {
  // next <= 4 * current + 16, the executor's adaptive cutoff.
  EXPECT_TRUE(WorthIntersecting(16, 0));
  EXPECT_FALSE(WorthIntersecting(17, 0));
  EXPECT_TRUE(WorthIntersecting(56, 10));
  EXPECT_FALSE(WorthIntersecting(57, 10));
}

TEST(PlannerTest, CheapestIndexAloneCollapsesToLoneIndexNode) {
  // The FILE keyword's bucket covers the whole file; against a 1-row key
  // bucket it fails the cutoff, so the plan is the bare key probe.
  FakeStats stats(8192, 1024);
  stats.Bucket("FILE", 8192).Bucket("key", 1);
  Conjunction conj{{Eq("FILE", 0), Eq("key", 4242)}};
  PlanNode plan = PlanConjunction(conj, stats);
  EXPECT_EQ(plan.kind, PlanNodeKind::kIndexEquality);
  EXPECT_TRUE(plan.children.empty());
  ASSERT_FALSE(plan.predicates.empty());
  EXPECT_EQ(plan.predicates.front().attribute, "key");
  EXPECT_EQ(plan.est_rows, 1u);
  EXPECT_EQ(plan.est_blocks, 1u);
}

TEST(PlannerTest, CloseEstimatesKeepTheIntersection) {
  FakeStats stats(1000, 125);
  stats.Bucket("a", 30).Bucket("b", 10);
  Conjunction conj{{Eq("a", 1), Eq("b", 2)}};
  PlanNode plan = PlanConjunction(conj, stats);
  ASSERT_EQ(plan.kind, PlanNodeKind::kIntersect);
  ASSERT_EQ(plan.children.size(), 2u);
  // Children come cheapest-estimate first: b drives.
  EXPECT_EQ(plan.children[0].predicates.front().attribute, "b");
  EXPECT_EQ(plan.children[1].predicates.front().attribute, "a");
  EXPECT_EQ(plan.est_rows, 10u);  // the driver's estimate
  EXPECT_EQ(plan.est_blocks, 10u);
}

TEST(PlannerTest, AdaptiveCutoffPrunesExpensiveTail) {
  // driver = 2; 4*2+16 = 24 admits the 20-row set but not the 1000-row
  // one — and everything after the first failure is pruned with it.
  FakeStats stats(4000, 500);
  stats.Bucket("a", 1000).Bucket("b", 2).Bucket("c", 20);
  Conjunction conj{{Eq("a", 1), Eq("b", 2), Eq("c", 3)}};
  PlanNode plan = PlanConjunction(conj, stats);
  ASSERT_EQ(plan.kind, PlanNodeKind::kIntersect);
  ASSERT_EQ(plan.children.size(), 2u);
  EXPECT_EQ(plan.children[0].predicates.front().attribute, "b");
  EXPECT_EQ(plan.children[1].predicates.front().attribute, "c");
}

TEST(PlannerTest, NoIndexedPredicateFallsBackToFullScan) {
  FakeStats stats(320, 40);
  Conjunction conj{{Eq("payload", 7),
                    Predicate{"key", RelOp::kNe, Value::Integer(1)}}};
  PlanNode plan = PlanConjunction(conj, stats);
  EXPECT_EQ(plan.kind, PlanNodeKind::kFullScan);
  EXPECT_EQ(plan.est_rows, 320u);
  EXPECT_EQ(plan.est_blocks, 40u);
}

TEST(PlannerTest, ProvenEmptyConjunctionIsALoneZeroProbe) {
  FakeStats stats(320, 40);
  stats.Bucket("a", 50).Bucket("key", 0);
  Conjunction conj{{Eq("a", 1), Eq("key", 999)}};
  PlanNode plan = PlanConjunction(conj, stats);
  EXPECT_EQ(plan.kind, PlanNodeKind::kIndexEquality);
  EXPECT_EQ(plan.predicates.front().attribute, "key");
  EXPECT_EQ(plan.est_rows, 0u);
  EXPECT_EQ(plan.est_blocks, 0u);
}

TEST(PlannerTest, RangePredicatePlansAsIndexRange) {
  FakeStats stats(320, 40);
  stats.Bucket("key", 12);
  Conjunction conj{
      {Predicate{"key", RelOp::kGe, Value::Integer(100)}}};
  PlanNode plan = PlanConjunction(conj, stats);
  EXPECT_EQ(plan.kind, PlanNodeKind::kIndexRange);
  EXPECT_EQ(plan.est_rows, 12u);
}

Predicate Bound(std::string attribute, RelOp op, int64_t value) {
  return Predicate{std::move(attribute), op, Value::Integer(value)};
}

TEST(PlannerTest, LowerAndUpperBoundsFoldIntoOneRangeNode) {
  FakeStats stats(8192, 1024);
  stats.Bucket("FILE", 8192).Bucket("wage", 40);
  struct Case {
    RelOp lower, upper;
    const char* rendered;
  };
  for (const Case& c :
       {Case{RelOp::kGe, RelOp::kLt,
             "INDEX RANGE (wage >= 50 AND wage < 52) [directory]"},
        Case{RelOp::kGt, RelOp::kLe,
             "INDEX RANGE (wage > 50 AND wage <= 52) [directory]"}}) {
    // Upper bound first: folding does not depend on predicate order.
    Conjunction conj{{Eq("FILE", 0), Bound("wage", c.upper, 52),
                      Bound("wage", c.lower, 50)}};
    PlanNode plan = PlanConjunction(conj, stats);
    EXPECT_EQ(plan.kind, PlanNodeKind::kIndexRange);
    EXPECT_TRUE(plan.children.empty());
    // The node carries both bounds, lower first.
    ASSERT_EQ(plan.predicates.size(), 2u);
    EXPECT_EQ(plan.predicates[0], Bound("wage", c.lower, 50));
    EXPECT_EQ(plan.predicates[1], Bound("wage", c.upper, 52));
    EXPECT_EQ(plan.Describe(), c.rendered);
    EXPECT_EQ(plan.est_rows, 40u);
  }
}

TEST(PlannerTest, TighterBoundWinsOnEachSide) {
  FakeStats stats(320, 40);
  stats.Bucket("key", 12);
  // At an equal value the exclusive bound is the tighter one.
  Conjunction conj{
      {Bound("key", RelOp::kGe, 10), Bound("key", RelOp::kGe, 20),
       Bound("key", RelOp::kLt, 90), Bound("key", RelOp::kLe, 50),
       Bound("key", RelOp::kGt, 20), Bound("key", RelOp::kLe, 60)}};
  PlanNode plan = PlanConjunction(conj, stats);
  EXPECT_EQ(plan.kind, PlanNodeKind::kIndexRange);
  EXPECT_EQ(plan.Describe(),
            "INDEX RANGE (key > 20 AND key <= 50) [directory]");
}

TEST(PlannerTest, BoundsOnDifferentAttributesDoNotFold) {
  FakeStats stats(1000, 125);
  stats.Bucket("a", 30).Bucket("b", 10);
  Conjunction conj{{Bound("a", RelOp::kGe, 1), Bound("b", RelOp::kLt, 5)}};
  PlanNode plan = PlanConjunction(conj, stats);
  ASSERT_EQ(plan.kind, PlanNodeKind::kIntersect);
  ASSERT_EQ(plan.children.size(), 2u);
  EXPECT_EQ(plan.children[0].Describe(), "INDEX RANGE (b < 5) [directory]");
  EXPECT_EQ(plan.children[1].Describe(), "INDEX RANGE (a >= 1) [directory]");
}

TEST(PlannerTest, NotEqualAndNullBoundsDoNotFold) {
  FakeStats stats(320, 40);
  stats.Bucket("key", 12);
  Conjunction conj{{Bound("key", RelOp::kGe, 10), Bound("key", RelOp::kNe, 20),
                    Predicate{"key", RelOp::kLt, Value::Null()},
                    Bound("key", RelOp::kLt, 30)}};
  PlanNode plan = PlanConjunction(conj, stats);
  EXPECT_EQ(plan.kind, PlanNodeKind::kIndexRange);
  EXPECT_EQ(plan.Describe(),
            "INDEX RANGE (key >= 10 AND key < 30) [directory]");
  // Neither alone is a probe: a != or null-bounded conjunction scans.
  for (const Predicate& pred :
       {Bound("key", RelOp::kNe, 20),
        Predicate{"key", RelOp::kGt, Value::Null()}}) {
    EXPECT_EQ(PlanConjunction(Conjunction{{pred}}, stats).kind,
              PlanNodeKind::kFullScan)
        << pred.ToString();
  }
}

TEST(PlannerTest, ContradictoryIntervalIsALoneZeroProbe) {
  FakeStats stats(320, 40);
  stats.Bucket("FILE", 320).Bucket("key", 12);
  Conjunction conj{{Eq("FILE", 0), Bound("key", RelOp::kGt, 50),
                    Bound("key", RelOp::kLt, 40)}};
  PlanNode plan = PlanConjunction(conj, stats);
  EXPECT_EQ(plan.kind, PlanNodeKind::kIndexRange);
  EXPECT_EQ(plan.Describe(),
            "INDEX RANGE (key > 50 AND key < 40) [directory]");
  EXPECT_EQ(plan.est_rows, 0u);
  EXPECT_EQ(plan.est_blocks, 0u);
}

TEST(PlannerTest, BlockBudgetIsCappedByAllocatedBlocks) {
  // 500 candidates can't need more blocks than the file has.
  FakeStats stats(4000, 32);
  stats.Bucket("a", 500);
  Conjunction conj{{Eq("a", 1)}};
  PlanNode plan = PlanConjunction(conj, stats);
  EXPECT_EQ(plan.est_rows, 500u);
  EXPECT_EQ(plan.est_blocks, 32u);
}

TEST(PlannerTest, QueryPlanShapeGolden) {
  // The full DNF shape, byte-pinned: a UNION root labeled with the file,
  // one child per disjunct — here a lone index probe and a full scan.
  FakeStats stats(64, 8);
  stats.Bucket("FILE", 64).Bucket("key", 1);
  Query query({Conjunction{{Eq("FILE", 0), Eq("key", 42)}},
               Conjunction{{Eq("payload", 7)}}});
  PlanNode plan = PlanQuery(query, stats, "item");
  EXPECT_EQ(plan.ToString(),
            "UNION (item)  est: 65 rows, 9 blocks  (not executed)\n"
            "  INDEX EQUALITY (key = 42) [directory]  est: 1 rows, 1 blocks"
            "  (not executed)\n"
            "  FULL SCAN [heuristic]  est: 64 rows, 8 blocks"
            "  (not executed)\n");
}

/// `keys` per-key disjuncts (FILE = 0) and (key = k), k = 10, 11, ...
Query KeyDisjuncts(int keys) {
  std::vector<Conjunction> disjuncts;
  for (int k = 0; k < keys; ++k) {
    disjuncts.push_back(Conjunction{{Eq("FILE", 0), Eq("key", 10 + k)}});
  }
  return Query(std::move(disjuncts));
}

TEST(PlannerTest, KeyDisjunctsFoldIntoOneIndexKeysNode) {
  // Disjuncts that differ only in one equality on an indexed attribute
  // plan as one INDEX KEYS node, shown once with its distinct key count;
  // the FILE bucket fails the cutoff against the key set.
  FakeStats stats(8192, 1024);
  stats.Bucket("FILE", 8192).Bucket("key", 1);
  Query query = KeyDisjuncts(83);
  // A repeated key is looked up once.
  query.mutable_disjuncts().push_back(query.disjuncts()[5]);
  PlanNode plan = PlanQuery(query, stats, "person");
  EXPECT_EQ(plan.ToString(),
            "UNION (person)  est: 83 rows, 83 blocks  (not executed)\n"
            "  INDEX KEYS (key IN 83 keys) [directory]  est: 83 rows, "
            "83 blocks  (not executed)\n");
  const std::optional<KeyFold> fold = FoldKeys(query, stats);
  ASSERT_TRUE(fold.has_value());
  EXPECT_EQ(fold->position, 1u);
  EXPECT_EQ(fold->keys.size(), 83u);
}

TEST(PlannerTest, KeySetCompetesWithTheSharedProbes) {
  // Four 50-row key buckets against a 3-row shared bucket: the shared
  // probe drives, and the key set is checked per candidate.
  FakeStats stats(4000, 500);
  stats.Bucket("owner", 50).Bucket("tag", 3);
  std::vector<Conjunction> disjuncts;
  for (int k = 0; k < 4; ++k) {
    disjuncts.push_back(Conjunction{{Eq("tag", 1), Eq("owner", k)}});
  }
  PlanNode plan = PlanQuery(Query(std::move(disjuncts)), stats, "item");
  ASSERT_EQ(plan.children.size(), 1u);
  EXPECT_EQ(plan.children[0].Describe(),
            "INDEX EQUALITY (tag = 1) [directory]");
}

TEST(PlannerTest, AbsentKeySetIsALoneZeroProbe) {
  FakeStats stats(320, 40);
  stats.Bucket("FILE", 320).Bucket("key", 0);
  PlanNode plan = PlanQuery(KeyDisjuncts(3), stats, "item");
  ASSERT_EQ(plan.children.size(), 1u);
  EXPECT_EQ(plan.children[0].Describe(),
            "INDEX KEYS (key IN 3 keys) [directory]");
  EXPECT_EQ(plan.est_rows, 0u);
}

TEST(PlannerTest, ShapesOtherThanOneKeyEqualityKeepTheUnion) {
  FakeStats stats(8192, 1024);
  stats.Bucket("FILE", 8192).Bucket("key", 1).Bucket("owner", 4);
  const Predicate file = Eq("FILE", 0);
  struct Case {
    const char* shape;
    Query query;
  };
  const Case cases[] = {
      {"two attributes differ",
       Query({Conjunction{{file, Eq("key", 1), Eq("owner", 1)}},
              Conjunction{{file, Eq("key", 2), Eq("owner", 2)}}})},
      // InsertPath's key probe: a decade run next to a lone candidate.
      {"a range disjunct",
       Query({Conjunction{{file, Bound("key", RelOp::kGe, 10),
                           Bound("key", RelOp::kLe, 19)}},
              Conjunction{{file, Eq("key", 20)}}})},
      {"a range in place of the key equality",
       Query({Conjunction{{file, Bound("key", RelOp::kGe, 10)}},
              Conjunction{{file, Eq("key", 20)}}})},
      {"the other predicates differ",
       Query({Conjunction{{file, Eq("key", 1), Eq("owner", 1)}},
              Conjunction{{file, Eq("key", 2), Eq("owner", 1),
                           Eq("owner", 3)}}})},
      {"the attribute is unindexed",
       Query({Conjunction{{file, Eq("payload", 1)}},
              Conjunction{{file, Eq("payload", 2)}}})},
      {"a single disjunct", KeyDisjuncts(1)},
  };
  for (const Case& c : cases) {
    PlanNode plan = PlanQuery(c.query, stats, "item");
    EXPECT_EQ(plan.children.size(), c.query.disjuncts().size()) << c.shape;
    EXPECT_FALSE(FoldKeys(c.query, stats).has_value()) << c.shape;
    for (const PlanNode& child : plan.children) {
      EXPECT_NE(child.kind, PlanNodeKind::kIndexKeys) << c.shape;
    }
  }
}

// --- Estimate-vs-actual bounds against a real FileStore ---

abdm::FileDescriptor Descriptor() {
  abdm::FileDescriptor f;
  f.name = "item";
  f.attributes = {
      {"FILE", ValueKind::kString, 0, true},
      {"key", ValueKind::kInteger, 0, true},
      {"owner", ValueKind::kInteger, 0, true},
      {"payload", ValueKind::kString, 0, false},
  };
  return f;
}

Record MakeRecord(int key) {
  Record r;
  r.Set("FILE", Value::String("item"));
  r.Set("key", Value::Integer(key));
  r.Set("owner", Value::Integer(key % 7));
  r.Set("payload", Value::String("p" + std::to_string(key % 3)));
  return r;
}

/// Asserts the documented planner/executor relationships on every
/// executed node of the tree. Histogram-sourced estimates are
/// approximate: the documented error bound for an equi-depth histogram
/// range estimate is the bucket depth at build time plus the drift
/// absorbed since (Add/Remove adjust one bucket each, so the boundary
/// bucket the estimate halves is off by at most depth + drift).
void CheckBounds(const FileStore& store, const PlanNode& node,
                 int records_per_block) {
  if (node.executed) {
    switch (node.kind) {
      case PlanNodeKind::kFullScan:
        // A full scan's block estimate is exact.
        EXPECT_EQ(node.actual_blocks, node.est_blocks) << node.Describe();
        break;
      case PlanNodeKind::kIndexEquality:
      case PlanNodeKind::kIndexRange:
        if (node.est_source == abdm::EstimateSource::kHistogram) {
          ASSERT_FALSE(node.predicates.empty()) << node.Describe();
          const AttributeHistogram* h =
              store.statistics().Find(node.predicates.front().attribute);
          ASSERT_NE(h, nullptr) << node.Describe();
          const uint64_t bound = h->depth() + h->drift();
          const uint64_t err = node.actual_rows > node.est_rows
                                   ? node.actual_rows - node.est_rows
                                   : node.est_rows - node.actual_rows;
          EXPECT_LE(err, bound) << node.Describe();
        } else {
          // Directory buckets only list live records, so the candidate
          // estimate is exact for an executed index leaf.
          EXPECT_EQ(node.actual_rows, node.est_rows) << node.Describe();
        }
        break;
      case PlanNodeKind::kIndexKeys:
        // The keys' buckets are exact candidate counts; verified matches
        // never exceed them.
        EXPECT_LE(node.actual_rows, node.est_rows) << node.Describe();
        EXPECT_LE(node.actual_blocks, node.est_blocks) << node.Describe();
        break;
      case PlanNodeKind::kIntersect: {
        // Verified matches never exceed the driver's candidate estimate
        // (padded by the histogram error bound when the driver's
        // estimate is itself approximate); block fetches respect both
        // the worst-case budget and the packing lower bound.
        uint64_t row_budget = node.est_rows;
        if (node.est_source == abdm::EstimateSource::kHistogram &&
            !node.children.empty() &&
            !node.children.front().predicates.empty()) {
          if (const AttributeHistogram* h = store.statistics().Find(
                  node.children.front().predicates.front().attribute)) {
            row_budget += h->depth() + h->drift();
          }
        }
        EXPECT_LE(node.actual_rows, row_budget) << node.Describe();
        EXPECT_LE(node.actual_blocks, node.est_blocks) << node.Describe();
        const uint64_t packed =
            (node.actual_rows + records_per_block - 1) / records_per_block;
        EXPECT_GE(node.actual_blocks, packed) << node.Describe();
        break;
      }
      default:
        EXPECT_LE(node.actual_blocks, node.est_blocks) << node.Describe();
        break;
    }
  }
  for (const PlanNode& child : node.children) {
    CheckBounds(store, child, records_per_block);
  }
}

TEST(PlannerBoundsTest, ActualsStayWithinDocumentedBounds) {
  constexpr int kPerBlock = 4;
  FileStore store(Descriptor(), kPerBlock);
  IoStats io;
  for (int i = 0; i < 256; ++i) store.Insert(MakeRecord(i), &io);

  const Query queries[] = {
      // Lone index probe.
      Query::And({Eq("key", 42)}),
      // Intersection of two close buckets.
      Query::And({Eq("owner", 3), Eq("key", 3)}),
      // Full scan (non-directory attribute).
      Query::And({Predicate{"payload", RelOp::kEq, Value::String("p1")}}),
      // Range + equality.
      Query::And({Predicate{"key", RelOp::kLt, Value::Integer(40)},
                  Eq("owner", 2)}),
      // Union of disjuncts.
      Query({Conjunction{{Eq("key", 7)}}, Conjunction{{Eq("key", 9)}}}),
  };
  for (const Query& query : queries) {
    io.Reset();
    PlanNode plan;
    auto ids = *store.Select(query, &io, &plan);
    EXPECT_TRUE(plan.executed) << plan.ToString();
    EXPECT_EQ(plan.actual_rows, ids.size()) << plan.ToString();
    CheckBounds(store, plan, kPerBlock);
    // The root's actual block count is what the executor charged to io.
    EXPECT_EQ(plan.actual_blocks, io.blocks_read) << plan.ToString();
  }
}

TEST(PlannerBoundsTest, FoldedKeySetMatchesTheUnfoldedDnf) {
  // Random key sets (duplicates, absent keys, integer, float, string and
  // null values) with an optional shared filter: the folded plan returns
  // exactly the union of its disjuncts run one by one, stays within the
  // documented bounds, and examines one record per candidate of the keys'
  // buckets. Deletes every few rounds keep the directory moving.
  constexpr int kPerBlock = 4;
  FileStore store(Descriptor(), kPerBlock);
  IoStats io;
  for (int i = 0; i < 256; ++i) store.Insert(MakeRecord(i), &io);
  std::mt19937 rng(7);
  auto random_key = [&]() -> Value {
    switch (rng() % 5) {
      case 0:
        return Value::Float(double(rng() % 300));
      case 1:
        return Value::String("k" + std::to_string(rng() % 4));
      case 2:
        return Value::Null();
      default:
        return Value::Integer(int(rng() % 300));  // absent past 255
    }
  };
  int probed = 0;  // rounds the key set drove
  for (int round = 0; round < 120; ++round) {
    const bool filtered = round % 3 == 0;
    std::vector<Value> keys = {random_key(), random_key()};
    for (int k = int(rng() % 12); k > 0; --k) {
      keys.push_back(rng() % 4 == 0 ? keys[rng() % keys.size()]
                                    : random_key());
    }
    std::vector<Conjunction> disjuncts;
    for (const Value& key : keys) {
      Conjunction conj{{Predicate{"FILE", RelOp::kEq, Value::String("item")},
                        Predicate{"key", RelOp::kEq, key}}};
      if (filtered) conj.predicates.push_back(Eq("owner", 3));
      disjuncts.push_back(std::move(conj));
    }
    const Query query(disjuncts);

    std::set<RecordId> unfolded;
    for (const Conjunction& conj : disjuncts) {
      const std::vector<RecordId> ids = *store.Select(Query({conj}), nullptr);
      unfolded.insert(ids.begin(), ids.end());
    }
    io.Reset();
    PlanNode plan;
    auto ids = *store.Select(query, &io, &plan);
    EXPECT_EQ(ids, std::vector<RecordId>(unfolded.begin(), unfolded.end()))
        << query.ToString();
    EXPECT_EQ(plan.actual_blocks, io.blocks_read) << plan.ToString();
    // Identical disjuncts name no key attribute and stay a UNION.
    if (FoldKeys(query, store).has_value()) {
      CheckBounds(store, plan, kPerBlock);
      ASSERT_EQ(plan.children.size(), 1u) << plan.ToString();
      const PlanNode& node = plan.children[0];
      if (node.kind == PlanNodeKind::kIndexKeys) {
        EXPECT_EQ(io.records_examined, node.est_rows) << plan.ToString();
        ++probed;
      }
    }
    if (round % 10 == 9) {
      store.Delete(Query::And({Eq("key", int(rng() % 256))}), nullptr);
      store.Insert(MakeRecord(int(rng() % 256)), nullptr);
    }
  }
  // Most rounds fold with the key set driving (filtered rounds included:
  // owner = 3 holds 36 records, more than a few keys' buckets).
  EXPECT_GT(probed, 100);
}

TEST(PlannerBoundsTest, SkippedIntersectChildStaysUnexecuted) {
  FileStore store(Descriptor(), 4);
  IoStats io;
  for (int i = 0; i < 256; ++i) store.Insert(MakeRecord(i), &io);
  // key = 42 estimates 1 row; FILE = item estimates 256 — planned out by
  // the static cutoff, so the plan is the bare key probe.
  Query query = Query::And(
      {Predicate{"FILE", RelOp::kEq, Value::String("item")}, Eq("key", 42)});
  PlanNode plan = store.Plan(query);
  ASSERT_EQ(plan.kind, PlanNodeKind::kUnionOfConjunctions);
  ASSERT_EQ(plan.children.size(), 1u);
  EXPECT_EQ(plan.children[0].kind, PlanNodeKind::kIndexEquality);
  EXPECT_EQ(plan.children[0].predicates.front().attribute, "key");
}

}  // namespace
}  // namespace mlds::kds
