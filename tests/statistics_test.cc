// Statistics & join subsystem tests: equi-depth attribute histograms
// (build shape, estimates within the documented bounds, incremental
// maintenance, staleness, the single-line codec), their FileStore
// ownership (amortized rebuilds, schema-epoch invalidation, metadata
// persistence across an engine restart), the join strategy /
// cardinality / re-plan helpers, engine-level RETRIEVE-COMMON strategy
// markers and adaptive re-planning, and the stats.* counters' trip
// across the STATS wire frame. Their exact payload bytes are pinned by
// StatsWireTest.PayloadAndTextArePinned in server_roundtrip_test.cc.

#include "kds/statistics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "abdl/parser.h"
#include "abdl/request.h"
#include "kds/engine.h"
#include "kds/file_store.h"
#include "kds/planner.h"
#include "server/wire.h"

namespace mlds::kds {
namespace {

using abdm::DatabaseDescriptor;
using abdm::EstimateSource;
using abdm::FileDescriptor;
using abdm::Predicate;
using abdm::Record;
using abdm::RelOp;
using abdm::Value;
using abdm::ValueKind;

abdl::Request MustParse(std::string_view text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

void MustExecute(Engine& engine, std::string_view text) {
  auto response = engine.Execute(MustParse(text));
  ASSERT_TRUE(response.ok()) << text << ": " << response.status();
}

/// (value, count) pairs for integers `lo..hi`, `count` rows each.
std::vector<std::pair<Value, uint64_t>> IntegerRun(int lo, int hi,
                                                   uint64_t count = 1) {
  std::vector<std::pair<Value, uint64_t>> sorted;
  for (int v = lo; v <= hi; ++v) sorted.emplace_back(Value::Integer(v), count);
  return sorted;
}

Predicate Pred(std::string attr, RelOp op, int v) {
  return Predicate{std::move(attr), op, Value::Integer(v)};
}

/// The histogram's estimate for the interval `pred` admits; nullopt for
/// the shapes no directory probe answers (!= and null operands).
std::optional<uint64_t> Est(const AttributeHistogram& h,
                            const Predicate& pred) {
  auto interval = abdm::KeyInterval::Of(pred);
  if (!interval.has_value()) return std::nullopt;
  return h.Estimate(*interval);
}

// ---------------------------------------------------------------------
// AttributeHistogram: build shape and estimates.

TEST(AttributeHistogramTest, BuildIsEquiDepth) {
  AttributeHistogram h = AttributeHistogram::Build(IntegerRun(1, 256));
  EXPECT_EQ(h.total_rows(), 256u);
  EXPECT_EQ(h.distinct_values(), 256u);
  EXPECT_EQ(h.built_rows(), 256u);
  EXPECT_EQ(h.drift(), 0u);
  EXPECT_LE(h.bucket_count(), AttributeHistogram::kDefaultBuckets);
  // 256 rows over 32 buckets: every bucket holds exactly the 8-row target.
  EXPECT_EQ(h.depth(), 8u);
  EXPECT_FALSE(h.Stale());
}

TEST(AttributeHistogramTest, HeavyValueIsNeverSplitAcrossBuckets) {
  // One value carrying half the rows: depth may exceed ceil(N / buckets)
  // only by that value's own count.
  auto sorted = IntegerRun(1, 100);
  sorted.emplace_back(Value::Integer(101), 100);
  AttributeHistogram h = AttributeHistogram::Build(sorted);
  EXPECT_EQ(h.total_rows(), 200u);
  EXPECT_GE(h.depth(), 100u);
  auto est = Est(h, Pred("v", RelOp::kEq, 101));
  ASSERT_TRUE(est.has_value());
  // The heavy value sits in a bucket dominated by its own rows with only
  // a handful of distinct values, so its density estimate stays within a
  // small factor of the true count — not the 2-row file-wide average.
  EXPECT_GE(*est, 25u);
}

TEST(AttributeHistogramTest, EqualityEstimateUsesBucketDensity) {
  AttributeHistogram h = AttributeHistogram::Build(IntegerRun(1, 64, 4));
  auto est = Est(h, Pred("v", RelOp::kEq, 17));
  ASSERT_TRUE(est.has_value());
  // Uniform density: every value holds exactly rows/distinct = 4 rows.
  EXPECT_EQ(*est, 4u);
  // A value outside the histogram's range estimates to zero.
  EXPECT_EQ(Est(h, Pred("v", RelOp::kEq, 1000)).value_or(99), 0u);
}

TEST(AttributeHistogramTest, RangeEstimatesWithinDepthBound) {
  AttributeHistogram h = AttributeHistogram::Build(IntegerRun(1, 500));
  for (int cutoff : {1, 17, 100, 250, 499, 500}) {
    auto est = Est(h, Pred("v", RelOp::kLe, cutoff));
    ASSERT_TRUE(est.has_value()) << cutoff;
    const uint64_t actual = uint64_t(cutoff);
    const uint64_t bound = h.depth() + h.drift();
    const uint64_t error = *est > actual ? *est - actual : actual - *est;
    EXPECT_LE(error, bound) << "v <= " << cutoff << ": est " << *est;
    // The complementary bound holds for > with the same boundary bucket.
    auto gt = Est(h, Pred("v", RelOp::kGt, cutoff));
    ASSERT_TRUE(gt.has_value());
    const uint64_t gt_actual = 500 - actual;
    const uint64_t gt_error =
        *gt > gt_actual ? *gt - gt_actual : gt_actual - *gt;
    EXPECT_LE(gt_error, bound) << "v > " << cutoff << ": est " << *gt;
  }
}

TEST(AttributeHistogramTest, UnanswerableShapesReturnNullopt) {
  AttributeHistogram h = AttributeHistogram::Build(IntegerRun(1, 10));
  EXPECT_FALSE(Est(h, Pred("v", RelOp::kNe, 5)).has_value());
  EXPECT_FALSE(
      Est(h, Predicate{"v", RelOp::kEq, Value::Null()}).has_value());
}

TEST(AttributeHistogramTest, AddRemoveMaintainTotalAndDrift) {
  AttributeHistogram h = AttributeHistogram::Build(IntegerRun(1, 100));
  h.Add(Value::Integer(50));
  h.Add(Value::Integer(500));   // beyond the last boundary: stretches it.
  h.Add(Value::Integer(-5));    // below the lower bound: extends bucket 0.
  h.Remove(Value::Integer(10));
  EXPECT_EQ(h.total_rows(), 102u);
  EXPECT_EQ(h.drift(), 4u);
  // The stretched last bucket now covers the out-of-range value.
  auto est = Est(h, Pred("v", RelOp::kLe, 500));
  ASSERT_TRUE(est.has_value());
  EXPECT_GT(*est, 90u);
}

TEST(AttributeHistogramTest, StaleAfterQuarterDrift) {
  AttributeHistogram h = AttributeHistogram::Build(IntegerRun(1, 100));
  // Threshold: drift >= built/4 + 16 = 41.
  for (int i = 0; i < 40; ++i) h.Add(Value::Integer(i % 100 + 1));
  EXPECT_FALSE(h.Stale());
  h.Add(Value::Integer(1));
  EXPECT_TRUE(h.Stale());
}

TEST(AttributeHistogramTest, EncodeDecodeRoundTrips) {
  std::vector<std::pair<Value, uint64_t>> sorted = {
      {Value::String("alpha"), 2},
      {Value::String("beta with space\nand newline"), 5},
      {Value::String("gamma"), 7},
      {Value::String("zed"), 1},
  };
  AttributeHistogram h = AttributeHistogram::Build(sorted, 2);
  h.Add(Value::String("delta"));
  auto decoded = AttributeHistogram::Decode(h.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->Encode(), h.Encode());
  EXPECT_EQ(decoded->total_rows(), h.total_rows());
  EXPECT_EQ(decoded->drift(), h.drift());
  EXPECT_EQ(decoded->bucket_count(), h.bucket_count());
  // Estimates answer identically after the round trip.
  const Predicate range{"v", RelOp::kLe, Value::String("gamma")};
  EXPECT_EQ(Est(*decoded, range), Est(h, range));
}

TEST(AttributeHistogramTest, DecodeRejectsTruncatedText) {
  AttributeHistogram h = AttributeHistogram::Build(IntegerRun(1, 10));
  std::string text = h.Encode();
  EXPECT_FALSE(AttributeHistogram::Decode(text.substr(0, 5)).ok());
  EXPECT_FALSE(AttributeHistogram::Decode("").ok());
}

// ---------------------------------------------------------------------
// FileStatistics: epoch invalidation and build counting.

TEST(FileStatisticsTest, InstallCountsBuildsRestoreDoesNot) {
  FileStatistics stats;
  stats.Install("v", AttributeHistogram::Build(IntegerRun(1, 10)));
  stats.Install("w", AttributeHistogram::Build(IntegerRun(1, 10)));
  EXPECT_EQ(stats.builds(), 2u);
  stats.Restore("x", AttributeHistogram::Build(IntegerRun(1, 10)));
  EXPECT_EQ(stats.builds(), 2u);
  EXPECT_NE(stats.Find("x"), nullptr);
}

TEST(FileStatisticsTest, BumpEpochDropsEveryHistogram) {
  FileStatistics stats;
  stats.Install("v", AttributeHistogram::Build(IntegerRun(1, 10)));
  ASSERT_NE(stats.Find("v"), nullptr);
  const uint64_t before = stats.epoch();
  stats.BumpEpoch();
  EXPECT_EQ(stats.epoch(), before + 1);
  EXPECT_EQ(stats.Find("v"), nullptr);
  EXPECT_TRUE(stats.histograms().empty());
}

// ---------------------------------------------------------------------
// Planner join helpers.

TEST(JoinHelpersTest, ChooseJoinStrategyMergeNeedsLargeBalancedSides) {
  EXPECT_EQ(ChooseJoinStrategy(64, 64), JoinStrategy::kMerge);
  EXPECT_EQ(ChooseJoinStrategy(100, 80), JoinStrategy::kMerge);
  EXPECT_EQ(ChooseJoinStrategy(64, 255), JoinStrategy::kMerge);
  EXPECT_EQ(ChooseJoinStrategy(64, 256), JoinStrategy::kHash);  // 4x skew.
  EXPECT_EQ(ChooseJoinStrategy(63, 63), JoinStrategy::kHash);   // too small.
  EXPECT_EQ(ChooseJoinStrategy(5, 100000), JoinStrategy::kHash);
  EXPECT_EQ(ChooseJoinStrategy(0, 0), JoinStrategy::kHash);
}

TEST(JoinHelpersTest, EstimateJoinRowsDividesByMaxDistinct) {
  EXPECT_EQ(EstimateJoinRows(100, 100, 10, 20), 500u);
  // Missing distinct counts default to the all-rows-match worst case.
  EXPECT_EQ(EstimateJoinRows(100, 100, std::nullopt, std::nullopt), 10000u);
  EXPECT_EQ(EstimateJoinRows(0, 100, 10, 10), 0u);
  // A sub-row quotient still estimates at least one row.
  EXPECT_EQ(EstimateJoinRows(2, 2, 1000, 1000), 1u);
}

TEST(JoinHelpersTest, EstimateMissedRequiresTenfoldAndFloor) {
  EXPECT_TRUE(EstimateMissed(31, 1));
  EXPECT_TRUE(EstimateMissed(1, 31));  // symmetric.
  EXPECT_TRUE(EstimateMissed(10, 1));
  EXPECT_TRUE(EstimateMissed(0, 10));
  EXPECT_FALSE(EstimateMissed(9, 1));    // larger side under the floor.
  EXPECT_FALSE(EstimateMissed(100, 15)); // under 10x apart.
  EXPECT_FALSE(EstimateMissed(5, 5));
  EXPECT_FALSE(EstimateMissed(0, 0));
}

// ---------------------------------------------------------------------
// FileStore histogram maintenance.

FileDescriptor MetricFile(const std::string& name = "metric") {
  FileDescriptor f;
  f.name = name;
  f.attributes = {
      {"FILE", ValueKind::kString, 0, true},
      {"v", ValueKind::kInteger, 0, true},
      {"note", ValueKind::kString, 20, false},
  };
  return f;
}

Record MetricRecord(const std::string& file, int v) {
  Record r;
  r.Set("FILE", Value::String(file));
  r.Set("v", Value::Integer(v));
  return r;
}

TEST(FileStoreStatisticsTest, RebuildsAmortizeOverInserts) {
  FileStore store(MetricFile(), /*block_capacity=*/16);
  IoStats io;
  constexpr int kRows = 600;
  for (int i = 1; i <= kRows; ++i) {
    ASSERT_TRUE(store.Insert(MetricRecord("metric", i), &io).ok());
  }
  const AttributeHistogram* h = store.statistics().Find("v");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total_rows(), uint64_t(kRows));
  EXPECT_FALSE(h->Stale());
  // Rebuilds follow the geometric staleness schedule (~x1.25 growth), so
  // builds stay logarithmic in the insert count — not one per insert.
  // 600 inserts maintain histograms for v AND the FILE keyword.
  EXPECT_GE(store.statistics().builds(), 2u);
  EXPECT_LE(store.statistics().builds(), 64u);
}

TEST(FileStoreStatisticsTest, RangeEstimatesComeFromHistogram) {
  FileStore store(MetricFile(), 16);
  IoStats io;
  for (int i = 1; i <= 400; ++i) {
    ASSERT_TRUE(store.Insert(MetricRecord("metric", i), &io).ok());
  }
  auto range = store.EstimateWithSource(
      *abdm::KeyInterval::Of(Pred("v", RelOp::kLt, 100)));
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->source, EstimateSource::kHistogram);
  const AttributeHistogram* h = store.statistics().Find("v");
  ASSERT_NE(h, nullptr);
  const uint64_t bound = h->depth() + h->drift();
  const uint64_t actual = 99;
  const uint64_t error =
      range->rows > actual ? range->rows - actual : actual - range->rows;
  EXPECT_LE(error, bound);
  // Equality stays on the exact directory bucket count.
  auto eq = store.EstimateWithSource(
      *abdm::KeyInterval::Of(Pred("v", RelOp::kEq, 7)));
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->source, EstimateSource::kDirectory);
  EXPECT_EQ(eq->rows, 1u);
}

TEST(FileStoreStatisticsTest, DeletesMaintainHistogramTotals) {
  FileStore store(MetricFile(), 16);
  IoStats io;
  for (int i = 1; i <= 300; ++i) {
    ASSERT_TRUE(store.Insert(MetricRecord("metric", i), &io).ok());
  }
  ASSERT_TRUE(
      store.Delete(abdm::Query::And({Pred("v", RelOp::kLe, 100)}), &io).ok());
  const AttributeHistogram* h = store.statistics().Find("v");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total_rows(), 200u);
}

TEST(FileStoreStatisticsTest, SecondaryIndexBumpsEpochAndRebuilds) {
  FileStore store(MetricFile(), 16);
  IoStats io;
  for (int i = 1; i <= 200; ++i) {
    Record r = MetricRecord("metric", i);
    r.Set("note", Value::String("n" + std::to_string(i % 5)));
    ASSERT_TRUE(store.Insert(std::move(r), &io).ok());
  }
  const uint64_t epoch = store.statistics().epoch();
  ASSERT_TRUE(store.BuildSecondaryIndex("note", &io).ok());
  // The whole statistics set was invalidated and rebuilt from the
  // post-change directory, now including the new index's attribute.
  EXPECT_GT(store.statistics().epoch(), epoch);
  EXPECT_NE(store.statistics().Find("v"), nullptr);
  EXPECT_NE(store.statistics().Find("note"), nullptr);
}

TEST(FileStoreStatisticsTest, MetaCodecRoundTripsHistograms) {
  FileStore store(MetricFile(), 16);
  IoStats io;
  for (int i = 1; i <= 150; ++i) {
    ASSERT_TRUE(store.Insert(MetricRecord("metric", i), &io).ok());
  }
  auto meta = FileStore::DecodeMeta(store.EncodeMeta());
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(meta->stats_epoch, store.statistics().epoch());
  bool found_v = false;
  for (const auto& histogram : meta->histograms) {
    EXPECT_EQ(histogram.epoch, meta->stats_epoch);
    if (histogram.attr == "v") {
      found_v = true;
      auto decoded = AttributeHistogram::Decode(histogram.encoded);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(decoded->total_rows(), 150u);
    }
  }
  EXPECT_TRUE(found_v);
}

TEST(FileStoreStatisticsTest, RestoreDiscardsMismatchedEpoch) {
  FileStore store(MetricFile(), 16);
  IoStats io;
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(store.Insert(MetricRecord("metric", i), &io).ok());
  }
  FileStore::Meta meta;
  meta.stats_epoch = 7;
  meta.histograms.push_back(
      {7, "v", AttributeHistogram::Build(IntegerRun(1, 10)).Encode()});
  meta.histograms.push_back(
      {3, "note_stale", AttributeHistogram::Build(IntegerRun(1, 10)).Encode()});
  store.RestoreStatistics(meta);
  EXPECT_EQ(store.statistics().epoch(), 7u);
  // The matching-epoch histogram was installed; "v" is still indexed.
  const AttributeHistogram* v = store.statistics().Find("v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->total_rows(), 10u);
  // The mismatched-epoch histogram was discarded.
  EXPECT_EQ(store.statistics().Find("note_stale"), nullptr);
}

// ---------------------------------------------------------------------
// Histograms persist in page-file metadata across an engine restart.

std::string FreshDataDir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / ("mlds_stats_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

TEST(StatisticsPersistenceTest, HistogramsSurviveCleanRestart) {
  const std::string dir = FreshDataDir("restart");
  EngineOptions options;
  options.data_dir = dir;
  uint64_t builds_before = 0;
  {
    Engine engine(options);
    DatabaseDescriptor db;
    db.name = "metrics";
    db.files = {MetricFile()};
    ASSERT_TRUE(engine.DefineDatabase(db).ok());
    for (int i = 1; i <= 300; ++i) {
      MustExecute(engine, "INSERT (<FILE, metric>, <v, " + std::to_string(i) +
                              ">)");
    }
    builds_before = engine.counters().statistics.histogram_builds;
    EXPECT_GT(builds_before, 0u);
  }
  Engine reopened(options);
  ASSERT_TRUE(reopened.restore_status().ok()) << reopened.restore_status();
  ASSERT_EQ(reopened.FileSize("metric"), 300u);
  // No rebuild happened on restore — the histograms came from metadata.
  EXPECT_EQ(reopened.counters().statistics.histogram_builds, 0u);
  // A range plan is served from the restored histogram immediately.
  abdl::Request request =
      MustParse("RETRIEVE ((FILE = metric) and (v < 100)) (v)");
  abdl::SetExplain(request, true);
  auto response = reopened.Execute(request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_NE(response->plan, nullptr);
  EXPECT_NE(response->plan->ToString().find("[histogram]"), std::string::npos)
      << response->plan->ToString();
  EXPECT_EQ(response->records.size(), 99u);
}

TEST(StatisticsPersistenceTest, TinyPagesDropHistogramLinesNotFlushes) {
  // Histogram persistence is best-effort: on pages too small to hold the
  // metadata blob the HISTOGRAM lines are dropped (and rebuilt lazily),
  // but flush/checkpoint must keep working.
  const std::string dir = FreshDataDir("tiny_pages");
  EngineOptions options;
  options.data_dir = dir;
  options.page_bytes = 256;
  {
    Engine engine(options);
    DatabaseDescriptor db;
    db.name = "metrics";
    db.files = {MetricFile()};
    ASSERT_TRUE(engine.DefineDatabase(db).ok());
    for (int i = 1; i <= 100; ++i) {
      MustExecute(engine, "INSERT (<FILE, metric>, <v, " + std::to_string(i) +
                              ">)");
    }
    ASSERT_TRUE(engine.Flush().ok());
  }
  Engine reopened(options);
  ASSERT_TRUE(reopened.restore_status().ok()) << reopened.restore_status();
  EXPECT_EQ(reopened.FileSize("metric"), 100u);
  // The data survived; the histogram rebuilds on the next mutation.
  MustExecute(reopened, "INSERT (<FILE, metric>, <v, 101>)");
  EXPECT_GT(reopened.counters().statistics.histogram_builds, 0u);
}

// ---------------------------------------------------------------------
// Engine-level RETRIEVE-COMMON: strategy choice, markers, counters, and
// the adaptive re-plan.

class EngineJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseDescriptor db;
    db.name = "joins";
    db.files = {MetricFile("left"), MetricFile("right")};
    ASSERT_TRUE(engine_.DefineDatabase(db).ok());
  }

  void Fill(const std::string& file, int rows) {
    for (int i = 0; i < rows; ++i) {
      MustExecute(engine_, "INSERT (<FILE, " + file + ">, <v, " +
                               std::to_string(i) + ">)");
    }
  }

  Response Explained(std::string_view text) {
    abdl::Request request = MustParse(text);
    abdl::SetExplain(request, true);
    auto response = engine_.Execute(request);
    EXPECT_TRUE(response.ok()) << text << ": " << response.status();
    return response.ok() ? std::move(*response) : Response{};
  }

  Engine engine_;
};

TEST_F(EngineJoinTest, SkewedSidesHashJoin) {
  Fill("left", 5);
  Fill("right", 100);
  Response response = Explained(
      "RETRIEVE-COMMON ((FILE = left)) (v) AND ((FILE = right)) (v) (v)");
  EXPECT_EQ(response.records.size(), 5u);
  ASSERT_NE(response.plan, nullptr);
  EXPECT_EQ(response.plan->kind, PlanNodeKind::kJoin);
  EXPECT_EQ(response.plan->join_strategy, JoinStrategy::kHash);
  EXPECT_FALSE(response.plan->replanned);
  EXPECT_NE(response.plan->ToString().find("JOIN [hash]"), std::string::npos)
      << response.plan->ToString();
  const StatisticsCounters stats = engine_.counters().statistics;
  EXPECT_EQ(stats.hash_joins, 1u);
  EXPECT_EQ(stats.merge_joins, 0u);
  EXPECT_EQ(stats.replans, 0u);
}

TEST_F(EngineJoinTest, LargeBalancedSidesMergeJoin) {
  Fill("left", 80);
  Fill("right", 100);
  Response response = Explained(
      "RETRIEVE-COMMON ((FILE = left)) (v) AND ((FILE = right)) (v) (v)");
  EXPECT_EQ(response.records.size(), 80u);
  ASSERT_NE(response.plan, nullptr);
  EXPECT_EQ(response.plan->join_strategy, JoinStrategy::kMerge);
  EXPECT_NE(response.plan->ToString().find("JOIN [merge]"), std::string::npos)
      << response.plan->ToString();
  const StatisticsCounters stats = engine_.counters().statistics;
  EXPECT_EQ(stats.merge_joins, 1u);
  EXPECT_EQ(stats.hash_joins, 0u);
}

TEST_F(EngineJoinTest, StrategyNeverChangesJoinOutput) {
  // The merge- and hash-strategy regimes must produce byte-identical
  // records: run the same join once small (hash) and once after growing
  // both sides into the merge regime, and check the overlap.
  Fill("left", 40);
  Fill("right", 48);
  Response hash = Explained(
      "RETRIEVE-COMMON ((FILE = left)) (v) AND ((FILE = right)) (v) (v)");
  EXPECT_EQ(hash.plan->join_strategy, JoinStrategy::kHash);
  Fill("left", 80);   // appends v = 0..79 again: now 120 rows.
  Fill("right", 80);  // now 128 rows.
  Response merge = Explained(
      "RETRIEVE-COMMON ((FILE = left)) (v) AND ((FILE = right)) (v) (v)");
  EXPECT_EQ(merge.plan->join_strategy, JoinStrategy::kMerge);
  ASSERT_EQ(hash.records.size(), 40u);
  // Pair count is strategy-independent: v in 0..39 has 2x2 copies,
  // 40..47 has 1x2, 48..79 has 1x1 -> 160 + 16 + 32.
  EXPECT_EQ(merge.records.size(), 208u);
}

TEST_F(EngineJoinTest, HistogramMissTriggersAdaptiveReplan) {
  // Skew: values 1..2000 plus a single outlier at 0. The histogram
  // estimates "v < 1" at roughly half a boundary bucket (tens of rows);
  // the actual result is 1 row — a >= 10x miss, so the join re-plans
  // against the actuals.
  Fill("right", 100);
  for (int i = 1; i <= 2000; ++i) {
    MustExecute(engine_, "INSERT (<FILE, left>, <v, " + std::to_string(i) +
                             ">)");
  }
  MustExecute(engine_, "INSERT (<FILE, left>, <v, 0>)");
  Response response = Explained(
      "RETRIEVE-COMMON ((FILE = left) and (v < 1)) (v) "
      "AND ((FILE = right)) (v) (v)");
  EXPECT_EQ(response.records.size(), 1u);
  ASSERT_NE(response.plan, nullptr);
  EXPECT_TRUE(response.plan->replanned);
  EXPECT_NE(response.plan->ToString().find("[replanned]"), std::string::npos)
      << response.plan->ToString();
  // The miss came from a histogram-sourced range estimate.
  EXPECT_NE(response.plan->ToString().find("[histogram]"), std::string::npos)
      << response.plan->ToString();
  EXPECT_EQ(engine_.counters().statistics.replans, 1u);
}

TEST_F(EngineJoinTest, AccurateEstimatesDoNotReplan) {
  Fill("left", 30);
  Fill("right", 30);
  Response response = Explained(
      "RETRIEVE-COMMON ((FILE = left)) (v) AND ((FILE = right)) (v) (v)");
  EXPECT_FALSE(response.plan->replanned);
  EXPECT_EQ(engine_.counters().statistics.replans, 0u);
}

// ---------------------------------------------------------------------
// stats.* counters across the STATS wire frame.

TEST(StatsWireTest, StatisticsCountersRoundTripStatsReply) {
  wire::StatsReply stats;
  stats.stats_histogram_builds = 11;
  stats.stats_replans = 3;
  stats.stats_hash_joins = 7;
  stats.stats_merge_joins = 5;
  stats.health = "h";
  auto decoded = wire::DecodeStatsReply(wire::EncodeStatsReply(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->stats_histogram_builds, 11u);
  EXPECT_EQ(decoded->stats_replans, 3u);
  EXPECT_EQ(decoded->stats_hash_joins, 7u);
  EXPECT_EQ(decoded->stats_merge_joins, 5u);
  EXPECT_EQ(decoded->health, "h");
  const std::string text = decoded->ToText();
  EXPECT_NE(text.find("stats.histogram_builds 11"), std::string::npos) << text;
  EXPECT_NE(text.find("stats.replans 3"), std::string::npos) << text;
  EXPECT_NE(text.find("stats.hash_joins 7"), std::string::npos) << text;
  EXPECT_NE(text.find("stats.merge_joins 5"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Concurrent histogram maintenance (TSan stage: tools/check.sh runs this
// suite under ThreadSanitizer).

TEST(StatisticsStressTest, ConcurrentMaintenanceAndEstimates) {
  Engine engine;
  DatabaseDescriptor db;
  db.name = "stress";
  db.files = {MetricFile()};
  ASSERT_TRUE(engine.DefineDatabase(db).ok());

  constexpr int kWriters = 4;
  constexpr int kRowsPerWriter = 150;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&engine, w] {
      for (int i = 0; i < kRowsPerWriter; ++i) {
        auto response = engine.Execute(MustParse(
            "INSERT (<FILE, metric>, <v, " +
            std::to_string(w * kRowsPerWriter + i) + ">)"));
        ASSERT_TRUE(response.ok()) << response.status();
      }
    });
  }
  // Readers exercise the histogram-estimate path (shared file lock)
  // while writers rebuild and maintain the histograms (exclusive lock).
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&engine] {
      for (int i = 0; i < 60; ++i) {
        auto response = engine.Execute(
            MustParse("RETRIEVE ((FILE = metric) and (v < 250)) (v)"));
        ASSERT_TRUE(response.ok()) << response.status();
        (void)engine.counters().statistics;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(engine.FileSize("metric"), size_t(kWriters * kRowsPerWriter));
  const StatisticsCounters stats = engine.counters().statistics;
  EXPECT_GT(stats.histogram_builds, 0u);
  auto final_count = engine.Execute(
      MustParse("RETRIEVE ((FILE = metric) and (v < 250)) (v)"));
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->records.size(), 250u);
}

}  // namespace
}  // namespace mlds::kds
