#include "kds/planner.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace mlds::kds {

namespace {

/// Worst-case block budget for fetching `candidates` records: each
/// candidate on its own block, capped at the whole file.
uint64_t BlockBudget(size_t candidates, const abdm::DirectoryStats& stats) {
  return std::min<uint64_t>(candidates, stats.allocated_blocks());
}

/// One directory probe of a conjunction: an equality predicate, every
/// range predicate on one attribute folded into one interval, or a folded
/// key set (`interval` is then its first key's point).
struct Probe {
  PlanNodeKind kind;
  abdm::KeyInterval interval;
  abdm::CardinalityEstimate estimate;
};

/// A key set's candidates: the sum of its keys' buckets, exact from the
/// directory.
abdm::CardinalityEstimate EstimateKeys(const KeyFold& fold,
                                       const abdm::DirectoryStats& stats) {
  size_t rows = 0;
  for (const abdm::Predicate* key : fold.keys) {
    rows += stats.EstimateMatches(abdm::KeyInterval{key, key}).value_or(0);
  }
  return {rows, abdm::EstimateSource::kDirectory};
}

PlanNode IndexNode(const Probe& probe, const abdm::DirectoryStats& stats,
                   const KeyFold* fold) {
  PlanNode node;
  node.kind = probe.kind;
  if (probe.kind == PlanNodeKind::kIndexKeys) {
    // Shown once with its key count, not one predicate per key.
    node.label = probe.interval.attribute() + " IN " +
                 std::to_string(fold->keys.size()) + " keys";
  } else {
    if (probe.interval.lower != nullptr) {
      node.predicates.push_back(*probe.interval.lower);
    }
    if (probe.interval.upper != nullptr &&
        probe.interval.upper != probe.interval.lower) {
      node.predicates.push_back(*probe.interval.upper);
    }
  }
  node.secondary = stats.IsSecondaryIndex(probe.interval.attribute());
  node.est_rows = probe.estimate.rows;
  node.est_blocks = BlockBudget(probe.estimate.rows, stats);
  node.est_source = probe.estimate.source;
  return node;
}

}  // namespace

bool WorthIntersecting(size_t next_estimate, size_t current_size) {
  return WorthIntersecting(next_estimate, current_size, 0.0);
}

bool WorthIntersecting(size_t next_estimate, size_t current_size,
                       double cached_fraction) {
  if (cached_fraction < 0.0) cached_fraction = 0.0;
  if (cached_fraction > 1.0) cached_fraction = 1.0;
  // Blocks already resident are free to probe; only the cold remainder
  // of the candidate set pays a materialization cost.
  const size_t discounted =
      next_estimate - size_t(double(next_estimate) * cached_fraction);
  return discounted <= 4 * current_size + 16;
}

bool KeyFold::Matches(const abdm::Conjunction& first,
                      const abdm::Record& record) const {
  const abdm::Value* recorded = record.Find(keys.front()->attribute);
  if (recorded == nullptr) return false;
  auto key = std::lower_bound(keys.begin(), keys.end(), *recorded,
                              [](const abdm::Predicate* k,
                                 const abdm::Value& v) {
                                return k->value.Compare(v) < 0;
                              });
  if (key == keys.end() || (*key)->value.Compare(*recorded) != 0) {
    return false;
  }
  for (size_t i = 0; i < first.predicates.size(); ++i) {
    if (i != position && !first.predicates[i].Matches(record)) return false;
  }
  return true;
}

std::optional<KeyFold> FoldKeys(const abdm::Query& query,
                                const abdm::DirectoryStats& stats) {
  const std::vector<abdm::Conjunction>& disjuncts = query.disjuncts();
  if (disjuncts.size() < 2) return std::nullopt;
  const std::vector<abdm::Predicate>& first = disjuncts.front().predicates;
  // The key sits at the first position where any disjunct departs from
  // the first one; every other position must agree everywhere.
  size_t position = first.size();
  for (const abdm::Conjunction& conj : disjuncts) {
    if (conj.predicates.size() != first.size()) return std::nullopt;
    for (size_t i = 0; i < position; ++i) {
      if (!(conj.predicates[i] == first[i])) {
        position = i;
        break;
      }
    }
  }
  if (position == first.size()) return std::nullopt;
  const abdm::Predicate& key = first[position];
  if (key.op != abdm::RelOp::kEq ||
      !stats.EstimateMatches(abdm::KeyInterval{&key, &key}).has_value()) {
    return std::nullopt;
  }
  KeyFold fold;
  fold.position = position;
  fold.keys.reserve(disjuncts.size());
  for (const abdm::Conjunction& conj : disjuncts) {
    for (size_t i = 0; i < first.size(); ++i) {
      const abdm::Predicate& pred = conj.predicates[i];
      const bool agrees = i == position ? pred.op == abdm::RelOp::kEq &&
                                              pred.attribute == key.attribute
                                        : pred == first[i];
      if (!agrees) return std::nullopt;
    }
    fold.keys.push_back(&conj.predicates[position]);
  }
  auto by_value = [](const abdm::Predicate* a, const abdm::Predicate* b) {
    return a->value.Compare(b->value) < 0;
  };
  std::sort(fold.keys.begin(), fold.keys.end(), by_value);
  fold.keys.erase(std::unique(fold.keys.begin(), fold.keys.end(),
                              [](const abdm::Predicate* a,
                                 const abdm::Predicate* b) {
                                return a->value.Compare(b->value) == 0;
                              }),
                  fold.keys.end());
  return fold;
}

PlanNode PlanConjunction(const abdm::Conjunction& conj,
                         const abdm::DirectoryStats& stats,
                         const KeyFold* fold) {
  // One directory probe per equality predicate, and one per attribute for
  // its range predicates: every lower and upper bound on the attribute
  // folds into a single interval, so the executor walks the qualifying
  // value buckets once instead of intersecting half-open candidate sets.
  // A fold's key equality becomes one probe of the whole key set.
  std::vector<Probe> probes;
  probes.reserve(conj.predicates.size());
  for (size_t i = 0; i < conj.predicates.size(); ++i) {
    const abdm::Predicate& pred = conj.predicates[i];
    if (fold != nullptr && i == fold->position) {
      const abdm::Predicate* key = fold->keys.front();
      probes.push_back({PlanNodeKind::kIndexKeys, {key, key}, {}});
      continue;
    }
    std::optional<abdm::KeyInterval> interval = abdm::KeyInterval::Of(pred);
    if (!interval.has_value()) continue;
    const PlanNodeKind kind = pred.op == abdm::RelOp::kEq
                                  ? PlanNodeKind::kIndexEquality
                                  : PlanNodeKind::kIndexRange;
    auto folded = std::find_if(
        probes.begin(), probes.end(), [&](const Probe& probe) {
          return kind == PlanNodeKind::kIndexRange && probe.kind == kind &&
                 probe.interval.attribute() == pred.attribute;
        });
    if (folded != probes.end()) {
      folded->interval.Intersect(*interval);
    } else {
      probes.push_back({kind, *interval, {}});
    }
  }

  // Estimate every probe from the directory's bucket sizes without
  // materializing any candidate list (the FILE keyword's bucket holds
  // every record of the file, and copying it per query would make point
  // lookups O(n)). Attributes without an index drop out here.
  std::vector<Probe> indexed;
  indexed.reserve(probes.size());
  for (Probe& probe : probes) {
    std::optional<abdm::CardinalityEstimate> estimate =
        probe.kind == PlanNodeKind::kIndexKeys
            ? EstimateKeys(*fold, stats)
            : stats.EstimateWithSource(probe.interval);
    if (!estimate.has_value()) continue;
    probe.estimate = *estimate;
    if (estimate->rows == 0 &&
        estimate->source == abdm::EstimateSource::kDirectory) {
      // The directory alone proves no record matches — an absent value
      // or a contradictory interval; the plan is a lone proving probe.
      // (A histogram zero is only an estimate — it does not prove
      // emptiness.)
      return IndexNode(probe, stats, fold);
    }
    indexed.push_back(probe);
  }

  if (indexed.empty()) {
    PlanNode scan;
    scan.kind = PlanNodeKind::kFullScan;
    scan.est_rows = stats.live_records();
    scan.est_blocks = stats.allocated_blocks();
    scan.est_source = abdm::EstimateSource::kHeuristic;
    return scan;
  }

  std::stable_sort(indexed.begin(), indexed.end(),
                   [](const Probe& a, const Probe& b) {
                     return a.estimate.rows < b.estimate.rows;
                   });

  // The cheapest estimate drives the fetch; later sets are intersected
  // cheapest-first. The survivor set only shrinks from the driver's
  // estimate, so a child failing the rule against the driver estimate
  // can never pass it at run time — prune it and (because the executor
  // stops at the first skip) everything after it.
  const Probe& driver = indexed.front();
  const double cached = stats.cached_fraction();
  size_t kept = 1;
  while (kept < indexed.size() &&
         WorthIntersecting(indexed[kept].estimate.rows, driver.estimate.rows,
                           cached)) {
    ++kept;
  }

  if (kept == 1) {
    return IndexNode(driver, stats, fold);
  }

  PlanNode intersect;
  intersect.kind = PlanNodeKind::kIntersect;
  intersect.est_rows = driver.estimate.rows;
  intersect.est_blocks = BlockBudget(driver.estimate.rows, stats);
  intersect.est_source = driver.estimate.source;
  intersect.children.reserve(kept);
  for (size_t k = 0; k < kept; ++k) {
    intersect.children.push_back(IndexNode(indexed[k], stats, fold));
  }
  return intersect;
}

PlanNode PlanQuery(const abdm::Query& query, const abdm::DirectoryStats& stats,
                   std::string_view file) {
  PlanNode root;
  root.kind = PlanNodeKind::kUnionOfConjunctions;
  root.label = file;
  if (const std::optional<KeyFold> fold = FoldKeys(query, stats)) {
    root.children.push_back(
        PlanConjunction(query.disjuncts().front(), stats, &*fold));
  } else {
    root.children.reserve(query.disjuncts().size());
    for (const abdm::Conjunction& conj : query.disjuncts()) {
      root.children.push_back(PlanConjunction(conj, stats));
    }
  }
  root.est_rows = root.SumChildren(&PlanNode::est_rows);
  root.est_blocks = root.SumChildren(&PlanNode::est_blocks);
  return root;
}

JoinStrategy ChooseJoinStrategy(uint64_t left_rows, uint64_t right_rows) {
  const uint64_t lo = std::min(left_rows, right_rows);
  const uint64_t hi = std::max(left_rows, right_rows);
  if (lo >= 64 && hi < 4 * lo) return JoinStrategy::kMerge;
  return JoinStrategy::kHash;
}

uint64_t EstimateJoinRows(uint64_t left_rows, uint64_t right_rows,
                          std::optional<size_t> left_distinct,
                          std::optional<size_t> right_distinct) {
  if (left_rows == 0 || right_rows == 0) return 0;
  const uint64_t denom = std::max<uint64_t>(
      1, std::max<uint64_t>(left_distinct.value_or(1),
                            right_distinct.value_or(1)));
  // double keeps the product from overflowing; the result is an estimate.
  const double rows =
      double(left_rows) * double(right_rows) / double(denom);
  if (rows < 1.0) return 1;
  return uint64_t(rows);
}

bool EstimateMissed(uint64_t estimate, uint64_t actual) {
  const uint64_t lo = std::min(estimate, actual);
  const uint64_t hi = std::max(estimate, actual);
  return hi >= 10 && hi >= 10 * lo;
}

}  // namespace mlds::kds
