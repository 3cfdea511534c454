#include "kds/join.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "kds/planner.h"

namespace mlds::kds {

namespace {

using abdm::AttributeReader;
using abdm::Record;
using abdm::RecordLayout;
using abdm::Value;

/// Combines matching pairs the way the RETRIEVE-COMMON nested loop always
/// has: left keywords win collisions, then the optional target projection.
/// The output layout and the slot each output keyword is read from depend
/// only on the two input layouts, so they are worked out once per layout
/// pair (once per join when each side has one layout) and every output
/// record shares the result.
class PairMerger {
 public:
  explicit PairMerger(const std::vector<std::string>& targets)
      : targets_(targets) {}

  Record Merge(const Record& l, const Record& r) {
    if (!planned_ || l.layout() != left_ || r.layout() != right_) {
      Plan(l, r);
    }
    std::vector<Value> values;
    values.reserve(sources_.size());
    for (const Source& src : sources_) {
      if (src.slot == RecordLayout::kNoSlot) {
        values.emplace_back();
      } else {
        values.push_back((src.left ? l : r).value(src.slot));
      }
    }
    // An unprojected merge is a copy of the left record, text included.
    return Record(layout_, std::move(values),
                  targets_.empty() ? l.text() : std::string());
  }

 private:
  struct Source {
    bool left = true;
    size_t slot = RecordLayout::kNoSlot;  ///< kNoSlot: the keyword is Null.
  };

  void Plan(const Record& l, const Record& r) {
    planned_ = true;
    left_ = l.layout();
    right_ = r.layout();
    std::vector<std::string> names;
    sources_.clear();
    auto add = [&](const std::string& name, Source src) {
      if (std::find(names.begin(), names.end(), name) != names.end()) return;
      names.push_back(name);
      sources_.push_back(src);
    };
    if (targets_.empty()) {
      for (size_t i = 0; i < l.size(); ++i) add(l.attribute(i), {true, i});
      for (size_t i = 0; i < r.size(); ++i) add(r.attribute(i), {false, i});
    } else {
      for (const std::string& target : targets_) {
        const size_t in_left = l.Slot(target);
        add(target, in_left != RecordLayout::kNoSlot
                        ? Source{true, in_left}
                        : Source{false, r.Slot(target)});
      }
    }
    layout_ = names.empty()
                  ? nullptr
                  : std::make_shared<const RecordLayout>(std::move(names));
  }

  const std::vector<std::string>& targets_;
  bool planned_ = false;
  const RecordLayout* left_ = nullptr;
  const RecordLayout* right_ = nullptr;
  std::shared_ptr<const RecordLayout> layout_;
  std::vector<Source> sources_;
};

/// Hashes join values through pointers into the side's records. Values
/// that compare equal hash equally: equal numbers share their double (an
/// integer equals a float only when the float holds it exactly), -0.0
/// equals 0.0, and every NaN is one value.
struct ValueHash {
  size_t operator()(const Value* v) const {
    if (v->is_string()) return std::hash<std::string>{}(v->AsString());
    const double d = v->AsFloat();
    if (std::isnan(d)) return 0x7ff8;
    return std::hash<double>{}(d == 0.0 ? 0.0 : d);
  }
};

struct ValueEqual {
  bool operator()(const Value* a, const Value* b) const {
    return a->Compare(*b) == 0;
  }
};

/// Hash strategy: value table on the smaller side, probed by the larger.
std::vector<std::pair<size_t, size_t>> HashMatches(const JoinInputs& in) {
  const bool build_left = in.left->size() <= in.right->size();
  const std::vector<Record>& build = build_left ? *in.left : *in.right;
  const std::vector<Record>& probe = build_left ? *in.right : *in.left;
  AttributeReader build_attr(build_left ? in.left_attribute
                                        : in.right_attribute);
  AttributeReader probe_attr(build_left ? in.right_attribute
                                        : in.left_attribute);
  std::unordered_map<const Value*, std::vector<size_t>, ValueHash, ValueEqual>
      table;
  table.reserve(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    const Value* v = build_attr.Find(build[i]);
    if (v != nullptr && !v->is_null()) table[v].push_back(i);
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t j = 0; j < probe.size(); ++j) {
    const Value* v = probe_attr.Find(probe[j]);
    if (v == nullptr || v->is_null()) continue;
    auto it = table.find(v);
    if (it == table.end()) continue;
    for (size_t i : it->second) {
      pairs.emplace_back(build_left ? i : j, build_left ? j : i);
    }
  }
  return pairs;
}

/// Merge strategy: both sides sorted on the join value, equal runs
/// zipped with their cross products emitted.
std::vector<std::pair<size_t, size_t>> MergeMatches(const JoinInputs& in) {
  using Keyed = std::pair<const Value*, size_t>;
  auto collect = [](const std::vector<Record>& records,
                    const std::string& attr) {
    AttributeReader reader(attr);
    std::vector<Keyed> keyed;
    keyed.reserve(records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      const Value* v = reader.Find(records[i]);
      if (v != nullptr && !v->is_null()) keyed.emplace_back(v, i);
    }
    std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
      const int c = a.first->Compare(*b.first);
      return c != 0 ? c < 0 : a.second < b.second;
    });
    return keyed;
  };
  std::vector<Keyed> ls = collect(*in.left, in.left_attribute);
  std::vector<Keyed> rs = collect(*in.right, in.right_attribute);
  std::vector<std::pair<size_t, size_t>> pairs;
  size_t i = 0, j = 0;
  while (i < ls.size() && j < rs.size()) {
    const int c = ls[i].first->Compare(*rs[j].first);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      size_t i_end = i + 1;
      while (i_end < ls.size() && *ls[i_end].first == *ls[i].first) ++i_end;
      size_t j_end = j + 1;
      while (j_end < rs.size() && *rs[j_end].first == *rs[j].first) ++j_end;
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          pairs.emplace_back(ls[a].second, rs[b].second);
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return pairs;
}

}  // namespace

JoinOutcome ExecuteJoin(const JoinInputs& in) {
  JoinOutcome out;
  out.planned = ChooseJoinStrategy(in.est_left, in.est_right);
  out.strategy = out.planned;
  const uint64_t actual_left = in.left->size();
  const uint64_t actual_right = in.right->size();
  if (EstimateMissed(in.est_left, actual_left) ||
      EstimateMissed(in.est_right, actual_right)) {
    // Adaptive re-plan: the remaining subtree (the join itself) is
    // re-planned against the actual side cardinalities.
    out.strategy = ChooseJoinStrategy(actual_left, actual_right);
    out.replanned = true;
  }
  std::vector<std::pair<size_t, size_t>> pairs =
      out.strategy == JoinStrategy::kMerge ? MergeMatches(in)
                                           : HashMatches(in);
  // Emit in (left index, right index) order: the strategy never changes
  // the output bytes. A hash join probing with the left side already
  // found its pairs in that order.
  if (!std::is_sorted(pairs.begin(), pairs.end())) {
    std::sort(pairs.begin(), pairs.end());
  }
  out.records.reserve(pairs.size());
  PairMerger merger(in.targets);
  for (const auto& [l, r] : pairs) {
    out.records.push_back(merger.Merge((*in.left)[l], (*in.right)[r]));
  }
  return out;
}

}  // namespace mlds::kds
