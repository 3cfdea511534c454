#ifndef MLDS_ABDM_QUERY_H_
#define MLDS_ABDM_QUERY_H_

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abdm/record.h"
#include "abdm/value.h"

namespace mlds::abdm {

/// Relational operators usable in keyword predicates (Ch. II.C.1).
enum class RelOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

std::string_view RelOpToString(RelOp op);

/// A keyword predicate: (attribute, relational operator, value). A record
/// keyword satisfies the predicate when its attribute matches and the
/// relation holds between the keyword's value and the predicate's value.
///
/// Null semantics: equality/inequality against NULL test for null-ness;
/// ordering comparisons against a null record value are never satisfied.
struct Predicate {
  std::string attribute;
  RelOp op = RelOp::kEq;
  Value value;

  /// True if `record` has a keyword satisfying this predicate.
  bool Matches(const Record& record) const;

  std::string ToString() const;

  friend bool operator==(const Predicate& a, const Predicate& b) {
    return a.attribute == b.attribute && a.op == b.op && a.value == b.value;
  }
};

/// (attribute = 'value'): the string equality of every key and set-keyword
/// lookup the front ends translate.
Predicate EqStr(std::string attribute, std::string_view value);

/// (FILE = file): the predicate every translated kernel query leads with.
Predicate FilePred(std::string_view file);

/// The keyword values of one attribute that a directory probe reads, as a
/// view over the predicates that bound it: an equality is the point
/// [v, v] (both ends are the one predicate), a range predicate a
/// one-bound interval, and the planner folds every range predicate a
/// conjunction places on one attribute into a single interval, so the
/// ordered directory answers it with one lower-bound...upper-bound walk.
/// Null keywords sort first and satisfy no ordering predicate; the
/// interval never covers them. The predicates must outlive the view.
struct KeyInterval {
  /// The bounding predicates; nullptr leaves that end open.
  const Predicate* lower = nullptr;
  const Predicate* upper = nullptr;

  /// The interval `pred` admits, or nullopt for shapes the directory
  /// cannot answer: a != comparison or a null operand.
  static std::optional<KeyInterval> Of(const Predicate& pred);

  /// The interval every predicate of `bounds` admits together; each must
  /// be one Of accepts, all on one attribute.
  static KeyInterval Fold(const std::vector<Predicate>& bounds);

  /// Narrows this interval to its intersection with `other` (same
  /// attribute): on each side the tighter bound wins, and at equal values
  /// the exclusive one.
  void Intersect(const KeyInterval& other);

  const std::string& attribute() const {
    return (lower != nullptr ? lower : upper)->attribute;
  }

  /// True when a bounding predicate includes its own value: every bound
  /// but a strict < or >.
  static bool Includes(const Predicate& bound) {
    return bound.op != RelOp::kLt && bound.op != RelOp::kGt;
  }

  /// True when both ends are inclusive and equal.
  bool IsPoint() const;

  /// True when no value lies between the ends (lower above upper, or
  /// equal ends not both inclusive).
  bool IsEmpty() const;
};

/// A conjunction of keyword predicates; a record satisfies it when every
/// predicate is satisfied.
struct Conjunction {
  std::vector<Predicate> predicates;

  bool Matches(const Record& record) const;
  std::string ToString() const;

  friend bool operator==(const Conjunction& a, const Conjunction& b) {
    return a.predicates == b.predicates;
  }
};

/// An ABDM query in disjunctive normal form: a disjunction of
/// conjunctions of keyword predicates (Ch. II.C.1). An empty query (no
/// conjunctions) matches nothing; a query with one empty conjunction
/// matches everything.
class Query {
 public:
  Query() = default;
  explicit Query(std::vector<Conjunction> disjuncts)
      : disjuncts_(std::move(disjuncts)) {}

  /// Builds the common single-conjunction query.
  static Query And(std::vector<Predicate> predicates) {
    return Query({Conjunction{std::move(predicates)}});
  }

  /// Convenience: (FILE = file) AND further predicates. Every translated
  /// kernel query in MLDS leads with the FILE predicate.
  static Query ForFile(std::string_view file,
                       std::vector<Predicate> more = {});

  /// The key-set shape: for each of `keys`, in order, the disjunct
  /// (FILE = file) and (attribute = key) followed by `shared`. The front
  /// ends fetch, check, update and delete records by keys through it (a
  /// braced `{key}` is the one-key lookup), and the kernel planner folds
  /// several keys into one INDEX KEYS probe (kds::FoldKeys). Empty `keys`
  /// give the empty query, which matches nothing: callers skip that step
  /// rather than issue it.
  template <typename Keys = std::initializer_list<std::string_view>>
  static Query KeySet(std::string_view file, std::string_view attribute,
                      const Keys& keys,
                      const std::vector<Predicate>& shared = {}) {
    Query query;
    for (const auto& key : keys) {
      query.disjuncts_.push_back(KeyDisjunct(file, attribute, key, shared));
    }
    return query;
  }

  bool Matches(const Record& record) const;

  const std::vector<Conjunction>& disjuncts() const { return disjuncts_; }
  std::vector<Conjunction>& mutable_disjuncts() { return disjuncts_; }
  bool empty() const { return disjuncts_.empty(); }

  /// Returns the file name this query is restricted to, if every disjunct
  /// leads with an equality predicate on FILE naming the same file;
  /// otherwise returns an empty string. The kernel engine uses this to
  /// confine evaluation to one file's records.
  std::string SingleFile() const;

  /// Renders the query in the thesis's parenthesized notation, e.g.
  /// ((FILE = course) and (title = 'Advanced Database')).
  std::string ToString() const;

  friend bool operator==(const Query& a, const Query& b) {
    return a.disjuncts_ == b.disjuncts_;
  }

 private:
  static Conjunction KeyDisjunct(std::string_view file,
                                 std::string_view attribute,
                                 std::string_view key,
                                 const std::vector<Predicate>& shared);

  std::vector<Conjunction> disjuncts_;
};

}  // namespace mlds::abdm

#endif  // MLDS_ABDM_QUERY_H_
