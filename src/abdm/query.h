#ifndef MLDS_ABDM_QUERY_H_
#define MLDS_ABDM_QUERY_H_

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
  std::vector<Conjunction> disjuncts_;
};

}  // namespace mlds::abdm

#endif  // MLDS_ABDM_QUERY_H_
