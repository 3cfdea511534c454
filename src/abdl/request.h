#ifndef MLDS_ABDL_REQUEST_H_
#define MLDS_ABDL_REQUEST_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "abdm/query.h"
#include "abdm/record.h"

namespace mlds::abdl {

/// How a uniqueness guard treats a null among a record's guarded
/// attributes.
enum class NullRule {
  /// SQL UNIQUE: a record with any null there is not checked.
  kSkipRecord,
  /// CODASYL DUPLICATES ARE NOT ALLOWED: the null attributes drop out of
  /// the combination, and a record with none left is not checked.
  kDropAttribute,
};

/// What an INSERT leaves to the kernel. The kernel does it under the
/// target file's exclusive lock, before anything is logged or written, so
/// no other request falls between the check and the write. The textual
/// form carries no guard: the log holds records as the guard left them.
struct InsertGuard {
  /// Non-empty: each record whose `key_attribute` is absent or NULL gets
  /// the next database key of its file (abdm::MakeDbKey) there, from a
  /// per-file counter (kds::KeyCounter); the response lists the keys.
  std::string key_attribute;
  /// Attributes unique in combination: a record matching a live record of
  /// its file, or an earlier record of the request, on every one of them
  /// (after `nulls`) fails the whole request with ConstraintViolation.
  std::vector<std::string> unique;
  NullRule nulls = NullRule::kSkipRecord;

  bool empty() const { return key_attribute.empty() && unique.empty(); }

  friend bool operator==(const InsertGuard&, const InsertGuard&) = default;
};

/// INSERT places new records into the database, each qualified by a list
/// of keywords (Ch. II.C.2); each record's FILE keyword names its target
/// file, so the records of one request may target different files. The
/// request executes atomically per engine: every record is placed and the
/// whole request logs as one WAL entry, so recovery replays it
/// all-or-nothing. Text form, one keyword group per record:
///
///   INSERT (<FILE, f>, <a, 1>) (<FILE, f>, <a, 2>) ...
struct InsertRequest {
  std::vector<abdm::Record> records;
  InsertGuard guard;

  friend bool operator==(const InsertRequest&, const InsertRequest&) = default;
};

/// DELETE removes the records identified by the query.
struct DeleteRequest {
  abdm::Query query;
  /// Explain mode: execute normally, but return the annotated physical
  /// plan of the retrieval phase alongside the result (see kds::PlanNode).
  bool explain = false;

  friend bool operator==(const DeleteRequest&, const DeleteRequest&) = default;
};

/// How an UPDATE modifier changes the target attribute's value.
enum class ModifierKind {
  kSet,  ///< attribute = constant
  kAdd,  ///< attribute = attribute + constant (numeric attributes)
};

/// The modifier of an UPDATE request: which attribute changes and how.
struct Modifier {
  std::string attribute;
  ModifierKind kind = ModifierKind::kSet;
  abdm::Value operand;

  std::string ToString() const;

  friend bool operator==(const Modifier&, const Modifier&) = default;
};

/// UPDATE modifies the records identified by the query, applying the
/// modifier to each.
struct UpdateRequest {
  abdm::Query query;
  Modifier modifier;
  /// Explain mode — see DeleteRequest::explain.
  bool explain = false;

  friend bool operator==(const UpdateRequest&, const UpdateRequest&) = default;
};

/// Aggregate operations available in a RETRIEVE target list.
enum class AggregateOp {
  kNone,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
};

/// One element of a RETRIEVE target list: an output attribute, optionally
/// wrapped in an aggregate.
struct TargetItem {
  std::string attribute;
  AggregateOp aggregate = AggregateOp::kNone;

  std::string ToString() const;

  friend bool operator==(const TargetItem&, const TargetItem&) = default;
};

/// RETRIEVE accesses and returns records: qualified by a query, a
/// target-list, and an optional by-clause that groups records when an
/// aggregate is specified (Ch. II.C.2). An empty target list with
/// `all_attributes` set returns whole records.
struct RetrieveRequest {
  abdm::Query query;
  bool all_attributes = false;
  std::vector<TargetItem> targets;
  /// BY attribute: groups results (and orders them) by this attribute.
  std::optional<std::string> by_attribute;
  /// Explain mode — see DeleteRequest::explain.
  bool explain = false;

  friend bool operator==(const RetrieveRequest&,
                         const RetrieveRequest&) = default;
};

/// RETRIEVE (query) (all attributes): the front ends' whole-record fetch.
inline RetrieveRequest RetrieveAll(abdm::Query query) {
  RetrieveRequest req;
  req.query = std::move(query);
  req.all_attributes = true;
  return req;
}

/// RETRIEVE (query) (attribute): the front ends' key and keyword probe.
inline RetrieveRequest RetrieveAttribute(abdm::Query query,
                                         std::string attribute) {
  RetrieveRequest req;
  req.query = std::move(query);
  req.targets = {TargetItem{std::move(attribute)}};
  return req;
}

/// RETRIEVE-COMMON joins the records satisfying two queries on a common
/// attribute pair, returning the merged target attributes. The thesis's
/// interface does not use it (Ch. II.C.2), but it is part of ABDL and is
/// provided for completeness.
struct RetrieveCommonRequest {
  abdm::Query left_query;
  std::string left_attribute;
  abdm::Query right_query;
  std::string right_attribute;
  std::vector<TargetItem> targets;  ///< empty => all attributes of both.
  /// Explain mode — see DeleteRequest::explain.
  bool explain = false;

  friend bool operator==(const RetrieveCommonRequest&,
                         const RetrieveCommonRequest&) = default;
};

/// A single ABDL request: one of the five basic operations.
using Request = std::variant<InsertRequest, DeleteRequest, UpdateRequest,
                             RetrieveRequest, RetrieveCommonRequest>;

/// A transaction groups two or more sequentially executed requests.
using Transaction = std::vector<Request>;

/// True for the operations that change file contents (INSERT, DELETE,
/// UPDATE): the kernel locks their files exclusively and the write-ahead
/// logs record them.
bool IsMutation(const Request& request);

/// Returns the operation keyword of `request` ("INSERT", "RETRIEVE", ...).
std::string_view RequestOperation(const Request& request);

/// True when `request` carries the explain flag. INSERT never does: it
/// chooses no access path, so there is nothing to explain.
bool IsExplain(const Request& request);

/// Sets the explain flag on `request`. A no-op for INSERT.
void SetExplain(Request& request, bool explain);

/// Renders `request` in the thesis's ABDL notation.
std::string ToString(const Request& request);

/// ToString appended to `out` in place. The WAL logs every mutation in
/// this notation; for a bulk INSERT the entry runs to megabytes, so the
/// logging path renders straight into the (prefixed) log string instead
/// of concatenating temporaries.
void AppendToString(const Request& request, std::string& out);

}  // namespace mlds::abdl

#endif  // MLDS_ABDL_REQUEST_H_
