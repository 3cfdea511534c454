#ifndef MLDS_SQL_AST_H_
#define MLDS_SQL_AST_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "abdm/query.h"
#include "abdm/value.h"
#include "common/result.h"

namespace mlds::sql {

/// A column reference, optionally table-qualified ("course.title").
struct ColumnRef {
  std::string table;  ///< empty when unqualified.
  std::string column;

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }

  friend bool operator==(const ColumnRef&, const ColumnRef&) = default;
};

/// One WHERE comparison: column <op> literal, or (for joins) column <op>
/// column.
struct SqlComparison {
  ColumnRef left;
  abdm::RelOp op = abdm::RelOp::kEq;
  /// Exactly one of `value` / `right_column` applies.
  abdm::Value value;
  std::optional<ColumnRef> right_column;

  friend bool operator==(const SqlComparison&, const SqlComparison&) = default;
};

/// WHERE clause in disjunctive normal form: OR of ANDs of comparisons.
struct WhereClause {
  std::vector<std::vector<SqlComparison>> disjuncts;

  bool empty() const { return disjuncts.empty(); }

  friend bool operator==(const WhereClause&, const WhereClause&) = default;
};

/// Aggregates usable in a SELECT list.
enum class SqlAggregate {
  kNone,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
};

/// One SELECT list item: a column, optionally aggregated; `star` for *.
struct SelectItem {
  bool star = false;
  ColumnRef column;
  SqlAggregate aggregate = SqlAggregate::kNone;

  friend bool operator==(const SelectItem&, const SelectItem&) = default;
};

/// SELECT items FROM t1 [, t2] [WHERE ...] [GROUP BY col] [ORDER BY col].
/// Two-table FROM lists require an equi-join comparison in the WHERE
/// clause (translated onto ABDL's RETRIEVE-COMMON).
struct SelectStatement {
  std::vector<SelectItem> items;
  std::vector<std::string> from;
  WhereClause where;
  std::optional<std::string> group_by;
  std::optional<std::string> order_by;
  /// EXPLAIN SELECT ...: execute and return the annotated plan too.
  bool explain = false;

  friend bool operator==(const SelectStatement&,
                         const SelectStatement&) = default;
};

/// INSERT INTO t (c1, ...) VALUES (v1, ...) [, (v1, ...) ...].
///
/// Two extended forms feed the bulk-ingest fast path:
///  - multi-row VALUES: additional rows land in `more_rows`, and the
///    whole statement executes as one kernel INSERT;
///  - parameter markers: `?` in the (single) VALUES row marks a slot of
///    a prepared template. `param_mask[i]` flags values[i] as a marker
///    (its Value is a null placeholder); the template is compiled once
///    and bound per parameter row by SqlMachine::ExecuteBatch.
struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;
  std::vector<abdm::Value> values;  ///< first VALUES row.
  /// VALUES rows after the first; each matches `columns` in arity.
  std::vector<std::vector<abdm::Value>> more_rows;
  /// Parallel to `values`: 1 where the row held a `?` marker. Empty or
  /// all-zero for an ordinary INSERT; a parameterized INSERT has exactly
  /// one VALUES row.
  std::vector<uint8_t> param_mask;

  bool parameterized() const {
    for (uint8_t m : param_mask) {
      if (m != 0) return true;
    }
    return false;
  }

  friend bool operator==(const InsertStatement&,
                         const InsertStatement&) = default;
};

/// UPDATE t SET c = v [, ...] [WHERE ...].
struct UpdateStatement {
  std::string table;
  std::vector<std::pair<std::string, abdm::Value>> assignments;
  WhereClause where;
  /// EXPLAIN UPDATE ... — see SelectStatement::explain.
  bool explain = false;

  friend bool operator==(const UpdateStatement&,
                         const UpdateStatement&) = default;
};

/// DELETE FROM t [WHERE ...].
struct DeleteStatement {
  std::string table;
  WhereClause where;
  /// EXPLAIN DELETE ... — see SelectStatement::explain.
  bool explain = false;

  friend bool operator==(const DeleteStatement&,
                         const DeleteStatement&) = default;
};

/// One SQL statement.
using SqlStatement = std::variant<SelectStatement, InsertStatement,
                                  UpdateStatement, DeleteStatement>;

/// Parses one SQL statement (optionally ';'-terminated). Supported
/// grammar:
///
///   SELECT * | item[, item...] FROM t [, t2]
///     [WHERE cond [AND|OR cond]... with parentheses]
///     [GROUP BY col] [ORDER BY col]
///   INSERT INTO t (c, ...) VALUES (v | ?, ...) [, (v, ...) ...]
///   UPDATE t SET c = v [, ...] [WHERE ...]
///   DELETE FROM t [WHERE ...]
///   EXPLAIN <select | update | delete>
///
/// EXPLAIN executes the statement and additionally returns its annotated
/// physical plan; EXPLAIN INSERT is rejected (no access path to show).
///
/// Aggregates: COUNT/SUM/AVG/MIN/MAX(col). String literals in single
/// quotes; AND binds tighter than OR; the WHERE tree is normalized to
/// DNF at parse time.
Result<SqlStatement> ParseSql(std::string_view text);

}  // namespace mlds::sql

#endif  // MLDS_SQL_AST_H_
