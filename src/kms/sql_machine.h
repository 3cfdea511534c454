#ifndef MLDS_KMS_SQL_MACHINE_H_
#define MLDS_KMS_SQL_MACHINE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abdl/prepared.h"
#include "abdl/request.h"
#include "common/result.h"
#include "kc/executor.h"
#include "kds/plan.h"
#include "kms/insert_path.h"
#include "kms/request_trace.h"
#include "kms/translation_cache.h"
#include "relational/schema.h"
#include "sql/ast.h"

namespace mlds::kms {

/// The relational language interface's SQL-to-ABDL translator: the third
/// user data language of MLDS over the same kernel. Translation is close
/// to one-to-one:
///
///   SELECT (one table)  -> RETRIEVE (query) (targets) [BY col]
///   SELECT (two tables) -> RETRIEVE-COMMON over the equi-join column
///   INSERT              -> [UNIQUE probe] + INSERT
///   UPDATE              -> one kernel UPDATE per SET assignment
///   DELETE              -> DELETE
///
/// Constraints enforced: NOT NULL on INSERT, UNIQUE(cols) on INSERT,
/// column existence everywhere.
///
/// EXPLAIN statements compile to the same kernel requests with the abdl
/// explain flag set: they execute normally and additionally surface the
/// annotated physical plan in Outcome::plan. The translation cache keys
/// on the statement text, so "EXPLAIN SELECT ..." caches separately from
/// the plain statement.
class SqlMachine {
 public:
  /// `schema` and `executor` must outlive the machine.
  SqlMachine(const relational::Schema* schema, kc::KernelExecutor* executor);

  SqlMachine(const SqlMachine&) = delete;
  SqlMachine& operator=(const SqlMachine&) = delete;

  /// Outcome of one SQL statement.
  struct Outcome {
    std::vector<abdm::Record> rows;  ///< SELECT results.
    size_t affected = 0;             ///< INSERT/UPDATE/DELETE row count.
    std::string info;
    /// For EXPLAIN statements: the annotated physical plan. A statement
    /// that issued one kernel request carries that request's plan
    /// directly; a multi-assignment UPDATE wraps its per-request plans
    /// under a SEQUENCE root.
    std::shared_ptr<const kds::PlanNode> plan;
  };

  Result<Outcome> Execute(const sql::SqlStatement& statement);
  Result<Outcome> ExecuteText(std::string_view text);

  /// Executes a prepared INSERT template — `INSERT INTO t (c, ...) VALUES
  /// (?, ...)` — once per parameter row, chunked into kernel batch
  /// INSERTs of at most EffectiveBatchSize(limits) records each. The
  /// compiled template caches on the statement text, so a bulk load pays
  /// parsing and name resolution once and the translation cache serves
  /// every subsequent call as a warm hit.
  Result<Outcome> ExecuteBatch(std::string_view statement,
                               const std::vector<std::vector<abdm::Value>>& rows,
                               const abdl::BatchLimits& limits = {});

  /// Attaches the shared compiled-translation cache. SELECT, UPDATE, and
  /// DELETE are pure functions of (statement, schema), so their
  /// translations cache as ready-to-issue ABDL requests; INSERT is impure
  /// (tuple-key allocation, constraint probes against live data), so only
  /// its parsed AST caches and the translation re-runs each time.
  void set_translation_cache(TranslationCache* cache) { cache_ = cache; }

  /// ABDL requests issued by the most recent statement.
  const std::vector<std::string>& trace() const { return trace_.Render(); }

 private:
  /// A pure SQL statement compiled down to its ABDL requests. Replaying
  /// one skips parsing, name resolution, and query building — the cache
  /// hit executes the kernel requests directly.
  struct CompiledSql {
    enum class Kind { kSelect, kUpdate, kDelete };
    Kind kind = Kind::kSelect;
    std::vector<abdl::Request> requests;
    /// SELECT * hides the kernel FILE keyword from the returned rows.
    bool strip_file = false;
  };

  /// An INSERT compiled to a bindable kernel template: the table
  /// resolved, every column checked, constants (FILE + literal columns)
  /// baked into the record, parameter slots ordered. A literal INSERT
  /// binds every column, one row per VALUES tuple.
  struct PreparedInsert {
    std::string table;
    abdl::PreparedRequest request;
  };

  /// What the cache stores per statement: the compiled requests for pure
  /// statements, the bindable template for a parameterized INSERT, and
  /// the bare AST for a literal INSERT (impure: tuple-key allocation and
  /// constraint probes run against live data each time).
  struct Translation {
    std::optional<CompiledSql> compiled;
    std::optional<PreparedInsert> prepared;
    std::optional<sql::SqlStatement> ast;
  };

  Result<Outcome> Select(const sql::SelectStatement& statement);
  Result<Outcome> Insert(const sql::InsertStatement& statement);
  Result<Outcome> Update(const sql::UpdateStatement& statement);
  Result<Outcome> Delete(const sql::DeleteStatement& statement);

  Result<CompiledSql> Compile(const sql::SqlStatement& statement);
  Result<CompiledSql> CompileSelect(const sql::SelectStatement& statement);
  Result<CompiledSql> CompileUpdate(const sql::UpdateStatement& statement);
  Result<CompiledSql> CompileDelete(const sql::DeleteStatement& statement);

  /// Parses and compiles `text` through the translation cache.
  Result<std::shared_ptr<const Translation>> Translate(std::string_view text);
  Result<PreparedInsert> CompilePreparedInsert(
      const sql::InsertStatement& statement);
  Result<Outcome> RunCompiled(const CompiledSql& compiled);

  /// Inserts `rows` through `prepared`: a literal INSERT (no `limits`)
  /// or a parameter batch, through the insert path.
  Result<Outcome> RunInsert(const PreparedInsert& prepared,
                            const std::vector<std::vector<abdm::Value>>& rows,
                            const std::optional<abdl::BatchLimits>& limits);

  /// NOT NULL enforcement for one record about to insert into `table`
  /// (UNIQUE rides the INSERT's kernel guard).
  static Status CheckInsertRecord(const relational::Table& table,
                                  const abdm::Record& record);

  Result<kds::Response> Issue(abdl::Request request);

  /// Resolves the table a column reference belongs to, and checks the
  /// column exists. `tables` lists the statement's FROM tables.
  Result<const relational::Table*> ResolveColumn(
      const sql::ColumnRef& ref,
      const std::vector<const relational::Table*>& tables) const;

  /// Builds the kernel query for a single-table WHERE clause.
  Result<abdm::Query> BuildQuery(const relational::Table& table,
                                 const sql::WhereClause& where) const;

  const relational::Schema* schema_;
  kc::KernelExecutor* executor_;
  TranslationCache* cache_ = nullptr;
  RequestTrace trace_;
  InsertPath inserts_;
};

}  // namespace mlds::kms

#endif  // MLDS_KMS_SQL_MACHINE_H_
