#include "kms/sql_machine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/strings.h"
#include "transform/abdm_mapping.h"

namespace mlds::kms {

namespace {

using abdm::Conjunction;
using abdm::FilePred;
using abdm::Predicate;
using abdm::Query;
using abdm::Record;
using abdm::RelOp;
using abdm::Value;
using relational::Table;
using sql::SelectStatement;
using sql::SqlAggregate;
using sql::SqlComparison;
using sql::WhereClause;
using transform::KeyAttribute;

abdl::AggregateOp MapAggregate(SqlAggregate aggregate) {
  switch (aggregate) {
    case SqlAggregate::kNone:
      return abdl::AggregateOp::kNone;
    case SqlAggregate::kCount:
      return abdl::AggregateOp::kCount;
    case SqlAggregate::kSum:
      return abdl::AggregateOp::kSum;
    case SqlAggregate::kAvg:
      return abdl::AggregateOp::kAvg;
    case SqlAggregate::kMin:
      return abdl::AggregateOp::kMin;
    case SqlAggregate::kMax:
      return abdl::AggregateOp::kMax;
  }
  return abdl::AggregateOp::kNone;
}

}  // namespace

SqlMachine::SqlMachine(const relational::Schema* schema,
                       kc::KernelExecutor* executor)
    : schema_(schema),
      executor_(executor),
      inserts_([this](abdl::Request r) { return Issue(std::move(r)); }) {}

Result<kds::Response> SqlMachine::Issue(abdl::Request request) {
  Result<kds::Response> response = executor_->Execute(request);
  trace_.Add(std::move(request));
  return response;
}

Result<SqlMachine::Outcome> SqlMachine::Execute(
    const sql::SqlStatement& statement) {
  trace_.clear();
  struct Visitor {
    SqlMachine* self;
    Result<Outcome> operator()(const sql::SelectStatement& s) {
      return self->Select(s);
    }
    Result<Outcome> operator()(const sql::InsertStatement& s) {
      return self->Insert(s);
    }
    Result<Outcome> operator()(const sql::UpdateStatement& s) {
      return self->Update(s);
    }
    Result<Outcome> operator()(const sql::DeleteStatement& s) {
      return self->Delete(s);
    }
  };
  return std::visit(Visitor{this}, statement);
}

Result<std::shared_ptr<const SqlMachine::Translation>> SqlMachine::Translate(
    std::string_view text) {
  return GetOrCompile<Translation>(
      cache_, "sql", text, [&]() -> Result<Translation> {
        MLDS_ASSIGN_OR_RETURN(sql::SqlStatement statement, sql::ParseSql(text));
        Translation t;
        if (const auto* insert =
                std::get_if<sql::InsertStatement>(&statement)) {
          if (insert->parameterized()) {
            MLDS_ASSIGN_OR_RETURN(t.prepared, CompilePreparedInsert(*insert));
          } else {
            t.ast = std::move(statement);
          }
        } else {
          MLDS_ASSIGN_OR_RETURN(t.compiled, Compile(statement));
        }
        return t;
      });
}

Result<SqlMachine::Outcome> SqlMachine::ExecuteText(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(std::shared_ptr<const Translation> translation,
                        Translate(text));
  if (translation->compiled.has_value()) {
    trace_.clear();
    return RunCompiled(*translation->compiled);
  }
  if (translation->prepared.has_value()) {
    return Status::InvalidArgument(
        "parameterized INSERT template requires a parameter batch; "
        "execute it through the batch interface");
  }
  return Execute(*translation->ast);
}

Result<SqlMachine::Outcome> SqlMachine::ExecuteBatch(
    std::string_view statement,
    const std::vector<std::vector<Value>>& rows,
    const abdl::BatchLimits& limits) {
  trace_.clear();
  MLDS_ASSIGN_OR_RETURN(std::shared_ptr<const Translation> translation,
                        Translate(statement));
  if (!translation->prepared.has_value()) {
    return Status::InvalidArgument(
        "batch execution requires a parameterized INSERT template "
        "(INSERT ... VALUES with '?' markers)");
  }
  return RunInsert(*translation->prepared, rows, limits);
}

Result<SqlMachine::CompiledSql> SqlMachine::Compile(
    const sql::SqlStatement& statement) {
  struct Visitor {
    SqlMachine* self;
    Result<CompiledSql> operator()(const sql::SelectStatement& s) {
      return self->CompileSelect(s);
    }
    Result<CompiledSql> operator()(const sql::InsertStatement&) {
      return Status::Internal("INSERT translations are not compiled");
    }
    Result<CompiledSql> operator()(const sql::UpdateStatement& s) {
      return self->CompileUpdate(s);
    }
    Result<CompiledSql> operator()(const sql::DeleteStatement& s) {
      return self->CompileDelete(s);
    }
  };
  return std::visit(Visitor{this}, statement);
}

Result<SqlMachine::Outcome> SqlMachine::RunCompiled(
    const CompiledSql& compiled) {
  Outcome outcome;
  switch (compiled.kind) {
    case CompiledSql::Kind::kSelect: {
      MLDS_ASSIGN_OR_RETURN(kds::Response resp, Issue(compiled.requests[0]));
      outcome.rows = std::move(resp.records);
      outcome.plan = std::move(resp.plan);
      if (compiled.strip_file) {
        for (auto& row : outcome.rows) {
          row.Erase(std::string(abdm::kFileAttribute));
        }
      }
      return outcome;
    }
    case CompiledSql::Kind::kUpdate: {
      // One kernel UPDATE per SET assignment; every request matches the
      // same rows, so the row count is the maximum, not the sum.
      std::vector<std::shared_ptr<const kds::PlanNode>> plans;
      for (const abdl::Request& request : compiled.requests) {
        MLDS_ASSIGN_OR_RETURN(kds::Response resp, Issue(request));
        outcome.affected = std::max(outcome.affected, resp.affected);
        if (resp.plan != nullptr) plans.push_back(std::move(resp.plan));
      }
      outcome.plan = kds::SequencePlans(std::move(plans));
      outcome.info =
          "updated " + std::to_string(outcome.affected) + " row(s)";
      return outcome;
    }
    case CompiledSql::Kind::kDelete: {
      MLDS_ASSIGN_OR_RETURN(kds::Response resp, Issue(compiled.requests[0]));
      outcome.affected = resp.affected;
      outcome.plan = std::move(resp.plan);
      outcome.info = "deleted " + std::to_string(resp.affected) + " row(s)";
      return outcome;
    }
  }
  return Status::Internal("unreachable compiled-SQL kind");
}

Result<const Table*> SqlMachine::ResolveColumn(
    const sql::ColumnRef& ref,
    const std::vector<const Table*>& tables) const {
  if (!ref.table.empty()) {
    for (const Table* table : tables) {
      if (table->name == ref.table) {
        if (table->FindColumn(ref.column) == nullptr) {
          return Status::NotFound("column '" + ref.ToString() +
                                  "' does not exist");
        }
        return table;
      }
    }
    return Status::NotFound("table '" + ref.table +
                            "' is not in the FROM list");
  }
  const Table* found = nullptr;
  for (const Table* table : tables) {
    if (table->FindColumn(ref.column) != nullptr) {
      if (found != nullptr) {
        return Status::InvalidArgument("column '" + ref.column +
                                       "' is ambiguous; qualify it");
      }
      found = table;
    }
  }
  if (found == nullptr) {
    return Status::NotFound("column '" + ref.column + "' does not exist");
  }
  return found;
}

Result<Query> SqlMachine::BuildQuery(const Table& table,
                                     const WhereClause& where) const {
  std::vector<Conjunction> disjuncts;
  if (where.empty()) {
    disjuncts.push_back(Conjunction{{FilePred(table.name)}});
    return Query(std::move(disjuncts));
  }
  for (const auto& conj : where.disjuncts) {
    Conjunction out;
    out.predicates.push_back(FilePred(table.name));
    for (const SqlComparison& cmp : conj) {
      if (cmp.right_column.has_value()) {
        return Status::Unimplemented(
            "column-to-column comparisons are only supported as the "
            "equi-join of a two-table SELECT");
      }
      if (!cmp.left.table.empty() && cmp.left.table != table.name) {
        return Status::NotFound("table '" + cmp.left.table +
                                "' is not in the FROM list");
      }
      if (table.FindColumn(cmp.left.column) == nullptr) {
        return Status::NotFound("column '" + cmp.left.column +
                                "' does not exist in '" + table.name + "'");
      }
      out.predicates.push_back(
          Predicate{cmp.left.column, cmp.op, cmp.value});
    }
    disjuncts.push_back(std::move(out));
  }
  return Query(std::move(disjuncts));
}

Result<SqlMachine::Outcome> SqlMachine::Select(const SelectStatement& s) {
  MLDS_ASSIGN_OR_RETURN(CompiledSql compiled, CompileSelect(s));
  return RunCompiled(compiled);
}

Result<SqlMachine::CompiledSql> SqlMachine::CompileSelect(
    const SelectStatement& s) {
  std::vector<const Table*> tables;
  for (const auto& name : s.from) {
    const Table* table = schema_->FindTable(name);
    if (table == nullptr) {
      return Status::NotFound("table '" + name + "' does not exist");
    }
    tables.push_back(table);
  }

  // Validate the select list against the FROM tables.
  for (const auto& item : s.items) {
    if (item.star) continue;
    MLDS_RETURN_IF_ERROR(ResolveColumn(item.column, tables).status());
  }

  CompiledSql compiled;
  compiled.kind = CompiledSql::Kind::kSelect;
  if (tables.size() == 1) {
    MLDS_ASSIGN_OR_RETURN(Query query, BuildQuery(*tables[0], s.where));
    abdl::RetrieveRequest req;
    req.query = std::move(query);
    req.explain = s.explain;
    const bool star =
        std::any_of(s.items.begin(), s.items.end(),
                    [](const auto& i) { return i.star && i.aggregate ==
                                               SqlAggregate::kNone; });
    if (star) {
      req.all_attributes = true;
    } else {
      for (const auto& item : s.items) {
        abdl::TargetItem target;
        target.attribute = item.star ? KeyAttribute(tables[0]->name)
                                     : item.column.column;
        target.aggregate = MapAggregate(item.aggregate);
        req.targets.push_back(std::move(target));
      }
    }
    if (s.group_by.has_value()) {
      req.by_attribute = *s.group_by;
    } else if (s.order_by.has_value()) {
      req.by_attribute = *s.order_by;
    }
    compiled.requests.push_back(std::move(req));
    // Hide the kernel FILE keyword from star results.
    compiled.strip_file = star;
    return compiled;
  }

  // Two-table SELECT: find the single equi-join comparison and split the
  // remaining conditions per table (OR across tables is not supported).
  if (!s.where.disjuncts.empty() && s.where.disjuncts.size() != 1) {
    return Status::Unimplemented(
        "two-table SELECT supports a single AND-connected WHERE clause");
  }
  const Table* left = tables[0];
  const Table* right = tables[1];
  std::string left_col, right_col;
  std::vector<Predicate> left_preds = {FilePred(left->name)};
  std::vector<Predicate> right_preds = {FilePred(right->name)};
  if (!s.where.disjuncts.empty()) {
    for (const SqlComparison& cmp : s.where.disjuncts[0]) {
      if (cmp.right_column.has_value()) {
        if (!left_col.empty()) {
          return Status::Unimplemented(
              "two-table SELECT supports exactly one equi-join comparison");
        }
        if (cmp.op != RelOp::kEq) {
          return Status::Unimplemented("joins must be equi-joins");
        }
        MLDS_ASSIGN_OR_RETURN(const Table* lt,
                              ResolveColumn(cmp.left, tables));
        MLDS_ASSIGN_OR_RETURN(const Table* rt,
                              ResolveColumn(*cmp.right_column, tables));
        if (lt == rt) {
          return Status::InvalidArgument(
              "join comparison must span both tables");
        }
        if (lt == left) {
          left_col = cmp.left.column;
          right_col = cmp.right_column->column;
        } else {
          left_col = cmp.right_column->column;
          right_col = cmp.left.column;
        }
      } else {
        MLDS_ASSIGN_OR_RETURN(const Table* owner,
                              ResolveColumn(cmp.left, tables));
        Predicate pred{cmp.left.column, cmp.op, cmp.value};
        (owner == left ? left_preds : right_preds).push_back(std::move(pred));
      }
    }
  }
  if (left_col.empty()) {
    return Status::InvalidArgument(
        "two-table SELECT requires an equi-join comparison in WHERE");
  }

  abdl::RetrieveCommonRequest join;
  join.explain = s.explain;
  join.left_query = Query::And(std::move(left_preds));
  join.left_attribute = left_col;
  join.right_query = Query::And(std::move(right_preds));
  join.right_attribute = right_col;
  const bool star = std::any_of(
      s.items.begin(), s.items.end(),
      [](const auto& i) { return i.star; });
  if (!star) {
    for (const auto& item : s.items) {
      if (item.aggregate != SqlAggregate::kNone) {
        return Status::Unimplemented(
            "aggregates over two-table SELECTs are not supported");
      }
      join.targets.push_back(abdl::TargetItem{item.column.column});
    }
  }
  compiled.requests.push_back(std::move(join));
  compiled.strip_file = star;
  return compiled;
}

Status SqlMachine::CheckInsertRecord(const Table& table,
                                     const Record& record) {
  // NOT NULL enforcement.
  for (const auto& column : table.columns) {
    if (column.not_null && record.GetOrNull(column.name).is_null()) {
      return Status::ConstraintViolation("column '" + column.name +
                                         "' is NOT NULL");
    }
  }
  return Status::OK();
}

Result<SqlMachine::Outcome> SqlMachine::Insert(const sql::InsertStatement& s) {
  if (s.parameterized()) {
    return Status::InvalidArgument(
        "parameterized INSERT template requires a parameter batch; "
        "execute it through the batch interface");
  }
  MLDS_ASSIGN_OR_RETURN(PreparedInsert prepared, CompilePreparedInsert(s));
  std::vector<std::vector<Value>> rows = {s.values};
  rows.insert(rows.end(), s.more_rows.begin(), s.more_rows.end());
  return RunInsert(prepared, rows, std::nullopt);
}

Result<SqlMachine::Outcome> SqlMachine::RunInsert(
    const PreparedInsert& prepared,
    const std::vector<std::vector<Value>>& rows,
    const std::optional<abdl::BatchLimits>& limits) {
  const Table* table = schema_->FindTable(prepared.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + prepared.table + "' does not exist");
  }
  auto build = [&](const std::vector<Value>& row) -> Result<Record> {
    MLDS_ASSIGN_OR_RETURN(Record record, prepared.request.BindRow(row));
    MLDS_RETURN_IF_ERROR(CheckInsertRecord(*table, record));
    record.Set(KeyAttribute(prepared.table), Value::Null());
    return record;
  };
  // UNIQUE: combination semantics; a row with a null there is unchecked.
  const InsertPath::Unique unique{
      table->unique_columns, abdl::NullRule::kSkipRecord,
      "INSERT violates UNIQUE(" + Join(table->unique_columns, ", ") +
          ") on '" + table->name + "'"};
  std::string last_key;
  Outcome outcome;
  MLDS_ASSIGN_OR_RETURN(
      outcome.affected,
      inserts_.Insert("prepared INSERT", prepared.table,
                      prepared.request.params_per_row(), rows, limits, build,
                      unique,
                      [&](const std::vector<std::string>& keys, const Record&) {
                        if (!keys.empty()) last_key = keys.back();
                      }));
  outcome.info = outcome.affected == 1 && !limits.has_value()
                     ? "inserted " + last_key
                     : "inserted " + std::to_string(outcome.affected) +
                           " row(s)";
  return outcome;
}

Result<SqlMachine::PreparedInsert> SqlMachine::CompilePreparedInsert(
    const sql::InsertStatement& s) {
  const Table* table = schema_->FindTable(s.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + s.table + "' does not exist");
  }
  // A literal INSERT compiles to a template that binds every column, one
  // parameter row per VALUES tuple.
  const bool bind_all = !s.parameterized();
  PreparedInsert prepared;
  prepared.table = s.table;
  prepared.request.constants.Set(std::string(abdm::kFileAttribute),
                                 Value::String(s.table));
  for (size_t i = 0; i < s.columns.size(); ++i) {
    if (table->FindColumn(s.columns[i]) == nullptr) {
      return Status::NotFound("column '" + s.columns[i] +
                              "' does not exist in '" + s.table + "'");
    }
    if (bind_all || (i < s.param_mask.size() && s.param_mask[i] != 0)) {
      prepared.request.parameters.push_back(s.columns[i]);
    } else {
      prepared.request.constants.Set(s.columns[i], s.values[i]);
    }
  }
  return prepared;
}

Result<SqlMachine::Outcome> SqlMachine::Update(const sql::UpdateStatement& s) {
  MLDS_ASSIGN_OR_RETURN(CompiledSql compiled, CompileUpdate(s));
  return RunCompiled(compiled);
}

Result<SqlMachine::CompiledSql> SqlMachine::CompileUpdate(
    const sql::UpdateStatement& s) {
  const Table* table = schema_->FindTable(s.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + s.table + "' does not exist");
  }
  for (const auto& [column, value] : s.assignments) {
    const relational::Column* c = table->FindColumn(column);
    if (c == nullptr) {
      return Status::NotFound("column '" + column + "' does not exist in '" +
                              s.table + "'");
    }
    if (c->not_null && value.is_null()) {
      return Status::ConstraintViolation("column '" + column +
                                         "' is NOT NULL");
    }
  }
  MLDS_ASSIGN_OR_RETURN(Query query, BuildQuery(*table, s.where));
  CompiledSql compiled;
  compiled.kind = CompiledSql::Kind::kUpdate;
  for (const auto& [column, value] : s.assignments) {
    abdl::UpdateRequest update;
    update.query = query;
    update.explain = s.explain;
    update.modifier =
        abdl::Modifier{column, abdl::ModifierKind::kSet, value};
    compiled.requests.push_back(std::move(update));
  }
  return compiled;
}

Result<SqlMachine::Outcome> SqlMachine::Delete(const sql::DeleteStatement& s) {
  MLDS_ASSIGN_OR_RETURN(CompiledSql compiled, CompileDelete(s));
  return RunCompiled(compiled);
}

Result<SqlMachine::CompiledSql> SqlMachine::CompileDelete(
    const sql::DeleteStatement& s) {
  const Table* table = schema_->FindTable(s.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + s.table + "' does not exist");
  }
  MLDS_ASSIGN_OR_RETURN(Query query, BuildQuery(*table, s.where));
  abdl::DeleteRequest del;
  del.query = std::move(query);
  del.explain = s.explain;
  CompiledSql compiled;
  compiled.kind = CompiledSql::Kind::kDelete;
  compiled.requests.push_back(std::move(del));
  return compiled;
}

}  // namespace mlds::kms
