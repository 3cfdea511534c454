#include "kms/daplex_machine.h"

#include <algorithm>
#include <deque>
#include <ranges>
#include <unordered_map>

#include "transform/abdm_mapping.h"

namespace mlds::kms {

namespace {

using abdl::RetrieveAll;
using abdl::RetrieveAttribute;
using abdm::FilePred;
using abdm::Predicate;
using abdm::Query;
using abdm::Record;
using abdm::Value;
using daplex::Comparison;
using daplex::DaplexAggregate;
using daplex::ForEachQuery;
using daplex::Function;
using daplex::FunctionClass;
using transform::KeyAttribute;
using transform::SetAttribute;

/// True when any of `values` satisfies `cmp`.
bool Satisfies(const std::vector<Value>& values, const Comparison& cmp) {
  for (const Value& v : values) {
    Record probe;
    probe.Set(cmp.function, v);
    Predicate pred{cmp.function, cmp.op, cmp.value};
    if (pred.Matches(probe)) return true;
  }
  return false;
}

std::string JoinValues(const std::vector<Value>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].ToDisplayString();
  }
  return out;
}

}  // namespace

void DaplexMachine::EntityView::Absorb(const Record& record) {
  for (size_t i = 0; i < record.size(); ++i) {
    const std::string& attribute = record.attribute(i);
    const Value& value = record.value(i);
    if (attribute == abdm::kFileAttribute) {
      continue;
    }
    if (value.is_null()) continue;
    auto& seen = values[attribute];
    if (std::find(seen.begin(), seen.end(), value) == seen.end()) {
      seen.push_back(value);
    }
  }
}

const std::vector<Value>* DaplexMachine::EntityView::Find(
    std::string_view function) const {
  auto it = values.find(std::string(function));
  return it == values.end() ? nullptr : &it->second;
}

DaplexMachine::DaplexMachine(const daplex::FunctionalSchema* functional,
                             const network::Schema* schema,
                             const transform::FunNetMapping* mapping,
                             kc::KernelExecutor* executor)
    : functional_(functional),
      schema_(schema),
      mapping_(mapping),
      executor_(executor),
      inserts_([this](abdl::Request r) { return Issue(std::move(r)); }) {}

Result<kds::Response> DaplexMachine::Issue(abdl::Request request) {
  Result<kds::Response> response = executor_->Execute(request);
  trace_.Add(std::move(request));
  return response;
}

std::vector<std::string> DaplexMachine::AncestorChain(
    std::string_view type) const {
  std::vector<std::string> chain;
  std::deque<std::string> frontier;
  frontier.emplace_back(type);
  while (!frontier.empty()) {
    std::string current = std::move(frontier.front());
    frontier.pop_front();
    const daplex::Subtype* sub = functional_->FindSubtype(current);
    if (sub == nullptr) continue;
    for (const auto& super : sub->supertypes) {
      if (std::find(chain.begin(), chain.end(), super) == chain.end()) {
        chain.push_back(super);
        frontier.push_back(super);
      }
    }
  }
  return chain;
}

Result<DaplexMachine::FunctionSite> DaplexMachine::Resolve(
    std::string_view type, std::string_view function) const {
  std::vector<std::string> candidates;
  candidates.emplace_back(type);
  for (auto& ancestor : AncestorChain(type)) {
    candidates.push_back(std::move(ancestor));
  }
  for (const auto& candidate : candidates) {
    if (candidate == function) {
      // The type name itself: the database-key pseudo-function.
      return FunctionSite{nullptr, candidate, /*is_key=*/true};
    }
    const std::vector<Function>* functions = functional_->FunctionsOf(candidate);
    if (functions == nullptr) continue;
    for (const Function& fn : *functions) {
      if (fn.name == function) {
        return FunctionSite{&fn, candidate, /*is_key=*/false};
      }
    }
  }
  return Status::NotFound("function '" + std::string(function) +
                          "' is not declared on '" + std::string(type) +
                          "' or its supertypes");
}

Status DaplexMachine::AbsorbAncestors(
    std::string_view type, std::map<std::string, EntityView>* views) {
  // Walk every ISA edge above `type`, breadth first. Each (subtype,
  // supertype) edge fetches the supertype records by the keys the views'
  // ISA keywords name — one RETRIEVE of per-key disjuncts, which the
  // kernel probes as one key set — and each view absorbs the records of
  // its own entity. A type reached along two branches is expanded once.
  std::deque<std::string> frontier;
  frontier.emplace_back(type);
  std::set<std::string> expanded = {std::string(type)};
  while (!frontier.empty()) {
    const std::string current = std::move(frontier.front());
    frontier.pop_front();
    const daplex::Subtype* sub = functional_->FindSubtype(current);
    if (sub == nullptr) continue;
    for (const auto& super : sub->supertypes) {
      const std::string isa_attr =
          SetAttribute(transform::IsaSetName(super, current));
      // This branch's key map: each view's entity key at `super`.
      std::vector<std::pair<EntityView*, std::string>> super_key_of;
      std::set<std::string> super_keys;
      for (auto& [dbkey, view] : *views) {
        const std::vector<Value>* isa = view.Find(isa_attr);
        if (isa == nullptr || isa->empty() || !isa->front().is_string()) {
          continue;
        }
        super_keys.insert(isa->front().AsString());
        super_key_of.emplace_back(&view, isa->front().AsString());
      }
      if (super_keys.empty()) continue;
      MLDS_ASSIGN_OR_RETURN(
          kds::Response resp,
          Issue(RetrieveAll(Query::KeySet(super, KeyAttribute(super),
                                          super_keys))));
      const std::vector<Record>& records = resp.records;
      std::unordered_map<std::string, std::vector<const Record*>> by_key;
      by_key.reserve(records.size());
      abdm::AttributeReader key_reader(KeyAttribute(super));
      for (const Record& r : records) {
        const Value* key = key_reader.Find(r);
        by_key[key != nullptr ? key->ToDisplayString()
                              : Value().ToDisplayString()]
            .push_back(&r);
      }
      for (const auto& [view, key] : super_key_of) {
        auto recs_it = by_key.find(key);
        if (recs_it == by_key.end()) continue;
        for (const Record* r : recs_it->second) view->Absorb(*r);
      }
      if (expanded.insert(super).second) frontier.push_back(super);
    }
  }
  return Status::OK();
}

Status DaplexMachine::AbsorbManyToMany(
    const Function& fn, std::map<std::string, EntityView>* views) {
  if (mapping_ == nullptr) return Status::OK();
  const transform::SetInfo* info = mapping_->FindSetInfo(fn.name);
  if (info == nullptr ||
      info->origin != transform::SetOrigin::kManyToManyFunction) {
    return Status::OK();
  }
  // The link record carries <fn, this-side key> and <inverse, other key>.
  const std::string& link = info->link_record;
  std::string inverse_attr;
  for (const auto* set : schema_->SetsWithMember(link)) {
    if (set->name != fn.name) {
      inverse_attr = SetAttribute(set->name);
      break;
    }
  }
  if (inverse_attr.empty()) {
    return Status::Internal("many-to-many set '" + fn.name +
                            "' has no inverse over link '" + link + "'");
  }
  if (views->empty()) return Status::OK();
  MLDS_ASSIGN_OR_RETURN(
      kds::Response resp,
      Issue(RetrieveAll(Query::KeySet(link, SetAttribute(fn.name),
                                      std::views::keys(*views)))));
  for (const Record& r : resp.records) {
    const std::string owner = r.GetOrNull(SetAttribute(fn.name)).ToDisplayString();
    auto it = views->find(owner);
    if (it == views->end()) continue;
    Value other = r.GetOrNull(inverse_attr);
    if (other.is_null()) continue;
    auto& seen = it->second.values[fn.name];
    if (std::find(seen.begin(), seen.end(), other) == seen.end()) {
      seen.push_back(other);
    }
  }
  return Status::OK();
}

Result<std::vector<Record>> DaplexMachine::Execute(const ForEachQuery& query) {
  trace_.clear();
  if (!functional_->IsEntityOrSubtype(query.type)) {
    return Status::NotFound("'" + query.type +
                            "' is not an entity type or subtype");
  }

  // Resolve every referenced function up front.
  std::vector<std::pair<Comparison, FunctionSite>> conditions;
  for (const auto& cmp : query.such_that) {
    MLDS_ASSIGN_OR_RETURN(FunctionSite site, Resolve(query.type, cmp.function));
    conditions.emplace_back(cmp, site);
  }
  std::vector<std::pair<daplex::PrintItem, FunctionSite>> prints;
  for (const auto& item : query.print) {
    MLDS_ASSIGN_OR_RETURN(FunctionSite site, Resolve(query.type, item.function));
    prints.emplace_back(item, site);
  }

  // Conditions on functions declared directly on the queried type (and
  // not set-valued) push into the kernel query; the rest filter after
  // the inheritance joins.
  std::vector<Predicate> pushed = {FilePred(query.type)};
  std::vector<std::pair<Comparison, FunctionSite>> residual;
  for (const auto& [cmp, site] : conditions) {
    const bool own = site.declared_on == query.type;
    const FunctionClass cls =
        site.is_key ? FunctionClass::kScalar
                    : functional_->Classify(*site.function);
    const bool pushable = own && (cls == FunctionClass::kScalar ||
                                  cls == FunctionClass::kSingleValued);
    if (pushable) {
      pushed.push_back(Predicate{cmp.function, cmp.op, cmp.value});
    } else {
      residual.emplace_back(cmp, site);
    }
  }

  MLDS_ASSIGN_OR_RETURN(kds::Response base,
                        Issue(RetrieveAll(Query::And(std::move(pushed)))));

  // Collapse duplicated kernel records into one view per entity.
  std::map<std::string, EntityView> views;
  const std::string key_attr = KeyAttribute(query.type);
  for (const Record& r : base.records) {
    const std::string dbkey = r.GetOrNull(key_attr).ToDisplayString();
    EntityView& view = views[dbkey];
    view.dbkey = dbkey;
    view.Absorb(r);
  }

  // Inheritance joins, when any referenced function is inherited.
  const bool needs_ancestors =
      std::any_of(conditions.begin(), conditions.end(),
                  [&](const auto& c) { return c.second.declared_on != query.type; }) ||
      std::any_of(prints.begin(), prints.end(), [&](const auto& p) {
        return p.second.declared_on != query.type;
      }) ||
      query.print_all;
  if (needs_ancestors) {
    MLDS_RETURN_IF_ERROR(AbsorbAncestors(query.type, &views));
  }

  // Many-to-many functions referenced anywhere need the link file before
  // filtering can see their values.
  for (const auto& [cmp, site] : residual) {
    if (!site.is_key &&
        functional_->Classify(*site.function) == FunctionClass::kMultiValued) {
      MLDS_RETURN_IF_ERROR(AbsorbManyToMany(*site.function, &views));
    }
  }
  for (const auto& [item, site] : prints) {
    if (!site.is_key &&
        functional_->Classify(*site.function) == FunctionClass::kMultiValued) {
      MLDS_RETURN_IF_ERROR(AbsorbManyToMany(*site.function, &views));
    }
  }

  // Residual filtering (set semantics: some value satisfies).
  for (auto it = views.begin(); it != views.end();) {
    bool keep = true;
    for (const auto& [cmp, site] : residual) {
      const std::vector<Value>* values = it->second.Find(cmp.function);
      if (values == nullptr || !Satisfies(*values, cmp)) {
        keep = false;
        break;
      }
    }
    it = keep ? std::next(it) : views.erase(it);
  }

  // Aggregates: one summary record.
  const bool has_aggregate =
      std::any_of(prints.begin(), prints.end(), [](const auto& p) {
        return p.first.aggregate != DaplexAggregate::kNone;
      });
  std::vector<Record> out;
  if (has_aggregate) {
    Record summary;
    for (const auto& [item, site] : prints) {
      std::vector<Value> all;
      for (const auto& [dbkey, view] : views) {
        const std::vector<Value>* values = view.Find(item.function);
        if (values != nullptr) {
          all.insert(all.end(), values->begin(), values->end());
        }
      }
      std::string label;
      Value result;
      switch (item.aggregate) {
        case DaplexAggregate::kCount:
          label = "COUNT(" + item.function + ")";
          result = Value::Integer(static_cast<int64_t>(all.size()));
          break;
        case DaplexAggregate::kNone:
          label = item.function;
          result = all.empty() ? Value::Null() : all.front();
          break;
        default: {
          const char* name = item.aggregate == DaplexAggregate::kAvg   ? "AVG"
                             : item.aggregate == DaplexAggregate::kMin ? "MIN"
                             : item.aggregate == DaplexAggregate::kMax ? "MAX"
                                                                       : "SUM";
          label = std::string(name) + "(" + item.function + ")";
          double sum = 0.0;
          Value min_v, max_v;
          int64_t n = 0;
          for (const Value& v : all) {
            if (!v.is_numeric()) continue;
            if (n == 0 || v.Compare(min_v) < 0) min_v = v;
            if (n == 0 || v.Compare(max_v) > 0) max_v = v;
            sum += v.AsFloat();
            ++n;
          }
          if (n == 0) {
            result = Value::Null();
          } else if (item.aggregate == DaplexAggregate::kAvg) {
            result = Value::Float(sum / static_cast<double>(n));
          } else if (item.aggregate == DaplexAggregate::kMin) {
            result = min_v;
          } else if (item.aggregate == DaplexAggregate::kMax) {
            result = max_v;
          } else {
            result = Value::Float(sum);
          }
          break;
        }
      }
      summary.Set(label, result);
    }
    out.push_back(std::move(summary));
    return out;
  }

  // One record per entity, in key order.
  for (const auto& [dbkey, view] : views) {
    Record r;
    r.Set(key_attr, Value::String(dbkey));
    if (query.print_all) {
      for (const auto& [attr, values] : view.values) {
        r.Set(attr, values.size() == 1 ? values.front()
                                       : Value::String(JoinValues(values)));
      }
    } else {
      for (const auto& [item, site] : prints) {
        const std::vector<Value>* values = view.Find(item.function);
        if (values == nullptr || values->empty()) {
          r.Set(item.function, Value::Null());
        } else if (values->size() == 1) {
          r.Set(item.function, values->front());
        } else {
          r.Set(item.function, Value::String(JoinValues(*values)));
        }
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

Result<std::vector<Record>> DaplexMachine::ExecuteText(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(
      std::shared_ptr<const ForEachQuery> query,
      GetOrCompile<ForEachQuery>(cache_, "daplex", text,
                                 [&] { return daplex::ParseForEach(text); }));
  return Execute(*query);
}

Result<bool> DaplexMachine::EntityExists(std::string_view file,
                                         std::string_view dbkey) {
  MLDS_ASSIGN_OR_RETURN(
      kds::Response resp,
      Issue(RetrieveAttribute(
          Query::KeySet(file, KeyAttribute(file), {dbkey}),
          KeyAttribute(file))));
  return !resp.records.empty();
}

Result<Record> DaplexMachine::BuildCreateRecord(
    const daplex::CreateStatement& statement,
    const std::vector<abdm::Value>& row) {
  const std::string& type = statement.type;
  if (!functional_->IsEntityOrSubtype(type)) {
    return Status::NotFound("'" + type + "' is not an entity type or subtype");
  }
  const std::vector<Function>* functions = functional_->FunctionsOf(type);
  const daplex::Subtype* subtype = functional_->FindSubtype(type);

  Record record;
  record.Set(std::string(abdm::kFileAttribute), Value::String(type));
  record.Set(KeyAttribute(type), Value::Null());

  std::set<std::string> assigned_supers;
  size_t next_param = 0;
  for (size_t i = 0; i < statement.assignments.size(); ++i) {
    const std::string& fn_name = statement.assignments[i].first;
    const bool is_param =
        i < statement.param_mask.size() && statement.param_mask[i] != 0;
    const Value& value =
        is_param ? row[next_param++] : statement.assignments[i].second;
    // Supertype key pseudo-function: CREATE student (person = 'person_4').
    const bool is_super =
        subtype != nullptr &&
        std::find(subtype->supertypes.begin(), subtype->supertypes.end(),
                  fn_name) != subtype->supertypes.end();
    if (is_super) {
      if (!value.is_string()) {
        return Status::InvalidArgument("supertype key for '" + fn_name +
                                       "' must be a database key string");
      }
      MLDS_ASSIGN_OR_RETURN(bool exists,
                            EntityExists(fn_name, value.AsString()));
      if (!exists) {
        return Status::NotFound("CREATE " + type + ": supertype entity '" +
                                value.AsString() + "' does not exist");
      }
      record.Set(SetAttribute(transform::IsaSetName(fn_name, type)), value);
      assigned_supers.insert(fn_name);
      continue;
    }
    const Function* fn = nullptr;
    for (const Function& candidate : *functions) {
      if (candidate.name == fn_name) {
        fn = &candidate;
        break;
      }
    }
    if (fn == nullptr) {
      return Status::NotFound("CREATE " + type + ": '" + fn_name +
                              "' is not a function of the type (inherited "
                              "functions belong to the supertype entity)");
    }
    switch (functional_->Classify(*fn)) {
      case FunctionClass::kScalar:
      case FunctionClass::kScalarMultiValued:
        record.Set(fn_name, value);
        break;
      case FunctionClass::kSingleValued: {
        if (!value.is_null()) {
          if (!value.is_string()) {
            return Status::InvalidArgument("CREATE " + type + ": '" +
                                           fn_name +
                                           "' takes a database key string");
          }
          MLDS_ASSIGN_OR_RETURN(bool exists,
                                EntityExists(fn->target, value.AsString()));
          if (!exists) {
            return Status::NotFound("CREATE " + type + ": '" +
                                    value.AsString() + "' does not exist in '" +
                                    fn->target + "'");
          }
        }
        record.Set(SetAttribute(fn_name), value);
        break;
      }
      case FunctionClass::kMultiValued:
        return Status::InvalidArgument(
            "CREATE " + type + ": multi-valued function '" + fn_name +
            "' cannot be assigned directly; connect link records instead");
    }
  }

  // Every direct supertype must be linked.
  if (subtype != nullptr) {
    for (const auto& super : subtype->supertypes) {
      if (assigned_supers.count(super) == 0) {
        return Status::InvalidArgument("CREATE " + type +
                                       ": missing supertype key '" + super +
                                       "'");
      }
      // Overlap table: the supertype entity may not already belong to a
      // sibling subtype unless an OVERLAP constraint permits it.
      if (mapping_ == nullptr) continue;
      const std::string isa_set = transform::IsaSetName(super, type);
      MLDS_RETURN_IF_ERROR(inserts_.CheckOverlap(
          "CREATE", type, isa_set,
          record.GetOrNull(SetAttribute(isa_set)).AsString(), *mapping_));
    }
  }

  // Unassigned member-side set keywords start NULL, matching the CODASYL
  // STORE representation (so (set = NULL) predicates see both paths).
  for (const auto* set : schema_->SetsWithMember(type)) {
    if (set->IsSystemOwned()) continue;
    const transform::SetInfo* info =
        mapping_ != nullptr ? mapping_->FindSetInfo(set->name) : nullptr;
    if (info != nullptr &&
        info->origin == transform::SetOrigin::kOneToManyFunction) {
      continue;  // owner-side representation.
    }
    if (!record.Has(SetAttribute(set->name))) {
      record.Set(SetAttribute(set->name), Value::Null());
    }
  }
  return record;
}

Result<DaplexMachine::Outcome> DaplexMachine::Create(
    const daplex::CreateStatement& statement) {
  trace_.clear();
  if (statement.parameterized()) {
    return Status::InvalidArgument(
        "CREATE " + statement.type + ": parameter markers ('?') require the "
        "batch interface, which binds one value per marker per row");
  }
  return CreateRows(statement, {{}}, std::nullopt);
}

Result<DaplexMachine::Outcome> DaplexMachine::ExecuteBatch(
    std::string_view text, const std::vector<std::vector<abdm::Value>>& rows,
    const abdl::BatchLimits& limits) {
  trace_.clear();
  MLDS_ASSIGN_OR_RETURN(std::shared_ptr<const daplex::DaplexStatement> stmt,
                        ParseStatement(text));
  const auto* create = std::get_if<daplex::CreateStatement>(stmt.get());
  if (create == nullptr || !create->parameterized()) {
    return Status::InvalidArgument(
        "batch execution requires a parameterized CREATE template "
        "(CREATE type (fn = ?, ...))");
  }
  return CreateRows(*create, rows, limits);
}

Result<DaplexMachine::Outcome> DaplexMachine::CreateRows(
    const daplex::CreateStatement& statement,
    const std::vector<std::vector<Value>>& rows,
    const std::optional<abdl::BatchLimits>& limits) {
  // Uniqueness constraints carried into the transformed schema.
  const network::RecordType* rt = schema_->FindRecord(statement.type);
  const InsertPath::Unique unique =
      rt != nullptr ? NetworkUnique(*rt, "CREATE " + statement.type +
                                             " violates a UNIQUE constraint")
                    : InsertPath::Unique{};
  Outcome outcome;
  MLDS_ASSIGN_OR_RETURN(
      outcome.affected,
      inserts_.Insert(
          "CREATE", statement.type,
          std::count_if(statement.param_mask.begin(),
                        statement.param_mask.end(),
                        [](uint8_t m) { return m != 0; }),
          rows, limits,
          [&](const std::vector<Value>& row) {
            return BuildCreateRecord(statement, row);
          },
          unique,
          [&](const std::vector<std::string>&, const Record& last) {
            if (!limits.has_value()) outcome.records = {last};
          }));
  outcome.info =
      limits.has_value()
          ? "created " + std::to_string(outcome.affected) + " entities"
          : "created " + outcome.records[0]
                             .GetOrNull(KeyAttribute(statement.type))
                             .AsString();
  return outcome;
}

std::vector<std::pair<std::string, std::string>>
DaplexMachine::ReferencingSets(std::string_view type) const {
  using transform::SetOrigin;
  const auto origin = [&](const network::SetType* set) {
    const transform::SetInfo* info =
        mapping_ != nullptr ? mapping_->FindSetInfo(set->name) : nullptr;
    return info != nullptr ? std::optional(info->origin) : std::nullopt;
  };
  std::vector<std::pair<std::string, std::string>> out;
  // Function sets owned by `type`: a member record naming the key. ISA
  // sets cascade instead, and SYSTEM sets name no entity.
  for (const auto* set : schema_->SetsWithOwner(type)) {
    const std::optional<SetOrigin> o = origin(set);
    if (!o || *o == SetOrigin::kIsa || *o == SetOrigin::kSystem) continue;
    for (const auto& member : set->members) out.emplace_back(member, set->name);
  }
  // Owner-side one-to-many sets with `type` as member: an owner record
  // naming the key.
  for (const auto* set : schema_->SetsWithMember(type)) {
    if (origin(set) == SetOrigin::kOneToManyFunction) {
      out.emplace_back(set->owner, set->name);
    }
  }
  return out;
}

Status DaplexMachine::CheckReferences(std::string_view type,
                                      const std::set<std::string>& keys) {
  for (const auto& [file, set] : ReferencingSets(type)) {
    const std::string set_attr = SetAttribute(set);
    MLDS_ASSIGN_OR_RETURN(
        kds::Response resp,
        Issue(RetrieveAttribute(Query::KeySet(file, set_attr, keys),
                                set_attr)));
    std::set<std::string> referenced;
    for (const Record& r : resp.records) {
      referenced.insert(r.GetOrNull(set_attr).ToDisplayString());
    }
    if (!referenced.empty()) {
      return Status::Aborted("DESTROY: entity '" + *referenced.begin() +
                             "' is referenced through function set '" + set +
                             "'");
    }
  }
  return Status::OK();
}

Result<size_t> DaplexMachine::DestroyHierarchy(const std::string& type,
                                               std::set<std::string> keys) {
  // Level by level down the subtype hierarchy: a subtype's records are
  // those whose ISA keyword names a key of the level above. A subtype's
  // own keys are collected by one RETRIEVE only when it has subtypes or
  // references to check (an empty result ends its branch). Every level's
  // entities pass the reference check before anything is deleted; then
  // one DELETE per (level, file), deepest first, in one kernel
  // transaction.
  MLDS_RETURN_IF_ERROR(CheckReferences(type, keys));
  abdl::Transaction txn;
  txn.push_back(
      abdl::DeleteRequest{Query::KeySet(type, KeyAttribute(type), keys)});
  std::map<std::string, std::set<std::string>> level = {
      {type, std::move(keys)}};
  while (!level.empty()) {
    std::map<std::string, std::set<std::string>> next;
    for (const auto& [super, super_keys] : level) {
      for (const daplex::Subtype* sub : functional_->SubtypesOf(super)) {
        Query by_isa = Query::KeySet(
            sub->name, SetAttribute(transform::IsaSetName(super, sub->name)),
            super_keys);
        if (!functional_->SubtypesOf(sub->name).empty() ||
            !ReferencingSets(sub->name).empty()) {
          const std::string key_attr = KeyAttribute(sub->name);
          MLDS_ASSIGN_OR_RETURN(kds::Response resp,
                                Issue(RetrieveAttribute(by_isa, key_attr)));
          std::set<std::string> sub_keys;
          for (const Record& r : resp.records) {
            sub_keys.insert(r.GetOrNull(key_attr).ToDisplayString());
          }
          if (sub_keys.empty()) continue;
          MLDS_RETURN_IF_ERROR(CheckReferences(sub->name, sub_keys));
          next[sub->name].merge(sub_keys);
        }
        // In place: moving a DeleteRequest temporary into the variant
        // draws a false -Wmaybe-uninitialized from GCC 12.
        txn.emplace_back(std::in_place_type<abdl::DeleteRequest>,
                         std::move(by_isa));
      }
    }
    level = std::move(next);
  }
  std::reverse(txn.begin(), txn.end());
  Result<kds::Response> resp = executor_->ExecuteTransaction(txn);
  for (abdl::Request& request : txn) trace_.Add(std::move(request));
  MLDS_RETURN_IF_ERROR(resp.status());
  return resp->affected;
}

Result<DaplexMachine::Outcome> DaplexMachine::Update(
    const daplex::UpdateStatement& statement) {
  const std::string& type = statement.type;
  if (!functional_->IsEntityOrSubtype(type)) {
    return Status::NotFound("'" + type + "' is not an entity type or subtype");
  }
  const std::vector<Function>* functions = functional_->FunctionsOf(type);

  // Validate assignments up front: own scalar or single-valued functions
  // only; entity references must exist.
  std::vector<std::pair<std::string, Value>> writes;
  for (const auto& [fn_name, value] : statement.assignments) {
    const Function* fn = nullptr;
    for (const Function& candidate : *functions) {
      if (candidate.name == fn_name) {
        fn = &candidate;
        break;
      }
    }
    if (fn == nullptr) {
      return Status::NotFound("UPDATE " + type + ": '" + fn_name +
                              "' is not a function of the type");
    }
    switch (functional_->Classify(*fn)) {
      case FunctionClass::kScalar:
      case FunctionClass::kScalarMultiValued:
        writes.emplace_back(fn_name, value);
        break;
      case FunctionClass::kSingleValued: {
        if (!value.is_null()) {
          if (!value.is_string()) {
            return Status::InvalidArgument("UPDATE " + type + ": '" + fn_name +
                                           "' takes a database key string");
          }
          MLDS_ASSIGN_OR_RETURN(bool exists,
                                EntityExists(fn->target, value.AsString()));
          if (!exists) {
            return Status::NotFound("UPDATE " + type + ": '" +
                                    value.AsString() + "' does not exist in '" +
                                    fn->target + "'");
          }
        }
        writes.emplace_back(SetAttribute(fn_name), value);
        break;
      }
      case FunctionClass::kMultiValued:
        return Status::InvalidArgument("UPDATE " + type +
                                       ": multi-valued function '" + fn_name +
                                       "' cannot be assigned directly");
    }
  }

  // Select the entities, then update them through one kernel transaction
  // of key-set UPDATEs, one per assignment over every selected key (which
  // hits every duplicated record of each entity): a kernel fault during
  // the selection leaves every entity unchanged.
  ForEachQuery selector;
  selector.type = type;
  selector.such_that = statement.such_that;
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> selected, Execute(selector));

  Outcome outcome;
  outcome.affected = selected.size();
  outcome.info = "updated " + std::to_string(outcome.affected) +
                 " entity(ies)";
  if (selected.empty()) return outcome;
  std::set<std::string> keys;
  for (const Record& r : selected) {
    keys.insert(r.GetOrNull(KeyAttribute(type)).ToDisplayString());
  }
  abdl::Transaction txn;
  for (const auto& [attr, value] : writes) {
    txn.push_back(abdl::UpdateRequest{
        Query::KeySet(type, KeyAttribute(type), keys),
        abdl::Modifier{attr, abdl::ModifierKind::kSet, value}});
  }
  Status updated = executor_->ExecuteTransaction(txn).status();
  for (abdl::Request& request : txn) trace_.Add(std::move(request));
  MLDS_RETURN_IF_ERROR(updated);
  return outcome;
}

Result<DaplexMachine::Outcome> DaplexMachine::Destroy(
    const daplex::DestroyStatement& statement) {
  // Select the target entities through the query machinery.
  ForEachQuery selector;
  selector.type = statement.type;
  selector.such_that = statement.such_that;
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> selected, Execute(selector));

  std::set<std::string> keys;
  for (const Record& r : selected) {
    keys.insert(r.GetOrNull(KeyAttribute(statement.type)).ToDisplayString());
  }
  Outcome outcome;
  outcome.affected = keys.size();
  size_t deleted = 0;
  if (!keys.empty()) {
    MLDS_ASSIGN_OR_RETURN(deleted,
                          DestroyHierarchy(statement.type, std::move(keys)));
  }
  outcome.info = "destroyed " + std::to_string(outcome.affected) +
                 " entity(ies), " + std::to_string(deleted) +
                 " kernel record(s)";
  return outcome;
}

Result<std::shared_ptr<const daplex::DaplexStatement>>
DaplexMachine::ParseStatement(std::string_view text) {
  return GetOrCompile<daplex::DaplexStatement>(
      cache_, "daplex-stmt", text,
      [&] { return daplex::ParseDaplexStatement(text); });
}

Result<DaplexMachine::Outcome> DaplexMachine::ExecuteStatement(
    std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(
      std::shared_ptr<const daplex::DaplexStatement> statement,
      ParseStatement(text));
  struct Visitor {
    DaplexMachine* self;
    Result<Outcome> operator()(const ForEachQuery& q) {
      MLDS_ASSIGN_OR_RETURN(std::vector<Record> records, self->Execute(q));
      Outcome outcome;
      outcome.records = std::move(records);
      return outcome;
    }
    Result<Outcome> operator()(const daplex::CreateStatement& s) {
      return self->Create(s);
    }
    Result<Outcome> operator()(const daplex::UpdateStatement& s) {
      return self->Update(s);
    }
    Result<Outcome> operator()(const daplex::DestroyStatement& s) {
      return self->Destroy(s);
    }
  };
  return std::visit(Visitor{this}, *statement);
}

}  // namespace mlds::kms
