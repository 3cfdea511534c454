#include "kms/dml_machine.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "codasyl/parser.h"
#include "common/strings.h"
#include "transform/abdm_mapping.h"

namespace mlds::kms {

namespace {

using abdl::DeleteRequest;
using abdl::InsertRequest;
using abdl::Modifier;
using abdl::ModifierKind;
using abdl::RetrieveAll;
using abdl::RetrieveAttribute;
using abdl::RetrieveRequest;
using abdl::UpdateRequest;
using abdm::EqStr;
using abdm::FilePred;
using abdm::Predicate;
using abdm::Query;
using abdm::Record;
using abdm::RelOp;
using abdm::Value;
using codasyl::FindPosition;
using network::SetType;
using transform::KeyAttribute;
using transform::SetAttribute;
using transform::SetInfo;
using transform::SetOrigin;

Predicate Eq(std::string attribute, Value value) {
  return Predicate{std::move(attribute), RelOp::kEq, std::move(value)};
}

std::string KeyOf(std::string_view record_type, const Record& record) {
  return record.GetOrNull(KeyAttribute(record_type)).ToDisplayString();
}

/// Stable-sorts records by the values of `attributes`, compared in turn
/// (a missing keyword sorts as Null). Each record's sort values are read
/// once, by slot, before sorting.
void SortByAttributes(std::vector<std::string> attributes,
                      std::vector<Record>* records) {
  std::vector<abdm::AttributeReader> readers;
  for (auto& attribute : attributes) readers.emplace_back(std::move(attribute));
  const Value null;
  const size_t width = readers.size();
  std::vector<const Value*> keys;
  keys.reserve(records->size() * width);
  for (const Record& r : *records) {
    for (auto& reader : readers) {
      const Value* v = reader.Find(r);
      keys.push_back(v != nullptr ? v : &null);
    }
  }
  std::vector<size_t> order(records->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < width; ++k) {
      const int c = keys[a * width + k]->Compare(*keys[b * width + k]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  std::vector<Record> sorted;
  sorted.reserve(records->size());
  for (size_t i : order) sorted.push_back(std::move((*records)[i]));
  *records = std::move(sorted);
}

/// Sorts AB records by database key for deterministic set ordering.
void SortByKey(std::string_view record_type, std::vector<Record>* records) {
  SortByAttributes({KeyAttribute(record_type)}, records);
}

/// Orders set members per the set's ORDER clause: by the sorting item
/// (ties broken by database key) or by database key alone.
void SortSetMembers(const SetType& set, std::string_view record_type,
                    std::vector<Record>* records) {
  if (set.order == network::OrderMode::kSortedBy) {
    SortByAttributes({set.order_item, KeyAttribute(record_type)}, records);
  } else {
    SortByKey(record_type, records);
  }
}

}  // namespace

std::string SessionStats::ToString() const {
  std::string out = "statements: " + std::to_string(total_statements) +
                    ", ABDL requests: " + std::to_string(total_requests) +
                    "\n";
  for (const auto& [kind, count] : statements) {
    out += "  " + kind + ": " + std::to_string(count) + "\n";
  }
  for (const auto& [op, count] : abdl_requests) {
    out += "  ABDL " + op + ": " + std::to_string(count) + "\n";
  }
  return out;
}

DmlMachine::DmlMachine(const network::Schema* schema,
                       const transform::FunNetMapping* mapping,
                       kc::KernelExecutor* executor)
    : schema_(schema),
      mapping_(mapping),
      executor_(executor),
      inserts_([this](abdl::Request r) { return Issue(std::move(r)); }) {}

Result<DmlResult> DmlMachine::Execute(const codasyl::Statement& statement) {
  trace_.clear();
  struct Visitor {
    DmlMachine* self;
    Result<DmlResult> operator()(const codasyl::MoveStatement& s) {
      return self->Move(s);
    }
    Result<DmlResult> operator()(const codasyl::FindAnyStatement& s) {
      return self->FindAny(s);
    }
    Result<DmlResult> operator()(const codasyl::FindCurrentStatement& s) {
      return self->FindCurrent(s);
    }
    Result<DmlResult> operator()(const codasyl::FindDuplicateStatement& s) {
      return self->FindDuplicate(s);
    }
    Result<DmlResult> operator()(const codasyl::FindPositionalStatement& s) {
      return self->FindPositional(s);
    }
    Result<DmlResult> operator()(const codasyl::FindOwnerStatement& s) {
      return self->FindOwner(s);
    }
    Result<DmlResult> operator()(
        const codasyl::FindWithinCurrentStatement& s) {
      return self->FindWithinCurrent(s);
    }
    Result<DmlResult> operator()(const codasyl::GetStatement& s) {
      return self->Get(s);
    }
    Result<DmlResult> operator()(const codasyl::StoreStatement& s) {
      return self->Store(s);
    }
    Result<DmlResult> operator()(const codasyl::ConnectStatement& s) {
      return self->Connect(s);
    }
    Result<DmlResult> operator()(const codasyl::DisconnectStatement& s) {
      return self->Disconnect(s);
    }
    Result<DmlResult> operator()(const codasyl::ReconnectStatement& s) {
      return self->Reconnect(s);
    }
    Result<DmlResult> operator()(const codasyl::ModifyStatement& s) {
      return self->Modify(s);
    }
    Result<DmlResult> operator()(const codasyl::EraseStatement& s) {
      return self->Erase(s);
    }
    Result<DmlResult> operator()(const codasyl::WalkStatement& s) {
      return self->Walk(s);
    }
  };
  auto result = std::visit(Visitor{this}, statement);
  if (result.ok()) {
    result->abdl_requests = trace_.size();
    stats_.statements[std::string(codasyl::StatementKind(statement))] += 1;
    stats_.total_statements += 1;
  }
  return result;
}

Result<DmlResult> DmlMachine::Execute(
    const codasyl::ParsedStatement& statement) {
  if (!statement.explain) return Execute(statement.statement);
  explain_ = true;
  explain_plans_.clear();
  auto result = Execute(statement.statement);
  explain_ = false;
  if (result.ok()) {
    result->plan = kds::SequencePlans(std::move(explain_plans_));
  }
  explain_plans_.clear();
  return result;
}

Result<std::shared_ptr<const codasyl::ParsedStatement>> DmlMachine::Compile(
    std::string_view text) {
  return GetOrCompile<codasyl::ParsedStatement>(
      cache_, "dml", text, [&] { return codasyl::ParseDmlStatement(text); });
}

Result<DmlResult> DmlMachine::ExecuteText(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(std::shared_ptr<const codasyl::ParsedStatement> stmt,
                        Compile(text));
  return Execute(*stmt);
}

Result<std::vector<DmlResult>> DmlMachine::RunProgram(std::string_view text) {
  // Every statement compiles (under its own cache key) before any runs.
  std::vector<std::shared_ptr<const codasyl::ParsedStatement>> program;
  for (std::string_view line : ProgramStatements(text)) {
    MLDS_ASSIGN_OR_RETURN(auto stmt, Compile(line));
    program.push_back(std::move(stmt));
  }
  if (program.empty()) return Status::ParseError("empty DML program");
  std::vector<DmlResult> results;
  results.reserve(program.size());
  for (const auto& stmt : program) {
    MLDS_ASSIGN_OR_RETURN(DmlResult result, Execute(*stmt));
    results.push_back(std::move(result));
  }
  return results;
}

Result<DmlResult> DmlMachine::ExecuteBatch(
    std::string_view text, const std::vector<std::vector<abdm::Value>>& rows,
    const abdl::BatchLimits& limits) {
  MLDS_ASSIGN_OR_RETURN(std::shared_ptr<const codasyl::ParsedStatement> stmt,
                        Compile(text));
  const auto* store = std::get_if<codasyl::StoreStatement>(&stmt->statement);
  if (store == nullptr || !store->parameterized()) {
    return Status::InvalidArgument(
        "batch execution requires a parameterized STORE template "
        "(STORE rec (item = ?, ...))");
  }
  trace_.clear();
  MLDS_ASSIGN_OR_RETURN(DmlResult result, StoreRows(*store, rows, limits));
  result.abdl_requests = trace_.size();
  stats_.statements["STORE"] += 1;
  stats_.total_statements += 1;
  return result;
}

// --- Shared machinery ---

Result<kds::Response> DmlMachine::Issue(abdl::Request request) {
  if (explain_) abdl::SetExplain(request, true);
  stats_.abdl_requests[std::string(abdl::RequestOperation(request))] += 1;
  stats_.total_requests += 1;
  auto response = executor_->Execute(request);
  trace_.Add(std::move(request));
  if (explain_ && response.ok() && response->plan != nullptr) {
    explain_plans_.push_back(response->plan);
  }
  return response;
}

Result<const SetType*> DmlMachine::RequireSet(std::string_view set) const {
  const SetType* found = schema_->FindSet(set);
  if (found == nullptr) {
    return Status::NotFound("set type '" + std::string(set) +
                            "' is not declared in the schema");
  }
  return found;
}

Result<const network::RecordType*> DmlMachine::RequireRecord(
    std::string_view record) const {
  const network::RecordType* found = schema_->FindRecord(record);
  if (found == nullptr) {
    return Status::NotFound("record type '" + std::string(record) +
                            "' is not declared in the schema");
  }
  return found;
}

Status DmlMachine::RequireMemberOf(const SetType& set,
                                   std::string_view record) const {
  if (!set.HasMember(record)) {
    return Status::InvalidArgument("record type '" + std::string(record) +
                                   "' is not a member of set '" + set.name +
                                   "'");
  }
  return Status::OK();
}

const SetInfo* DmlMachine::SetInfoOf(std::string_view set) const {
  if (mapping_ == nullptr) return nullptr;
  return mapping_->FindSetInfo(set);
}

bool DmlMachine::IsOwnerSideOneToMany(std::string_view set) const {
  const SetInfo* info = SetInfoOf(set);
  return info != nullptr && info->origin == SetOrigin::kOneToManyFunction;
}

Result<std::vector<Record>> DmlMachine::FetchByKey(std::string_view record,
                                                   std::string_view dbkey) {
  MLDS_ASSIGN_OR_RETURN(
      kds::Response resp,
      Issue(RetrieveAll(Query::KeySet(record, KeyAttribute(record), {dbkey}))));
  return std::move(resp.records);
}

Result<std::vector<Record>> DmlMachine::FetchSetMembers(
    const SetType& set, std::string_view record) {
  MLDS_RETURN_IF_ERROR(RequireMemberOf(set, record));

  if (set.IsSystemOwned()) {
    // Membership in a SYSTEM set is implied by the FILE keyword.
    MLDS_ASSIGN_OR_RETURN(kds::Response resp,
                          Issue(RetrieveAll(Query::ForFile(record))));
    std::vector<Record> members = std::move(resp.records);
    SortSetMembers(set, record, &members);
    return members;
  }

  MLDS_ASSIGN_OR_RETURN(std::string owner_key, RequireSetOwner(set.name));

  if (IsOwnerSideOneToMany(set.name)) {
    // The relationship lives in duplicated owner records: first retrieve
    // the member keys from the owner side, then the member records.
    MLDS_ASSIGN_OR_RETURN(
        kds::Response owners,
        Issue(RetrieveAll(
            Query::KeySet(set.owner, KeyAttribute(set.owner), {owner_key}))));
    std::set<std::string> member_keys;
    for (const Record& r : owners.records) {
      Value v = r.GetOrNull(SetAttribute(set.name));
      if (v.is_string()) member_keys.insert(v.AsString());
    }
    if (member_keys.empty()) return std::vector<Record>{};
    MLDS_ASSIGN_OR_RETURN(
        kds::Response resp,
        Issue(RetrieveAll(
            Query::KeySet(record, KeyAttribute(record), member_keys))));
    std::vector<Record> members = std::move(resp.records);
    SortSetMembers(set, record, &members);
    return members;
  }

  // Member-side representation:
  //   RETRIEVE ((FILE = record) AND (set = owner-dbkey)) (all attributes).
  MLDS_ASSIGN_OR_RETURN(
      kds::Response resp,
      Issue(RetrieveAll(
          Query::KeySet(record, SetAttribute(set.name), {owner_key}))));
  std::vector<Record> members = std::move(resp.records);
  SortSetMembers(set, record, &members);
  return members;
}

void DmlMachine::UpdateCurrencies(std::string_view record_type,
                                  const Record& record) {
  const std::string dbkey = KeyOf(record_type, record);
  cit_.SetRunUnit(std::string(record_type), dbkey, record);
  cit_.SetCurrentOfRecord(record_type, dbkey);

  // Sets in which this record participates as a member: the owning
  // record's key is in the set keyword (member-side representation).
  for (const SetType* set : schema_->SetsWithMember(record_type)) {
    if (set->IsSystemOwned()) continue;
    if (IsOwnerSideOneToMany(set->name)) continue;  // owner unknown here.
    Value owner = record.GetOrNull(SetAttribute(set->name));
    if (owner.is_string()) {
      cit_.SetCurrentOfSet(set->name,
                           codasyl::SetCurrency{owner.AsString(), dbkey});
    }
  }
  // Sets this record owns: it becomes the current owner; for owner-side
  // one-to-many sets the record may also name a current member.
  for (const SetType* set : schema_->SetsWithOwner(record_type)) {
    codasyl::SetCurrency currency;
    currency.owner_dbkey = dbkey;
    if (IsOwnerSideOneToMany(set->name)) {
      Value member = record.GetOrNull(SetAttribute(set->name));
      if (member.is_string()) currency.member_dbkey = member.AsString();
    }
    cit_.SetCurrentOfSet(set->name, std::move(currency));
  }
}

Result<const codasyl::RunUnitCurrency*> DmlMachine::RequireRunUnit(
    std::string_view record_type) const {
  if (!cit_.run_unit().has_value()) {
    return Status::CurrencyError("no current record of the run-unit");
  }
  const codasyl::RunUnitCurrency& ru = *cit_.run_unit();
  if (!record_type.empty() && ru.record_type != record_type) {
    return Status::CurrencyError("current of run-unit is of type '" +
                                 ru.record_type + "', not '" +
                                 std::string(record_type) + "'");
  }
  return &ru;
}

Result<std::string> DmlMachine::RequireSetOwner(std::string_view set) const {
  const codasyl::SetCurrency* currency = cit_.CurrentOfSet(set);
  if (currency == nullptr || currency->owner_dbkey.empty()) {
    return Status::CurrencyError("set '" + std::string(set) +
                                 "' has no current owner");
  }
  return currency->owner_dbkey;
}

// --- Statement handlers ---

Result<DmlResult> DmlMachine::Move(const codasyl::MoveStatement& s) {
  MLDS_RETURN_IF_ERROR(RequireRecord(s.record).status());
  uwa_.Move(s.record, s.item, s.value);
  DmlResult result;
  result.info = "UWA " + s.record + "." + s.item + " set";
  return result;
}

Result<DmlResult> DmlMachine::FindAny(const codasyl::FindAnyStatement& s) {
  MLDS_RETURN_IF_ERROR(RequireRecord(s.record).status());
  std::vector<Predicate> preds = {
      FilePred(s.record)};
  for (const auto& item : s.items) {
    auto value = uwa_.Get(s.record, item);
    if (!value.has_value()) {
      return Status::CurrencyError("FIND ANY: UWA item '" + item + "' of '" +
                                   s.record + "' has no value; MOVE one first");
    }
    preds.push_back(Eq(item, *value));
  }
  RetrieveRequest req = RetrieveAll(Query::And(std::move(preds)));
  req.by_attribute = s.record;  // BY record_type_x (Ch. VI.B.1).
  MLDS_ASSIGN_OR_RETURN(kds::Response resp, Issue(req));
  if (resp.records.empty()) {
    return Status::NotFound("FIND ANY " + s.record + ": no record satisfies "
                            "the UWA values");
  }
  SortByKey(s.record, &resp.records);
  auto& buffer = rb_.Load(s.record, std::move(resp.records));
  buffer.cursor = 0;
  // RETAINING: snapshot the named set currencies and restore them after
  // the currency update.
  std::vector<std::pair<std::string, codasyl::SetCurrency>> retained;
  for (const auto& set_name : s.retaining) {
    MLDS_RETURN_IF_ERROR(RequireSet(set_name).status());
    const codasyl::SetCurrency* currency = cit_.CurrentOfSet(set_name);
    retained.emplace_back(set_name, currency != nullptr
                                        ? *currency
                                        : codasyl::SetCurrency{});
  }
  UpdateCurrencies(s.record, buffer.records[0]);
  for (auto& [set_name, currency] : retained) {
    cit_.SetCurrentOfSet(set_name, std::move(currency));
  }
  DmlResult result;
  result.records = {buffer.records[0]};
  return result;
}

Result<DmlResult> DmlMachine::FindCurrent(
    const codasyl::FindCurrentStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const SetType* set, RequireSet(s.set));
  MLDS_RETURN_IF_ERROR(RequireMemberOf(*set, s.record));
  const codasyl::SetCurrency* currency = cit_.CurrentOfSet(s.set);
  if (currency == nullptr || currency->member_dbkey.empty()) {
    return Status::CurrencyError("FIND CURRENT: set '" + s.set +
                                 "' has no current member record");
  }
  // The only function of this statement is to update CIT (Ch. VI.B.2):
  // the current of the run-unit becomes the current member of the set.
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> records,
                        FetchByKey(s.record, currency->member_dbkey));
  if (records.empty()) {
    return Status::NotFound("FIND CURRENT: current member of '" + s.set +
                            "' no longer exists");
  }
  UpdateCurrencies(s.record, records[0]);
  DmlResult result;
  result.records = {records[0]};
  return result;
}

Result<DmlResult> DmlMachine::FindDuplicate(
    const codasyl::FindDuplicateStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const SetType* set, RequireSet(s.set));
  MLDS_RETURN_IF_ERROR(RequireMemberOf(*set, s.record));
  // The requested records are assumed resident in RB from a prior FIND
  // (Ch. VI.B.3); fall back to the record type's buffer from FIND ANY.
  codasyl::RequestBuffer::Buffer* buffer = rb_.Find(s.set);
  if (buffer == nullptr) buffer = rb_.Find(s.record);
  if (buffer == nullptr) {
    return Status::CurrencyError(
        "FIND DUPLICATE: no request buffer for set '" + s.set +
        "'; issue a FIND within the set first");
  }
  const codasyl::SetCurrency* currency = cit_.CurrentOfSet(s.set);
  std::string current_key =
      currency != nullptr ? currency->member_dbkey : "";
  if (current_key.empty() && cit_.run_unit().has_value()) {
    current_key = cit_.run_unit()->dbkey;
  }
  if (current_key.empty()) {
    return Status::CurrencyError("FIND DUPLICATE: set '" + s.set +
                                 "' has no current record");
  }
  // Values to match: the current record of the set.
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> current_records,
                        FetchByKey(s.record, current_key));
  if (current_records.empty()) {
    return Status::NotFound("FIND DUPLICATE: current record vanished");
  }
  const Record& current = current_records[0];
  for (int i = buffer->cursor + 1;
       i < static_cast<int>(buffer->records.size()); ++i) {
    const Record& candidate = buffer->records[i];
    if (KeyOf(s.record, candidate) == current_key) continue;
    bool all_match = true;
    for (const auto& item : s.items) {
      if (candidate.GetOrNull(item) != current.GetOrNull(item)) {
        all_match = false;
        break;
      }
    }
    if (all_match) {
      buffer->cursor = i;
      UpdateCurrencies(s.record, candidate);
      DmlResult result;
      result.records = {candidate};
      return result;
    }
  }
  return Status::NotFound("FIND DUPLICATE: no further duplicate within '" +
                          s.set + "'");
}

Result<DmlResult> DmlMachine::FindPositional(
    const codasyl::FindPositionalStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const SetType* set, RequireSet(s.set));
  MLDS_RETURN_IF_ERROR(RequireMemberOf(*set, s.record));

  codasyl::RequestBuffer::Buffer* buffer = rb_.Find(s.set);
  const bool reload = s.position == FindPosition::kFirst ||
                      s.position == FindPosition::kLast ||
                      buffer == nullptr;
  if (reload) {
    MLDS_ASSIGN_OR_RETURN(std::vector<Record> members,
                          FetchSetMembers(*set, s.record));
    buffer = &rb_.Load(s.set, std::move(members));
  }
  if (buffer->records.empty()) {
    return Status::NotFound("set '" + s.set + "' occurrence has no member "
                            "records");
  }
  int index = buffer->cursor;
  switch (s.position) {
    case FindPosition::kFirst:
      index = 0;
      break;
    case FindPosition::kLast:
      index = static_cast<int>(buffer->records.size()) - 1;
      break;
    case FindPosition::kNext:
      index = buffer->cursor + 1;
      break;
    case FindPosition::kPrior:
      index = buffer->cursor - 1;
      break;
  }
  if (index < 0 || index >= static_cast<int>(buffer->records.size())) {
    return Status::NotFound("FIND " +
                            std::string(FindPositionToString(s.position)) +
                            ": end of set '" + s.set + "'");
  }
  buffer->cursor = index;
  const Record& found = buffer->records[index];
  UpdateCurrencies(s.record, found);
  // Keep the set currency pinned to this set occurrence.
  if (!set->IsSystemOwned()) {
    const codasyl::SetCurrency* currency = cit_.CurrentOfSet(s.set);
    if (currency == nullptr || currency->member_dbkey.empty()) {
      cit_.SetSetMember(s.set, KeyOf(s.record, found));
    }
  }
  DmlResult result;
  result.records = {found};
  return result;
}

Result<DmlResult> DmlMachine::FindOwner(const codasyl::FindOwnerStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const SetType* set, RequireSet(s.set));
  if (set->IsSystemOwned()) {
    return Status::InvalidArgument("FIND OWNER: set '" + s.set +
                                   "' is owned by SYSTEM");
  }
  MLDS_ASSIGN_OR_RETURN(std::string owner_key, RequireSetOwner(s.set));
  // RETRIEVE ((FILE = owner) AND (owner = CIT.set.owner.dbkey)) (Ch. VI.B.5).
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> owners,
                        FetchByKey(set->owner, owner_key));
  if (owners.empty()) {
    return Status::NotFound("FIND OWNER: owner record '" + owner_key +
                            "' not found");
  }
  UpdateCurrencies(set->owner, owners[0]);
  DmlResult result;
  result.records = {owners[0]};
  return result;
}

Result<DmlResult> DmlMachine::FindWithinCurrent(
    const codasyl::FindWithinCurrentStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const SetType* set, RequireSet(s.set));
  MLDS_RETURN_IF_ERROR(RequireMemberOf(*set, s.record));
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> members,
                        FetchSetMembers(*set, s.record));
  // Filter by the UWA values (FIND WITHIN CURRENT uses UWA where FIND
  // DUPLICATE uses the current of set, Ch. VI.B.6).
  std::vector<Record> matching;
  for (const Record& candidate : members) {
    bool all_match = true;
    for (const auto& item : s.items) {
      auto expected = uwa_.Get(s.record, item);
      if (!expected.has_value()) {
        return Status::CurrencyError("FIND WITHIN CURRENT: UWA item '" + item +
                                     "' has no value; MOVE one first");
      }
      if (candidate.GetOrNull(item) != *expected) {
        all_match = false;
        break;
      }
    }
    if (all_match) matching.push_back(candidate);
  }
  if (matching.empty()) {
    return Status::NotFound("FIND WITHIN CURRENT: no member of '" + s.set +
                            "' matches the UWA values");
  }
  auto& buffer = rb_.Load(s.set, std::move(matching));
  buffer.cursor = 0;
  UpdateCurrencies(s.record, buffer.records[0]);
  DmlResult result;
  result.records = {buffer.records[0]};
  return result;
}

Result<DmlResult> DmlMachine::Get(const codasyl::GetStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const codasyl::RunUnitCurrency* ru, RequireRunUnit(""));
  DmlResult result;
  switch (s.kind) {
    case codasyl::GetStatement::Kind::kAll: {
      uwa_.Deliver(ru->record_type, ru->record);
      result.records = {ru->record};
      return result;
    }
    case codasyl::GetStatement::Kind::kRecord: {
      if (ru->record_type != s.record) {
        return Status::CurrencyError("GET " + s.record +
                                     ": current of run-unit is of type '" +
                                     ru->record_type + "'");
      }
      uwa_.Deliver(s.record, ru->record);
      result.records = {ru->record};
      return result;
    }
    case codasyl::GetStatement::Kind::kItems: {
      if (ru->record_type != s.record) {
        return Status::CurrencyError("GET ... IN " + s.record +
                                     ": current of run-unit is of type '" +
                                     ru->record_type + "'");
      }
      Record projected;
      for (const auto& item : s.items) {
        projected.Set(item, ru->record.GetOrNull(item));
      }
      uwa_.Deliver(s.record, projected);
      result.records = {std::move(projected)};
      return result;
    }
  }
  return Status::Internal("unreachable GET kind");
}

Result<DmlMachine::BuiltStore> DmlMachine::BuildStoreRecord(
    const network::RecordType& rt) {
  const std::string& name = rt.name;

  Record record;
  record.Set(std::string(abdm::kFileAttribute), Value::String(name));
  record.Set(KeyAttribute(name), Value::Null());
  for (const auto& attr : rt.attributes) {
    auto value = uwa_.Get(name, attr.name);
    if (value.has_value()) record.Set(attr.name, *value);
  }

  // Set membership. Automatic sets connect now; manual member-side sets
  // start unattached (NULL). SYSTEM sets contribute nothing.
  std::vector<std::pair<std::string, std::string>> connected;  // set, owner.
  for (const SetType* set : schema_->SetsWithMember(name)) {
    if (set->IsSystemOwned()) continue;
    if (IsOwnerSideOneToMany(set->name)) continue;  // lives on owner side.
    std::string owner_key;
    auto uwa_value = uwa_.Get(name, SetAttribute(set->name));
    if (uwa_value.has_value() && uwa_value->is_string()) {
      owner_key = uwa_value->AsString();
    } else if (set->selection.mode == network::SelectionMode::kValue) {
      // SET SELECTION IS BY VALUE OF item IN owner-record: the owner
      // occurrence is the one whose item equals the UWA value of that
      // item (one auxiliary RETRIEVE).
      auto select_value =
          uwa_.Get(set->selection.record1_name, set->selection.item_name);
      if (select_value.has_value()) {
        MLDS_ASSIGN_OR_RETURN(
            kds::Response owners,
            Issue(RetrieveAttribute(
                Query::ForFile(set->owner,
                               {Eq(set->selection.item_name, *select_value)}),
                KeyAttribute(set->owner))));
        if (owners.records.size() == 1) {
          owner_key = owners.records[0]
                          .GetOrNull(KeyAttribute(set->owner))
                          .ToDisplayString();
        } else if (owners.records.size() > 1) {
          return Status::CurrencyError(
              "STORE " + name + ": BY VALUE selection of set '" +
              set->name + "' is ambiguous (" +
              std::to_string(owners.records.size()) + " owners match)");
        }
      }
    } else if (const codasyl::SetCurrency* currency =
                   cit_.CurrentOfSet(set->name);
               currency != nullptr && !currency->owner_dbkey.empty()) {
      owner_key = currency->owner_dbkey;
    }
    if (set->insertion == network::InsertionMode::kAutomatic) {
      // STORE requires the pertinent automatic sets to have a current
      // occurrence (set selection is BY APPLICATION, Ch. VI.G).
      if (owner_key.empty()) {
        return Status::CurrencyError(
            "STORE " + name + ": automatic set '" + set->name +
            "' has no current owner; FIND the owner or MOVE its key");
      }
      const SetInfo* info = SetInfoOf(set->name);
      if (info != nullptr && info->origin == SetOrigin::kIsa) {
        MLDS_RETURN_IF_ERROR(inserts_.CheckOverlap("STORE", name, set->name,
                                                   owner_key, *mapping_));
      }
      record.Set(SetAttribute(set->name), Value::String(owner_key));
      connected.emplace_back(set->name, owner_key);
    } else {
      // Manual set: honour an explicitly MOVEd owner key, else NULL.
      if (!owner_key.empty() && uwa_value.has_value()) {
        record.Set(SetAttribute(set->name), Value::String(owner_key));
        connected.emplace_back(set->name, owner_key);
      } else {
        record.Set(SetAttribute(set->name), Value::Null());
      }
    }
  }
  return BuiltStore{std::move(record), std::move(connected)};
}

void DmlMachine::CommitStoreCurrencies(std::string_view record_type,
                                       BuiltStore& built,
                                       const std::string& dbkey) {
  built.record.Set(KeyAttribute(record_type), Value::String(dbkey));
  UpdateCurrencies(record_type, built.record);
  for (const auto& [set_name, owner_key] : built.connected) {
    cit_.SetCurrentOfSet(set_name, codasyl::SetCurrency{owner_key, dbkey});
  }
}

Result<DmlResult> DmlMachine::Store(const codasyl::StoreStatement& s) {
  if (s.parameterized()) {
    return Status::InvalidArgument(
        "STORE " + s.record + ": parameter markers ('?') require the batch "
        "interface, which binds one value per marker per row");
  }
  return StoreRows(s, {{}}, std::nullopt);
}

Result<DmlResult> DmlMachine::StoreRows(
    const codasyl::StoreStatement& s,
    const std::vector<std::vector<Value>>& rows,
    const std::optional<abdl::BatchLimits>& limits) {
  MLDS_ASSIGN_OR_RETURN(const network::RecordType* rt, RequireRecord(s.record));
  // The chunk's built records; their currencies commit once it inserts.
  std::vector<BuiltStore> built;
  auto build = [&](const std::vector<Value>& row) -> Result<Record> {
    // Inline assignments are per-item MOVEs folded into the STORE.
    size_t next_param = 0;
    for (const auto& a : s.assignments) {
      uwa_.Move(s.record, a.item, a.is_param ? row[next_param++] : a.value);
    }
    MLDS_ASSIGN_OR_RETURN(BuiltStore one, BuildStoreRecord(*rt));
    built.push_back(std::move(one));
    return built.back().record;
  };
  DmlResult result;
  auto commit = [&](const std::vector<std::string>& keys, const Record& last) {
    for (size_t i = 0; i < built.size() && i < keys.size(); ++i) {
      CommitStoreCurrencies(s.record, built[i], keys[i]);
    }
    built.clear();
    if (!limits.has_value()) result.records = {last};
  };
  // Duplicates condition (Ch. VI.G factor 3): the items under a
  // DUPLICATES ARE NOT ALLOWED clause are unique in combination.
  MLDS_ASSIGN_OR_RETURN(
      size_t stored,
      inserts_.Insert("STORE", s.record,
                      std::count_if(s.assignments.begin(), s.assignments.end(),
                                    [](const auto& a) { return a.is_param; }),
                      rows, limits, build,
                      NetworkUnique(*rt, "STORE " + s.record +
                                             " violates DUPLICATES ARE NOT "
                                             "ALLOWED: a record with the same "
                                             "unique item values exists"),
                      commit));
  result.info = limits.has_value()
                    ? "stored " + std::to_string(stored) + " record(s)"
                    : "stored " + KeyOf(s.record, result.records[0]);
  return result;
}

Result<DmlResult> DmlMachine::Connect(const codasyl::ConnectStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const codasyl::RunUnitCurrency* ru,
                        RequireRunUnit(s.record));
  const std::string run_key = ru->dbkey;
  DmlResult result;
  for (const auto& set_name : s.sets) {
    MLDS_ASSIGN_OR_RETURN(const SetType* set, RequireSet(set_name));
    MLDS_RETURN_IF_ERROR(RequireMemberOf(*set, s.record));
    if (set->insertion != network::InsertionMode::kManual) {
      // Sets with an insertion clause of automatic cannot be used in
      // CONNECT statements (Ch. VI.D.1).
      return Status::ConstraintViolation(
          "CONNECT: set '" + set_name +
          "' has AUTOMATIC insertion and cannot be connected manually");
    }
    MLDS_ASSIGN_OR_RETURN(std::string owner_key, RequireSetOwner(set_name));

    if (IsOwnerSideOneToMany(set_name)) {
      // Ch. VI.D.2.a: the information resides in the owner record(s).
      MLDS_ASSIGN_OR_RETURN(
          kds::Response owners,
          Issue(RetrieveAll(Query::KeySet(set->owner, KeyAttribute(set->owner),
                                          {owner_key}))));
      if (owners.records.empty()) {
        return Status::NotFound("CONNECT: owner '" + owner_key +
                                "' of set '" + set_name + "' not found");
      }
      bool all_null = true;
      for (const Record& r : owners.records) {
        if (!r.GetOrNull(SetAttribute(set_name)).is_null()) {
          all_null = false;
          break;
        }
      }
      if (all_null) {
        // Cases (1)-(2): replace the null value in every owner record
        // (all scalar multi-valued duplicates update together).
        UpdateRequest update;
        update.query =
            Query::KeySet(set->owner, KeyAttribute(set->owner), {owner_key});
        update.modifier = Modifier{SetAttribute(set_name), ModifierKind::kSet,
                                   Value::String(run_key)};
        MLDS_ASSIGN_OR_RETURN(kds::Response r, Issue(update));
        (void)r;
      } else {
        // Cases (3)-(4): insert duplicated owner records whose set
        // keyword names the new member; one per distinct existing base
        // record so the scalar multi-valued cross product is preserved.
        std::set<std::string> seen;
        for (const Record& r : owners.records) {
          Record base = r;
          base.Set(SetAttribute(set_name), Value::String(run_key));
          const std::string signature = base.ToString();
          if (!seen.insert(signature).second) continue;
          MLDS_ASSIGN_OR_RETURN(kds::Response ins, Issue(InsertRequest{{base}}));
          (void)ins;
        }
      }
    } else {
      // Ch. VI.D.2.b: the member record's set keyword takes the owner's
      // database key.
      UpdateRequest update;
      update.query = Query::KeySet(s.record, KeyAttribute(s.record), {run_key});
      update.modifier = Modifier{SetAttribute(set_name), ModifierKind::kSet,
                                 Value::String(owner_key)};
      MLDS_ASSIGN_OR_RETURN(kds::Response r, Issue(update));
      if (r.affected == 0) {
        return Status::NotFound("CONNECT: current of run-unit '" + run_key +
                                "' not found in file '" + s.record + "'");
      }
    }
    cit_.SetCurrentOfSet(set_name, codasyl::SetCurrency{owner_key, run_key});
  }
  // Refresh the cached run-unit copy.
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> refreshed,
                        FetchByKey(s.record, run_key));
  if (!refreshed.empty()) {
    cit_.SetRunUnit(s.record, run_key, refreshed[0]);
  }
  result.info = "connected " + run_key;
  return result;
}

Result<DmlResult> DmlMachine::Disconnect(
    const codasyl::DisconnectStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const codasyl::RunUnitCurrency* ru,
                        RequireRunUnit(s.record));
  const std::string run_key = ru->dbkey;
  DmlResult result;
  for (const auto& set_name : s.sets) {
    MLDS_ASSIGN_OR_RETURN(const SetType* set, RequireSet(set_name));
    MLDS_RETURN_IF_ERROR(RequireMemberOf(*set, s.record));
    if (set->retention != network::RetentionMode::kOptional) {
      // Fixed/mandatory retention forbids detaching members (Ch. V.F).
      return Status::ConstraintViolation(
          "DISCONNECT: set '" + set_name +
          "' retention is not OPTIONAL; members cannot be disconnected");
    }
    MLDS_ASSIGN_OR_RETURN(std::string owner_key, RequireSetOwner(set_name));

    if (IsOwnerSideOneToMany(set_name)) {
      // Ch. VI.E: singleton function set -> null out; multiple members ->
      // delete the duplicated owner records naming this member.
      MLDS_ASSIGN_OR_RETURN(
          kds::Response owners,
          Issue(RetrieveAll(Query::KeySet(set->owner, KeyAttribute(set->owner),
                                          {owner_key}))));
      std::set<std::string> members;
      for (const Record& r : owners.records) {
        Value v = r.GetOrNull(SetAttribute(set_name));
        if (v.is_string()) members.insert(v.AsString());
      }
      if (members.count(run_key) == 0) {
        return Status::NotFound("DISCONNECT: '" + run_key +
                                "' is not connected to set '" + set_name +
                                "'");
      }
      if (members.size() == 1) {
        UpdateRequest update;
        update.query =
            Query::KeySet(set->owner, KeyAttribute(set->owner), {owner_key});
        update.modifier = Modifier{SetAttribute(set_name), ModifierKind::kSet,
                                   Value::Null()};
        MLDS_ASSIGN_OR_RETURN(kds::Response r, Issue(update));
        (void)r;
      } else {
        DeleteRequest del;
        del.query =
            Query::KeySet(set->owner, KeyAttribute(set->owner), {owner_key},
                          {EqStr(SetAttribute(set_name), run_key)});
        MLDS_ASSIGN_OR_RETURN(kds::Response r, Issue(del));
        (void)r;
      }
    } else {
      // Member-side: null out the member's set keyword (Ch. VI.E).
      UpdateRequest update;
      update.query =
          Query::KeySet(s.record, KeyAttribute(s.record), {run_key},
                        {EqStr(SetAttribute(set_name), owner_key)});
      update.modifier = Modifier{SetAttribute(set_name), ModifierKind::kSet,
                                 Value::Null()};
      MLDS_ASSIGN_OR_RETURN(kds::Response r, Issue(update));
      if (r.affected == 0) {
        return Status::NotFound("DISCONNECT: '" + run_key +
                                "' is not connected to '" + set_name +
                                "' under owner '" + owner_key + "'");
      }
    }
    cit_.SetSetMember(set_name, "");
  }
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> refreshed,
                        FetchByKey(s.record, run_key));
  if (!refreshed.empty()) {
    cit_.SetRunUnit(s.record, run_key, refreshed[0]);
  }
  result.info = "disconnected " + run_key;
  return result;
}

Result<DmlResult> DmlMachine::Reconnect(const codasyl::ReconnectStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const codasyl::RunUnitCurrency* ru,
                        RequireRunUnit(s.record));
  const std::string run_key = ru->dbkey;
  DmlResult result;
  for (const auto& set_name : s.sets) {
    MLDS_ASSIGN_OR_RETURN(const SetType* set, RequireSet(set_name));
    MLDS_RETURN_IF_ERROR(RequireMemberOf(*set, s.record));
    if (set->retention == network::RetentionMode::kFixed) {
      // FIXED retention pins a member to its original owner forever.
      return Status::ConstraintViolation(
          "RECONNECT: set '" + set_name +
          "' retention is FIXED; members cannot change owners");
    }
    MLDS_ASSIGN_OR_RETURN(std::string owner_key, RequireSetOwner(set_name));

    if (IsOwnerSideOneToMany(set_name)) {
      // Owner-side representation: remove the member from any previous
      // owner's duplicated records, then connect to the current owner.
      MLDS_ASSIGN_OR_RETURN(
          kds::Response old_owners,
          Issue(RetrieveAll(
              Query::KeySet(set->owner, SetAttribute(set_name), {run_key}))));
      for (const Record& r : old_owners.records) {
        const std::string old_key = KeyOf(set->owner, r);
        if (old_key == owner_key) continue;
        // Count that owner's remaining members to pick null-out vs delete.
        MLDS_ASSIGN_OR_RETURN(
            kds::Response copies,
            Issue(RetrieveAll(Query::KeySet(set->owner,
                                            KeyAttribute(set->owner),
                                            {old_key}))));
        std::set<std::string> members;
        for (const Record& copy : copies.records) {
          Value v = copy.GetOrNull(SetAttribute(set_name));
          if (v.is_string()) members.insert(v.AsString());
        }
        if (members.size() <= 1) {
          UpdateRequest update;
          update.query =
              Query::KeySet(set->owner, KeyAttribute(set->owner), {old_key});
          update.modifier = Modifier{SetAttribute(set_name),
                                     ModifierKind::kSet, Value::Null()};
          MLDS_ASSIGN_OR_RETURN(kds::Response u, Issue(update));
          (void)u;
        } else {
          DeleteRequest del;
          del.query =
              Query::KeySet(set->owner, KeyAttribute(set->owner), {old_key},
                            {EqStr(SetAttribute(set_name), run_key)});
          MLDS_ASSIGN_OR_RETURN(kds::Response d, Issue(del));
          (void)d;
        }
      }
      // Connect to the new owner (null keyword -> UPDATE, else duplicate).
      MLDS_ASSIGN_OR_RETURN(
          kds::Response owners,
          Issue(RetrieveAll(Query::KeySet(set->owner, KeyAttribute(set->owner),
                                          {owner_key}))));
      bool all_null = true;
      for (const Record& r : owners.records) {
        if (!r.GetOrNull(SetAttribute(set_name)).is_null()) {
          all_null = false;
          break;
        }
      }
      if (all_null) {
        UpdateRequest update;
        update.query =
            Query::KeySet(set->owner, KeyAttribute(set->owner), {owner_key});
        update.modifier = Modifier{SetAttribute(set_name), ModifierKind::kSet,
                                   Value::String(run_key)};
        MLDS_ASSIGN_OR_RETURN(kds::Response u, Issue(update));
        (void)u;
      } else {
        std::set<std::string> seen;
        for (const Record& r : owners.records) {
          Record base = r;
          base.Set(SetAttribute(set_name), Value::String(run_key));
          if (!seen.insert(base.ToString()).second) continue;
          MLDS_ASSIGN_OR_RETURN(kds::Response ins, Issue(InsertRequest{{base}}));
          (void)ins;
        }
      }
    } else {
      // Member-side: overwrite the member's set keyword with the new
      // owner's key — one UPDATE regardless of the previous owner.
      UpdateRequest update;
      update.query = Query::KeySet(s.record, KeyAttribute(s.record), {run_key});
      update.modifier = Modifier{SetAttribute(set_name), ModifierKind::kSet,
                                 Value::String(owner_key)};
      MLDS_ASSIGN_OR_RETURN(kds::Response r, Issue(update));
      if (r.affected == 0) {
        return Status::NotFound("RECONNECT: current of run-unit '" + run_key +
                                "' not found in file '" + s.record + "'");
      }
    }
    cit_.SetCurrentOfSet(set_name, codasyl::SetCurrency{owner_key, run_key});
  }
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> refreshed,
                        FetchByKey(s.record, run_key));
  if (!refreshed.empty()) {
    cit_.SetRunUnit(s.record, run_key, refreshed[0]);
  }
  result.info = "reconnected " + run_key;
  return result;
}

Result<DmlResult> DmlMachine::Modify(const codasyl::ModifyStatement& s) {
  MLDS_ASSIGN_OR_RETURN(const network::RecordType* rt, RequireRecord(s.record));
  MLDS_ASSIGN_OR_RETURN(const codasyl::RunUnitCurrency* ru,
                        RequireRunUnit(s.record));
  const std::string run_key = ru->dbkey;

  std::vector<std::string> items = s.items;
  if (items.empty()) {
    // MODIFY record: every record attribute with a UWA value changes.
    for (const auto& attr : rt->attributes) {
      if (uwa_.Get(s.record, attr.name).has_value()) {
        items.push_back(attr.name);
      }
    }
    if (items.empty()) {
      return Status::InvalidArgument(
          "MODIFY " + s.record + ": no UWA values supplied; MOVE new values "
          "first");
    }
  }

  size_t modified = 0;
  Record updated = ru->record;
  for (const auto& item : items) {
    if (rt->FindAttribute(item) == nullptr) {
      return Status::InvalidArgument("MODIFY: '" + item +
                                     "' is not a data item of '" + s.record +
                                     "'");
    }
    auto value = uwa_.Get(s.record, item);
    if (!value.has_value()) {
      return Status::CurrencyError("MODIFY: UWA item '" + item +
                                   "' has no value; MOVE one first");
    }
    // UPDATE ((FILE = r) AND (r = run-unit dbkey)) (item = value), one
    // request per modified field (Ch. VI.F).
    UpdateRequest update;
    update.query = Query::KeySet(s.record, KeyAttribute(s.record), {run_key});
    update.modifier = Modifier{item, ModifierKind::kSet, *value};
    MLDS_ASSIGN_OR_RETURN(kds::Response r, Issue(update));
    modified += r.affected;
    updated.Set(item, *value);
  }
  cit_.SetRunUnit(s.record, run_key, updated);
  DmlResult result;
  result.info = "modified " + std::to_string(items.size()) + " item(s) of " +
                run_key;
  result.records = {std::move(updated)};
  (void)modified;
  return result;
}

Result<DmlResult> DmlMachine::Erase(const codasyl::EraseStatement& s) {
  if (s.all) {
    // The CODASYL ERASE ALL constraints clash with the Daplex DESTROY
    // constraints, so the statement is not translated (Ch. VI.H.2); the
    // same effect is obtained by repeated ERASE statements.
    return Status::Unimplemented(
        "ERASE ALL is not translated: CODASYL and Daplex deletion "
        "constraints conflict (thesis Ch. VI.H.2); use repeated ERASE");
  }
  MLDS_RETURN_IF_ERROR(RequireRecord(s.record).status());
  MLDS_ASSIGN_OR_RETURN(const codasyl::RunUnitCurrency* ru,
                        RequireRunUnit(s.record));
  const std::string run_key = ru->dbkey;

  // CODASYL constraint: the record may not own a non-null set occurrence.
  for (const SetType* set : schema_->SetsWithOwner(s.record)) {
    if (IsOwnerSideOneToMany(set->name)) {
      // Members are recorded in this record's own duplicated copies.
      MLDS_ASSIGN_OR_RETURN(std::vector<Record> copies,
                            FetchByKey(s.record, run_key));
      for (const Record& copy : copies) {
        if (!copy.GetOrNull(SetAttribute(set->name)).is_null()) {
          return Status::Aborted("ERASE " + s.record + ": record owns a "
                                 "non-null occurrence of set '" + set->name +
                                 "'");
        }
      }
      continue;
    }
    for (const auto& member : set->members) {
      MLDS_ASSIGN_OR_RETURN(
          kds::Response resp,
          Issue(RetrieveAttribute(
              Query::KeySet(member, SetAttribute(set->name), {run_key}),
              SetAttribute(set->name))));
      if (!resp.records.empty()) {
        return Status::Aborted("ERASE " + s.record + ": record owns a "
                               "non-null occurrence of set '" + set->name +
                               "'");
      }
    }
  }

  // Daplex constraint: an entity referenced by a database function cannot
  // be destroyed. References live in owner-side duplicated records of
  // one-to-many function sets in which this record type is the member.
  for (const SetType* set : schema_->SetsWithMember(s.record)) {
    if (!IsOwnerSideOneToMany(set->name)) continue;
    MLDS_ASSIGN_OR_RETURN(
        kds::Response resp,
        Issue(RetrieveAttribute(
            Query::KeySet(set->owner, SetAttribute(set->name), {run_key}),
            SetAttribute(set->name))));
    if (!resp.records.empty()) {
      return Status::Aborted("ERASE " + s.record + ": entity is referenced "
                             "through Daplex function set '" + set->name +
                             "'");
    }
  }

  // DELETE ((FILE = r) AND (r = run-unit dbkey)) — removes every
  // duplicated AB record of the entity.
  DeleteRequest del;
  del.query = Query::KeySet(s.record, KeyAttribute(s.record), {run_key});
  MLDS_ASSIGN_OR_RETURN(kds::Response resp, Issue(del));
  cit_.ClearRunUnit();
  DmlResult result;
  result.info = "erased " + run_key + " (" + std::to_string(resp.affected) +
                " kernel record(s))";
  return result;
}

/// WALK level fan-out above which the owner side of the fused join is a
/// full-file scan (page-grouped block fetches) rather than one equality
/// disjunct per reached key (one scattered block probe each).
constexpr size_t kWalkProbeLimit = 64;

Result<DmlResult> DmlMachine::Walk(const codasyl::WalkStatement& s) {
  // Resolve and validate the chain: every level is a member-side set
  // (the member record carries the owner's dbkey in the set keyword, so
  // one RETRIEVE-COMMON joins the two files), and the member type of
  // each set is the owner type of the next.
  std::vector<const SetType*> chain;
  chain.reserve(s.sets.size());
  for (const std::string& name : s.sets) {
    MLDS_ASSIGN_OR_RETURN(const SetType* set, RequireSet(name));
    if (set->IsSystemOwned()) {
      return Status::InvalidArgument(
          "WALK: set '" + name + "' is SYSTEM-owned; membership is implied "
          "by the FILE keyword and needs no traversal");
    }
    if (IsOwnerSideOneToMany(name)) {
      return Status::InvalidArgument(
          "WALK: set '" + name + "' is an owner-side function set; only "
          "member-side sets lower to a fused JOIN");
    }
    if (set->members.size() != 1) {
      return Status::InvalidArgument(
          "WALK: set '" + name + "' has " +
          std::to_string(set->members.size()) +
          " member types; WALK requires exactly one per level");
    }
    if (!chain.empty() && chain.back()->members[0] != set->owner) {
      return Status::InvalidArgument(
          "WALK: set '" + name + "' is owned by '" + set->owner +
          "' but the previous level ends at '" + chain.back()->members[0] +
          "'");
    }
    chain.push_back(set);
  }

  // One fused RETRIEVE-COMMON per level — the member file joined with
  // the owner file on (set keyword = owner dbkey) — instead of one FIND
  // per owner occurrence. The member side is the LEFT side so merged
  // records keep the member's FILE keyword; riding-along owner keywords
  // are harmless (attribute names are per-record-type).
  std::vector<Record> current;
  std::vector<std::string> reachable;  // owner keys for the next level
  for (size_t level = 0; level < chain.size(); ++level) {
    const SetType& set = *chain[level];
    const std::string& member = set.members[0];
    abdl::RetrieveCommonRequest req;
    req.left_query = Query::ForFile(member);
    req.left_attribute = SetAttribute(set.name);
    if (level == 0) {
      req.right_query = Query::ForFile(set.owner);
    } else {
      if (reachable.empty()) {
        current.clear();
        break;
      }
      if (reachable.size() > kWalkProbeLimit) {
        // Wide level: each per-key disjunct costs one scattered block
        // probe, so past this fan-out a page-grouped scan of the whole
        // owner file is cheaper. Reachability still prunes, below — the
        // member side carries the owner dbkey in the set keyword.
        req.right_query = Query::ForFile(set.owner);
      } else {
        // Sparse level: restrict the owner side to the records reached
        // so far — one disjunct per key, still a single kernel request.
        req.right_query =
            Query::KeySet(set.owner, KeyAttribute(set.owner), reachable);
      }
    }
    req.right_attribute = KeyAttribute(set.owner);
    MLDS_ASSIGN_OR_RETURN(kds::Response resp, Issue(std::move(req)));
    current = std::move(resp.records);
    if (level > 0 && reachable.size() > kWalkProbeLimit) {
      // The owner side ran unrestricted; drop members whose owner was
      // never reached so the chain's pruning semantics are unchanged.
      const std::unordered_set<std::string_view> reached(reachable.begin(),
                                                         reachable.end());
      const std::string set_attr = SetAttribute(set.name);
      std::erase_if(current, [&](const Record& r) {
        const Value* key = r.Find(set_attr);
        return key == nullptr || !key->is_string() ||
               reached.count(key->AsString()) == 0;
      });
    }
    std::set<std::string_view> keys;
    abdm::AttributeReader member_key(KeyAttribute(member));
    for (const Record& r : current) {
      const Value* key = member_key.Find(r);
      if (key != nullptr && key->is_string()) keys.insert(key->AsString());
    }
    reachable.assign(keys.begin(), keys.end());
  }

  SortByKey(chain.back()->members[0], &current);
  DmlResult result;
  result.info = "walked " + std::to_string(chain.size()) + " set(s): " +
                std::to_string(current.size()) + " record(s)";
  result.records = std::move(current);
  return result;
}

}  // namespace mlds::kms
