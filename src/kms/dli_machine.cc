#include "kms/dli_machine.h"

#include <algorithm>
#include <set>

#include "abdm/lexer.h"
#include "common/strings.h"
#include "transform/abdm_mapping.h"

namespace mlds::kms {

namespace {

using abdl::RetrieveAll;
using abdm::Predicate;
using abdm::Query;
using abdm::Record;
using abdm::RelOp;
using abdm::Value;
using hierarchical::Segment;
using transform::KeyAttribute;

// --- DL/I call parsing ---

constexpr abdm::Dialect kDli{"DL/I call"};

}  // namespace

Result<DliCall> ParseDliCall(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(abdm::TokenCursor in,
                        abdm::TokenCursor::Open(text, kDli));
  MLDS_ASSIGN_OR_RETURN(std::string code, in.ExpectName("DL/I function code"));
  const std::string function = ToUpper(code);
  DliCall call;
  if (function == "GU") {
    call.function = DliCall::Function::kGu;
  } else if (function == "GN") {
    call.function = DliCall::Function::kGn;
  } else if (function == "GNP") {
    call.function = DliCall::Function::kGnp;
  } else if (function == "ISRT") {
    call.function = DliCall::Function::kIsrt;
  } else if (function == "REPL") {
    call.function = DliCall::Function::kRepl;
  } else if (function == "DLET") {
    call.function = DliCall::Function::kDlet;
  } else {
    return Status::ParseError("unknown DL/I function '" + function + "'");
  }

  // SSA list: [segment] [ '(' qual [, qual]... ')' ] ...
  while (!in.AtEnd()) {
    Ssa ssa;
    if (in.Peek().kind == abdm::TokenKind::kWord) {
      ssa.segment = std::string(in.Advance().text);
    } else if (call.function != DliCall::Function::kRepl ||
               !in.Peek().Is("(")) {
      // Only REPL's field list may stand without a segment name.
      return in.Unexpected("segment name");
    }
    if (in.Consume("(")) {
      do {
        Predicate qual;
        MLDS_ASSIGN_OR_RETURN(qual.attribute,
                              in.ExpectName("field name in qualification"));
        std::optional<RelOp> op = in.ConsumeRelOp();
        if (!op) {
          return in.Unexpected("operator after '" + qual.attribute + "'");
        }
        qual.op = *op;
        bool is_param = false;
        if (in.Peek().IsLiteral()) {
          qual.value = in.Advance().value;
        } else if (in.Consume("?")) {
          is_param = true;
        } else if (!in.ConsumeKeyword("NULL")) {  // NULL leaves the value null
          return in.Unexpected("literal in qualification");
        }
        ssa.qualifications.push_back(std::move(qual));
        ssa.param_mask.push_back(is_param ? 1 : 0);
      } while (in.Consume(","));
      MLDS_RETURN_IF_ERROR(in.Expect(")", "closing qualification"));
    }
    call.ssas.push_back(std::move(ssa));
  }
  if (call.parameterized() && call.function != DliCall::Function::kIsrt) {
    return Status::ParseError(
        "parameter markers ('?') are only allowed in ISRT field lists");
  }
  return call;
}

// --- Machine ---

DliMachine::DliMachine(const hierarchical::Schema* schema,
                       kc::KernelExecutor* executor)
    : schema_(schema),
      executor_(executor),
      inserts_([this](abdl::Request r) { return Issue(std::move(r)); }) {}

Result<kds::Response> DliMachine::Issue(abdl::Request request) {
  Result<kds::Response> response = executor_->Execute(request);
  trace_.Add(std::move(request));
  return response;
}

Result<DliMachine::Outcome> DliMachine::Execute(const DliCall& call) {
  trace_.clear();
  switch (call.function) {
    case DliCall::Function::kGu:
      return Gu(call);
    case DliCall::Function::kGn:
      return Gn(call);
    case DliCall::Function::kGnp:
      return Gnp(call);
    case DliCall::Function::kIsrt:
      return Isrt(call, {{}}, std::nullopt);
    case DliCall::Function::kRepl:
      return Repl(call);
    case DliCall::Function::kDlet:
      return Dlet();
  }
  return Status::Internal("unreachable DL/I function");
}

Result<DliMachine::Outcome> DliMachine::ExecuteText(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(std::shared_ptr<const DliCall> call,
                        GetOrCompile<DliCall>(
                            cache_, "dli", text,
                            [&] { return ParseDliCall(text); }));
  return Execute(*call);
}

Result<std::vector<DliMachine::Outcome>> DliMachine::RunProgram(
    std::string_view text) {
  std::vector<Outcome> out;
  for (std::string_view line : ProgramStatements(text)) {
    MLDS_ASSIGN_OR_RETURN(Outcome outcome, ExecuteText(line));
    out.push_back(std::move(outcome));
  }
  if (out.empty()) return Status::ParseError("empty DL/I program");
  return out;
}

Result<std::vector<Record>> DliMachine::FetchLevel(
    const Segment& segment, const std::vector<Predicate>& quals,
    const std::vector<std::string>& parent_keys) {
  for (const auto& qual : quals) {
    if (segment.FindField(qual.attribute) == nullptr) {
      return Status::NotFound("field '" + qual.attribute +
                              "' does not exist in segment '" + segment.name +
                              "'");
    }
  }
  MLDS_ASSIGN_OR_RETURN(
      kds::Response resp,
      Issue(RetrieveAll(
          parent_keys.empty()
              ? Query::ForFile(segment.name, quals)
              : Query::KeySet(segment.name, segment.parent, parent_keys,
                              quals))));
  std::vector<Record> records = std::move(resp.records);
  const std::string key_attr = KeyAttribute(segment.name);
  std::stable_sort(records.begin(), records.end(),
                   [&](const Record& a, const Record& b) {
                     return a.GetOrNull(key_attr).Compare(
                                b.GetOrNull(key_attr)) < 0;
                   });
  return records;
}

void DliMachine::SetPositionFromBuffer() {
  const Record& record = buffer_[buffer_cursor_];
  position_ = Position{
      buffer_segment_,
      record.GetOrNull(KeyAttribute(buffer_segment_)).ToDisplayString(),
      record};
}

DliMachine::Outcome DliMachine::TakeFirst(std::string segment,
                                          std::vector<Record> records) {
  buffer_segment_ = std::move(segment);
  buffer_ = std::move(records);
  buffer_cursor_ = 0;
  SetPositionFromBuffer();
  Outcome outcome;
  outcome.segments = {buffer_[0]};
  return outcome;
}

Result<DliMachine::Outcome> DliMachine::Gu(const DliCall& call) {
  if (call.ssas.empty()) {
    return Status::ParseError("GU requires at least one SSA");
  }
  // Validate the SSA path: consecutive segments must be parent -> child.
  std::vector<const Segment*> path;
  for (const auto& ssa : call.ssas) {
    const Segment* segment = schema_->FindSegment(ssa.segment);
    if (segment == nullptr) {
      return Status::NotFound("segment '" + ssa.segment +
                              "' is not declared");
    }
    if (!path.empty() && segment->parent != path.back()->name) {
      return Status::InvalidArgument("SSA path break: '" + ssa.segment +
                                     "' is not a child of '" +
                                     path.back()->name + "'");
    }
    path.push_back(segment);
  }
  // Resolve level by level.
  std::vector<std::string> parent_keys;
  std::vector<Record> level;
  for (size_t i = 0; i < path.size(); ++i) {
    MLDS_ASSIGN_OR_RETURN(
        level, FetchLevel(*path[i], call.ssas[i].qualifications, parent_keys));
    if (level.empty()) {
      return Status::NotFound("GU: no '" + path[i]->name +
                              "' segment satisfies the SSA path (GE)");
    }
    parent_keys.clear();
    const std::string key_attr = KeyAttribute(path[i]->name);
    for (const Record& r : level) {
      parent_keys.push_back(r.GetOrNull(key_attr).ToDisplayString());
    }
  }
  Outcome outcome = TakeFirst(path.back()->name, std::move(level));
  anchor_ = position_;
  return outcome;
}

Result<DliMachine::Outcome> DliMachine::Gn(const DliCall& call) {
  if (call.ssas.size() > 1) {
    return Status::InvalidArgument("GN takes at most one segment");
  }
  const std::string target =
      call.ssas.empty() ? buffer_segment_ : call.ssas[0].segment;
  if (buffer_segment_.empty()) {
    return Status::CurrencyError("GN without an established position; GU "
                                 "first");
  }
  if (target == buffer_segment_) {
    if (buffer_cursor_ + 1 >= static_cast<int>(buffer_.size())) {
      return Status::NotFound("GN: end of '" + buffer_segment_ +
                              "' segments (GB)");
    }
    ++buffer_cursor_;
    SetPositionFromBuffer();
    Outcome outcome;
    outcome.segments = {buffer_[buffer_cursor_]};
    return outcome;
  }
  // Descend: target must be a child of the current segment; the current
  // segment becomes the new parent anchor.
  const Segment* child = schema_->FindSegment(target);
  if (child == nullptr) {
    return Status::NotFound("segment '" + target + "' is not declared");
  }
  if (!position_.has_value() || child->parent != position_->segment) {
    return Status::InvalidArgument("GN " + target +
                                   ": not a child of the current segment");
  }
  anchor_ = position_;
  MLDS_ASSIGN_OR_RETURN(
      std::vector<Record> children,
      FetchLevel(*child,
                 call.ssas.empty() ? std::vector<Predicate>{}
                                   : call.ssas[0].qualifications,
                 {anchor_->key}));
  if (children.empty()) {
    return Status::NotFound("GN " + target + ": no child segments (GE)");
  }
  return TakeFirst(child->name, std::move(children));
}

Result<DliMachine::Outcome> DliMachine::Gnp(const DliCall& call) {
  if (call.ssas.size() != 1) {
    return Status::InvalidArgument("GNP takes exactly one segment");
  }
  if (!anchor_.has_value()) {
    return Status::CurrencyError("GNP without an anchored parent; GU first");
  }
  const std::string& target = call.ssas[0].segment;
  const Segment* child = schema_->FindSegment(target);
  if (child == nullptr) {
    return Status::NotFound("segment '" + target + "' is not declared");
  }
  if (child->parent != anchor_->segment) {
    return Status::InvalidArgument("GNP " + target +
                                   ": not a child of the anchored parent '" +
                                   anchor_->segment + "'");
  }
  // Iterating the same child type under the same anchor: advance.
  if (buffer_segment_ == target && buffer_cursor_ >= 0 &&
      !buffer_.empty() &&
      buffer_[0].GetOrNull(child->parent).ToDisplayString() == anchor_->key) {
    if (buffer_cursor_ + 1 >= static_cast<int>(buffer_.size())) {
      return Status::NotFound("GNP: no more '" + target +
                              "' under the parent (GE)");
    }
    ++buffer_cursor_;
    SetPositionFromBuffer();
    Outcome outcome;
    outcome.segments = {buffer_[buffer_cursor_]};
    return outcome;
  }
  MLDS_ASSIGN_OR_RETURN(std::vector<Record> children,
                        FetchLevel(*child, call.ssas[0].qualifications,
                                   {anchor_->key}));
  if (children.empty()) {
    return Status::NotFound("GNP: no '" + target + "' under the parent (GE)");
  }
  return TakeFirst(child->name, std::move(children));
}

Result<Record> DliMachine::BuildIsrtRecord(const Segment& segment,
                                           const Ssa& ssa,
                                           const std::vector<Value>& row) {
  Record record;
  record.Set(std::string(abdm::kFileAttribute), Value::String(segment.name));
  size_t next_param = 0;
  for (size_t i = 0; i < ssa.qualifications.size(); ++i) {
    const Predicate& qual = ssa.qualifications[i];
    if (qual.op != RelOp::kEq) {
      return Status::InvalidArgument("ISRT field list uses '=' only");
    }
    if (segment.FindField(qual.attribute) == nullptr) {
      return Status::NotFound("field '" + qual.attribute +
                              "' does not exist in segment '" +
                              segment.name + "'");
    }
    const bool is_param = i < ssa.param_mask.size() && ssa.param_mask[i] != 0;
    record.Set(qual.attribute, is_param ? row[next_param++] : qual.value);
  }
  if (!segment.is_root()) {
    // The parent is the current position when it is of the parent type
    // (the most recent establishment wins), else the anchored segment.
    std::string parent_key;
    if (position_.has_value() && position_->segment == segment.parent) {
      parent_key = position_->key;
    } else if (anchor_.has_value() && anchor_->segment == segment.parent) {
      parent_key = anchor_->key;
    } else {
      return Status::CurrencyError("ISRT " + segment.name +
                                   ": no current '" + segment.parent +
                                   "' parent; GU it first");
    }
    record.Set(segment.parent, Value::String(parent_key));
  }
  record.Set(KeyAttribute(segment.name), Value::Null());
  return record;
}

Result<DliMachine::Outcome> DliMachine::Isrt(
    const DliCall& call, const std::vector<std::vector<Value>>& rows,
    const std::optional<abdl::BatchLimits>& limits) {
  if (call.ssas.size() != 1) {
    return Status::InvalidArgument("ISRT takes exactly one segment");
  }
  if (!limits.has_value() && call.parameterized()) {
    return Status::InvalidArgument(
        "ISRT: parameter markers ('?') require the batch interface, which "
        "binds one value per marker per row");
  }
  const Ssa& ssa = call.ssas[0];
  const Segment* segment = schema_->FindSegment(ssa.segment);
  if (segment == nullptr) {
    return Status::NotFound("segment '" + ssa.segment + "' is not declared");
  }
  // Every row hangs off the parent established before the call; the
  // last inserted segment becomes the current position.
  Outcome outcome;
  MLDS_ASSIGN_OR_RETURN(
      outcome.affected,
      inserts_.Insert(
          "ISRT", segment->name,
          std::count_if(ssa.param_mask.begin(), ssa.param_mask.end(),
                        [](uint8_t m) { return m != 0; }),
          rows, limits,
          [&](const std::vector<Value>& row) {
            return BuildIsrtRecord(*segment, ssa, row);
          },
          InsertPath::Unique{},
          [&](const std::vector<std::string>&, const Record& last) {
            position_ = Position{
                segment->name,
                last.GetOrNull(KeyAttribute(segment->name)).AsString(), last};
          }));
  outcome.info = limits.has_value()
                     ? "inserted " + std::to_string(outcome.affected) +
                           " segment(s)"
                     : "inserted " + position_->key;
  return outcome;
}

Result<DliMachine::Outcome> DliMachine::ExecuteBatch(
    std::string_view text, const std::vector<std::vector<Value>>& rows,
    const abdl::BatchLimits& limits) {
  trace_.clear();
  MLDS_ASSIGN_OR_RETURN(std::shared_ptr<const DliCall> call,
                        GetOrCompile<DliCall>(
                            cache_, "dli", text,
                            [&] { return ParseDliCall(text); }));
  if (call->function != DliCall::Function::kIsrt || !call->parameterized()) {
    return Status::InvalidArgument(
        "batch execution requires a parameterized ISRT template "
        "(ISRT seg (field = ?, ...))");
  }
  return Isrt(*call, rows, limits);
}

Result<DliMachine::Outcome> DliMachine::Repl(const DliCall& call) {
  if (!position_.has_value()) {
    return Status::CurrencyError("REPL without a current segment");
  }
  if (call.ssas.size() != 1 || call.ssas[0].qualifications.empty()) {
    return Status::InvalidArgument("REPL takes a (field = value, ...) list");
  }
  const Segment* segment = schema_->FindSegment(position_->segment);
  Outcome outcome;
  for (const auto& qual : call.ssas[0].qualifications) {
    if (qual.op != RelOp::kEq) {
      return Status::InvalidArgument("REPL assignments use '=' only");
    }
    if (segment->FindField(qual.attribute) == nullptr) {
      return Status::NotFound("field '" + qual.attribute +
                              "' does not exist in segment '" +
                              segment->name + "'");
    }
    abdl::UpdateRequest update;
    update.query = Query::KeySet(segment->name, KeyAttribute(segment->name),
                                 {position_->key});
    update.modifier =
        abdl::Modifier{qual.attribute, abdl::ModifierKind::kSet, qual.value};
    MLDS_ASSIGN_OR_RETURN(kds::Response resp, Issue(update));
    outcome.affected = std::max(outcome.affected, resp.affected);
    position_->record.Set(qual.attribute, qual.value);
  }
  outcome.info = "replaced " + position_->key;
  return outcome;
}

Result<size_t> DliMachine::DeleteSubtree(const Segment& root,
                                         const std::string& key) {
  // Level by level from the root: a child segment type's records are
  // those whose parent keyword names a key of the level above. A non-leaf
  // child's own keys are collected by one RETRIEVE (an empty result ends
  // its branch); a leaf needs none. Then one DELETE per segment type,
  // deepest level first, all in one kernel transaction.
  abdl::Transaction txn;
  txn.push_back(abdl::DeleteRequest{
      Query::KeySet(root.name, KeyAttribute(root.name), {key})});
  std::vector<std::pair<const Segment*, std::set<std::string>>> level = {
      {&root, {key}}};
  while (!level.empty()) {
    std::vector<std::pair<const Segment*, std::set<std::string>>> next;
    for (const auto& [segment, keys] : level) {
      for (const Segment* child : schema_->ChildrenOf(segment->name)) {
        Query by_parent = Query::KeySet(child->name, child->parent, keys);
        if (!schema_->ChildrenOf(child->name).empty()) {
          const std::string key_attr = KeyAttribute(child->name);
          MLDS_ASSIGN_OR_RETURN(
              kds::Response resp,
              Issue(abdl::RetrieveAttribute(by_parent, key_attr)));
          std::set<std::string> child_keys;
          for (const Record& r : resp.records) {
            child_keys.insert(r.GetOrNull(key_attr).ToDisplayString());
          }
          if (child_keys.empty()) continue;
          next.emplace_back(child, std::move(child_keys));
        }
        txn.push_back(abdl::DeleteRequest{std::move(by_parent)});
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

Result<DliMachine::Outcome> DliMachine::Dlet() {
  if (!position_.has_value()) {
    return Status::CurrencyError("DLET without a current segment");
  }
  MLDS_ASSIGN_OR_RETURN(
      size_t deleted,
      DeleteSubtree(*schema_->FindSegment(position_->segment), position_->key));
  const std::string key = std::move(position_->key);
  position_.reset();
  anchor_.reset();
  buffer_.clear();
  buffer_cursor_ = -1;
  buffer_segment_.clear();
  if (deleted == 0) {
    // Another session deleted the current segment since it was read.
    return Status::NotFound("DLET: current segment " + key +
                            " no longer exists");
  }
  Outcome outcome;
  outcome.affected = deleted;
  outcome.info = "deleted " + key + " and " + std::to_string(deleted - 1) +
                 " dependent segment(s)";
  return outcome;
}

}  // namespace mlds::kms
