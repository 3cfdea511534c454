#include "abdl/request.h"

namespace mlds::abdl {

namespace {

std::string_view AggregateOpToString(AggregateOp op) {
  switch (op) {
    case AggregateOp::kNone:
      return "";
    case AggregateOp::kCount:
      return "COUNT";
    case AggregateOp::kSum:
      return "SUM";
    case AggregateOp::kAvg:
      return "AVG";
    case AggregateOp::kMin:
      return "MIN";
    case AggregateOp::kMax:
      return "MAX";
  }
  return "";
}

}  // namespace

std::string Modifier::ToString() const {
  switch (kind) {
    case ModifierKind::kSet:
      return "(" + attribute + " = " + operand.ToString() + ")";
    case ModifierKind::kAdd:
      return "(" + attribute + " = " + attribute + " + " + operand.ToString() +
             ")";
  }
  return "";
}

std::string TargetItem::ToString() const {
  if (aggregate == AggregateOp::kNone) return attribute;
  std::string out(AggregateOpToString(aggregate));
  out += "(";
  out += attribute;
  out += ")";
  return out;
}

bool IsMutation(const Request& request) {
  return std::holds_alternative<InsertRequest>(request) ||
         std::holds_alternative<DeleteRequest>(request) ||
         std::holds_alternative<UpdateRequest>(request);
}

std::string_view RequestOperation(const Request& request) {
  struct Visitor {
    std::string_view operator()(const InsertRequest&) { return "INSERT"; }
    std::string_view operator()(const DeleteRequest&) { return "DELETE"; }
    std::string_view operator()(const UpdateRequest&) { return "UPDATE"; }
    std::string_view operator()(const RetrieveRequest&) { return "RETRIEVE"; }
    std::string_view operator()(const RetrieveCommonRequest&) {
      return "RETRIEVE-COMMON";
    }
  };
  return std::visit(Visitor{}, request);
}

bool IsExplain(const Request& request) {
  struct Visitor {
    bool operator()(const InsertRequest&) { return false; }
    bool operator()(const DeleteRequest& r) { return r.explain; }
    bool operator()(const UpdateRequest& r) { return r.explain; }
    bool operator()(const RetrieveRequest& r) { return r.explain; }
    bool operator()(const RetrieveCommonRequest& r) { return r.explain; }
  };
  return std::visit(Visitor{}, request);
}

void SetExplain(Request& request, bool explain) {
  struct Visitor {
    bool explain;
    void operator()(InsertRequest&) {}
    void operator()(DeleteRequest& r) { r.explain = explain; }
    void operator()(UpdateRequest& r) { r.explain = explain; }
    void operator()(RetrieveRequest& r) { r.explain = explain; }
    void operator()(RetrieveCommonRequest& r) { r.explain = explain; }
  };
  std::visit(Visitor{explain}, request);
}

std::string ToString(const Request& request) {
  std::string out;
  AppendToString(request, out);
  return out;
}

void AppendToString(const Request& request, std::string& out) {
  struct Visitor {
    std::string& out;
    void Done(std::string rendered) { out += rendered; }
    void operator()(const InsertRequest& r) {
      out += "INSERT";
      if (r.records.empty()) return;
      // Size the buffer off the first record so a thousand-row INSERT
      // renders without reallocation churn.
      const size_t before = out.size();
      out.push_back(' ');
      r.records[0].AppendTo(out);
      const size_t per_record = out.size() - before;
      out.reserve(out.size() + per_record * (r.records.size() - 1));
      for (size_t i = 1; i < r.records.size(); ++i) {
        out.push_back(' ');
        r.records[i].AppendTo(out);
      }
    }
    void operator()(const DeleteRequest& r) {
      Done(Prefix(r.explain) + "DELETE " + r.query.ToString());
    }
    void operator()(const UpdateRequest& r) {
      Done(Prefix(r.explain) + "UPDATE " + r.query.ToString() + " " +
           r.modifier.ToString());
    }
    void operator()(const RetrieveRequest& r) {
      std::string text = Prefix(r.explain) + "RETRIEVE " +
                         r.query.ToString() + " (";
      if (r.all_attributes) {
        text += "all attributes";
      } else {
        for (size_t i = 0; i < r.targets.size(); ++i) {
          if (i > 0) text += ", ";
          text += r.targets[i].ToString();
        }
      }
      text += ")";
      if (r.by_attribute) {
        text += " BY " + *r.by_attribute;
      }
      Done(std::move(text));
    }
    void operator()(const RetrieveCommonRequest& r) {
      std::string text = Prefix(r.explain) + "RETRIEVE-COMMON " +
                         r.left_query.ToString() + " (" + r.left_attribute +
                         ") AND " + r.right_query.ToString() + " (" +
                         r.right_attribute + ") (";
      if (r.targets.empty()) {
        text += "all attributes";
      } else {
        for (size_t i = 0; i < r.targets.size(); ++i) {
          if (i > 0) text += ", ";
          text += r.targets[i].ToString();
        }
      }
      text += ")";
      Done(std::move(text));
    }

    static std::string Prefix(bool explain) {
      return explain ? "EXPLAIN " : "";
    }
  };
  std::visit(Visitor{out}, request);
}

}  // namespace mlds::abdl
