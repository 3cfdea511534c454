#include "kds/plan.h"

#include <string>

namespace mlds::kds {

std::string_view PlanNodeKindName(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kIndexEquality:
      return "INDEX EQUALITY";
    case PlanNodeKind::kIndexRange:
      return "INDEX RANGE";
    case PlanNodeKind::kIndexKeys:
      return "INDEX KEYS";
    case PlanNodeKind::kFullScan:
      return "FULL SCAN";
    case PlanNodeKind::kIntersect:
      return "INTERSECT";
    case PlanNodeKind::kUnionOfConjunctions:
      return "UNION";
    case PlanNodeKind::kProject:
      return "PROJECT";
    case PlanNodeKind::kAggregate:
      return "AGGREGATE";
    case PlanNodeKind::kJoin:
      return "JOIN";
    case PlanNodeKind::kSequence:
      return "SEQUENCE";
    case PlanNodeKind::kBackendMerge:
      return "BACKEND MERGE";
  }
  return "?";
}

std::string_view JoinStrategyName(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kNone:
      return "none";
    case JoinStrategy::kHash:
      return "hash";
    case JoinStrategy::kMerge:
      return "merge";
  }
  return "none";
}

std::string PlanNode::Describe() const {
  std::string out(PlanNodeKindName(kind));
  if (join_strategy != JoinStrategy::kNone) {
    out += " [";
    out += JoinStrategyName(join_strategy);
    out += ']';
  }
  if (replanned) out += " [replanned]";
  if (secondary) out += " [secondary]";
  if (!predicates.empty()) {
    // One predicate renders as Predicate::ToString; two as one
    // parenthesized interval, "(wage >= 50 AND wage < 52)".
    out += " (";
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (i > 0) out += " AND ";
      const abdm::Predicate& pred = predicates[i];
      out += pred.attribute;
      out += ' ';
      out += abdm::RelOpToString(pred.op);
      out += ' ';
      pred.value.AppendTo(out);
    }
    out += ')';
  } else if (!label.empty()) {
    out += ' ';
    if (label.front() == '(') {
      out += label;
    } else {
      out += '(';
      out += label;
      out += ')';
    }
  }
  if (est_source != abdm::EstimateSource::kNone) {
    out += " [";
    out += abdm::EstimateSourceToString(est_source);
    out += ']';
  }
  return out;
}

uint64_t PlanNode::SumChildren(uint64_t PlanNode::* counter) const {
  uint64_t total = 0;
  for (const PlanNode& child : children) total += child.*counter;
  return total;
}

namespace {

void AppendCount(std::string* out, uint64_t rows, uint64_t blocks) {
  *out += std::to_string(rows);
  *out += " rows, ";
  *out += std::to_string(blocks);
  *out += " blocks";
}

void AppendTree(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.Describe();
  *out += "  est: ";
  AppendCount(out, node.est_rows, node.est_blocks);
  if (node.executed) {
    *out += "  actual: ";
    AppendCount(out, node.actual_rows, node.actual_blocks);
  } else {
    *out += "  (not executed)";
  }
  *out += '\n';
  for (const PlanNode& child : node.children) {
    AppendTree(child, depth + 1, out);
  }
}

}  // namespace

std::string PlanNode::ToString() const {
  std::string out;
  AppendTree(*this, 0, &out);
  return out;
}

std::shared_ptr<const PlanNode> SequencePlans(
    std::vector<std::shared_ptr<const PlanNode>> plans) {
  std::erase(plans, nullptr);
  if (plans.empty()) return nullptr;
  if (plans.size() == 1) return std::move(plans[0]);
  PlanNode root;
  root.kind = PlanNodeKind::kSequence;
  root.label = std::to_string(plans.size()) + " requests";
  root.executed = true;
  root.children.reserve(plans.size());
  for (const auto& plan : plans) root.children.push_back(*plan);
  root.est_rows = root.SumChildren(&PlanNode::est_rows);
  root.est_blocks = root.SumChildren(&PlanNode::est_blocks);
  root.actual_rows = root.SumChildren(&PlanNode::actual_rows);
  root.actual_blocks = root.SumChildren(&PlanNode::actual_blocks);
  return std::make_shared<const PlanNode>(std::move(root));
}

}  // namespace mlds::kds
