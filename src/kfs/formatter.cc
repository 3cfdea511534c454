#include "kfs/formatter.h"

#include <algorithm>
#include <charconv>

#include "abdm/value.h"
#include "common/strings.h"

namespace mlds::kfs {

namespace {

bool IsHidden(const std::string& attribute, const network::RecordType* rt,
              const network::Schema* schema, const FormatOptions& options) {
  if (options.hide_file_keyword && attribute == abdm::kFileAttribute) {
    return true;
  }
  if (options.hide_set_keywords && rt != nullptr && schema != nullptr &&
      attribute != rt->name && rt->FindAttribute(attribute) == nullptr) {
    // Not the database key and not a declared data item: a set keyword.
    return true;
  }
  return false;
}

/// Columns in display order: database key first, declared items next,
/// then any remaining keywords in first-seen order.
std::vector<std::string> CollectColumns(
    const std::vector<abdm::Record>& records, const network::RecordType* rt,
    const network::Schema* schema, const FormatOptions& options) {
  std::vector<std::string> columns;
  auto add = [&](const std::string& name) {
    if (IsHidden(name, rt, schema, options)) return;
    if (std::find(columns.begin(), columns.end(), name) == columns.end()) {
      columns.push_back(name);
    }
  };
  if (rt != nullptr) {
    add(rt->name);
    for (const auto& attr : rt->attributes) add(attr.name);
  }
  // Records of one file share a layout; a run of them adds its names once.
  const abdm::RecordLayout* seen = nullptr;
  for (const auto& record : records) {
    if (record.layout() == seen) continue;
    seen = record.layout();
    for (size_t i = 0; i < record.size(); ++i) add(record.attribute(i));
  }
  return columns;
}

const abdm::Value* CellValue(const abdm::Record& record, size_t slot) {
  return slot == abdm::RecordLayout::kNoSlot ? nullptr : &record.value(slot);
}

/// The display text of one cell: "-" for a missing or null keyword. Only
/// numbers render, into `scratch`; strings are viewed in place.
std::string_view Cell(const abdm::Value* v, std::string& scratch) {
  if (v == nullptr || v->is_null()) return "-";
  if (v->is_string()) return v->AsString();
  scratch = v->ToString();
  return scratch;
}

}  // namespace

std::string StringChunkSource::Next(size_t max_bytes) {
  const size_t n = std::min(max_bytes, body_.size() - pos_);
  std::string chunk = body_.substr(pos_, n);
  pos_ += n;
  return chunk;
}

TableChunkSource::TableChunkSource(std::vector<abdm::Record> records,
                                   const network::RecordType* record_type,
                                   const network::Schema* schema,
                                   FormatOptions options)
    : owned_(std::move(records)),
      records_(&owned_),
      record_type_(record_type),
      schema_(schema),
      options_(std::move(options)) {
  ComputeLayout();
}

TableChunkSource::TableChunkSource(const std::vector<abdm::Record>* records,
                                   const network::RecordType* record_type,
                                   const network::Schema* schema,
                                   FormatOptions options)
    : records_(records),
      record_type_(record_type),
      schema_(schema),
      options_(std::move(options)) {
  ComputeLayout();
}

void TableChunkSource::ComputeLayout() {
  columns_ = CollectColumns(*records_, record_type_, schema_, options_);
  if (columns_.empty()) {
    // Rendered as the single literal "(no records)\n".
    total_bytes_ = 13;
    return;
  }
  // A record without keywords (null layout) has none of the columns.
  slots_.assign(columns_.size(), abdm::RecordLayout::kNoSlot);
  slots_layout_ = nullptr;
  widths_.assign(columns_.size(), 0);
  for (size_t c = 0; c < columns_.size(); ++c) widths_[c] = columns_[c].size();
  // Width pass: cells are rendered, measured, and discarded — the layout
  // costs one extra conversion pass, never a buffered copy of the table.
  std::string scratch;
  for (const auto& record : *records_) {
    const std::vector<size_t>& slots = ColumnSlots(record);
    for (size_t c = 0; c < columns_.size(); ++c) {
      const std::string_view cell = Cell(CellValue(record, slots[c]), scratch);
      widths_[c] = std::max(widths_[c], cell.size());
    }
  }
  line_bytes_ = 1;  // trailing newline
  for (size_t c = 0; c < columns_.size(); ++c) {
    line_bytes_ += widths_[c] + (c > 0 ? options_.separator.size() : 0);
  }
  // Header + rule + one line per record, all the same length.
  total_bytes_ = line_bytes_ * (records_->size() + 2);
}

bool TableChunkSource::done() const {
  if (columns_.empty()) return phase_ > 0;
  return phase_ == 2 && row_ == records_->size();
}

const std::vector<size_t>& TableChunkSource::ColumnSlots(
    const abdm::Record& record) {
  if (record.layout() != slots_layout_) {
    slots_layout_ = record.layout();
    slots_.clear();
    for (const std::string& column : columns_) {
      slots_.push_back(record.Slot(column));
    }
  }
  return slots_;
}

void TableChunkSource::AppendRowLine(const abdm::Record& record,
                                     std::string* out) {
  const std::vector<size_t>& slots = ColumnSlots(record);
  std::string scratch;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) *out += options_.separator;
    const std::string_view cell = Cell(CellValue(record, slots[c]), scratch);
    *out += cell;
    out->append(widths_[c] - cell.size(), ' ');
  }
  *out += "\n";
}

std::string TableChunkSource::Next(size_t max_bytes) {
  std::string out;
  if (columns_.empty()) {
    if (phase_ == 0) {
      out = "(no records)\n";
      phase_ = 1;
    }
    return out;
  }
  // Whole lines only, at least one per call so progress is guaranteed:
  // chunk boundaries never split a line, and concatenation reproduces
  // the buffered rendering exactly.
  while (!done() && (out.empty() || out.size() + line_bytes_ <= max_bytes)) {
    if (phase_ == 0) {
      for (size_t c = 0; c < columns_.size(); ++c) {
        if (c > 0) out += options_.separator;
        out += columns_[c];
        out.append(widths_[c] - columns_[c].size(), ' ');
      }
      out += "\n";
      phase_ = 1;
    } else if (phase_ == 1) {
      out.append(line_bytes_ - 1, '-');
      out += "\n";
      phase_ = 2;
    } else {
      AppendRowLine((*records_)[row_], &out);
      ++row_;
    }
  }
  return out;
}

std::string FormatTable(const std::vector<abdm::Record>& records,
                        const network::RecordType* record_type,
                        const network::Schema* schema,
                        const FormatOptions& options) {
  TableChunkSource source(&records, record_type, schema, options);
  std::string out;
  out.reserve(source.total_bytes());
  while (!source.done()) out += source.Next(1 << 20);
  return out;
}

std::string FormatRecord(const abdm::Record& record,
                         const FormatOptions& options) {
  std::string out;
  for (size_t i = 0; i < record.size(); ++i) {
    const std::string& attribute = record.attribute(i);
    if (options.hide_file_keyword && attribute == abdm::kFileAttribute) {
      continue;
    }
    const abdm::Value& value = record.value(i);
    out += attribute + ": " +
           (value.is_null() ? "-" : value.ToDisplayString()) + "\n";
  }
  return out;
}

namespace {

void AppendPlanCounters(const kds::PlanNode& node,
                        const PlanFormatOptions& options, std::string* out) {
  *out += "  est: ";
  *out += std::to_string(node.est_rows);
  *out += " rows, ";
  *out += std::to_string(node.est_blocks);
  *out += " blocks";
  if (!options.show_actuals) return;
  if (!node.executed) {
    *out += "  (not executed)";
    return;
  }
  *out += "  actual: ";
  *out += std::to_string(node.actual_rows);
  *out += " rows, ";
  *out += std::to_string(node.actual_blocks);
  *out += " blocks";
}

void AppendPlanTree(const kds::PlanNode& node, int depth,
                    const PlanFormatOptions& options, std::string* out) {
  for (int i = 0; i < depth; ++i) *out += options.indent;
  *out += node.Describe();
  AppendPlanCounters(node, options, out);
  *out += '\n';
  for (const kds::PlanNode& child : node.children) {
    AppendPlanTree(child, depth + 1, options, out);
  }
}

}  // namespace

std::string FormatPlan(const kds::PlanNode& plan,
                       const PlanFormatOptions& options) {
  std::string out;
  if (!options.header.empty()) {
    out += options.header;
    out += '\n';
    out.append(options.header.size(), '-');
    out += '\n';
  }
  AppendPlanTree(plan, 0, options, &out);
  return out;
}

std::string FormatHealth(const kc::KernelHealth& health) {
  std::string out = "KERNEL HEALTH\n-------------\n";
  for (const kc::BackendHealthStatus& backend : health.backends) {
    out += "backend " + std::to_string(backend.id) + ": " + backend.state;
    out += " (wal entries: " + std::to_string(backend.wal_entries);
    out += ", quarantines: " + std::to_string(backend.quarantine_count) + ")";
    if (!backend.last_fault.empty()) {
      out += " last fault: " + backend.last_fault;
    }
    out += '\n';
  }
  out += health.degraded
             ? "status: DEGRADED — results may be partial\n"
             : "status: healthy\n";
  return out;
}

std::string FormatWarnings(
    const std::vector<kds::PartialResultWarning>& warnings) {
  std::string out;
  for (const kds::PartialResultWarning& warning : warnings) {
    out += "warning: backend " + std::to_string(warning.backend_id) + " " +
           warning.state;
    if (!warning.detail.empty()) out += " — " + warning.detail;
    out += '\n';
  }
  return out;
}

std::string SerializeHealth(const kc::KernelHealth& health) {
  std::string out = "degraded ";
  out += health.degraded ? '1' : '0';
  out += '\n';
  for (const kc::BackendHealthStatus& backend : health.backends) {
    out += "backend " + std::to_string(backend.id) + " " + backend.state +
           " " + std::to_string(backend.wal_entries) + " " +
           std::to_string(backend.quarantine_count);
    if (!backend.last_fault.empty()) out += " " + backend.last_fault;
    out += '\n';
  }
  return out;
}

namespace {

/// Splits on runs of spaces. Health text is machine-generated, but it
/// arrives over the network, so parsing stays allocation-bounded and
/// exception-free like the WAL/snapshot scanners.
std::vector<std::string_view> WordsOf(std::string_view line) {
  std::vector<std::string_view> words;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    size_t end = pos;
    while (end < line.size() && line[end] != ' ') ++end;
    if (end > pos) words.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return words;
}

bool ParseUint(std::string_view text, uint64_t* value) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

Result<kc::KernelHealth> ParseHealth(std::string_view text) {
  kc::KernelHealth health;
  bool saw_degraded = false;
  for (const std::string& line : Split(text, '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string_view> words = WordsOf(line);
    if (words.empty()) continue;
    if (words[0] == "degraded") {
      if (words.size() != 2 || (words[1] != "0" && words[1] != "1")) {
        return Status::ParseError("malformed degraded line in health text");
      }
      health.degraded = words[1] == "1";
      saw_degraded = true;
      continue;
    }
    if (words[0] == "backend") {
      if (words.size() < 5) {
        return Status::ParseError("malformed backend line in health text");
      }
      kc::BackendHealthStatus backend;
      uint64_t id = 0;
      if (!ParseUint(words[1], &id) ||
          !ParseUint(words[3], &backend.wal_entries) ||
          !ParseUint(words[4], &backend.quarantine_count)) {
        return Status::ParseError("non-numeric field in health backend line");
      }
      backend.id = static_cast<int>(id);
      backend.state = std::string(words[2]);
      for (size_t i = 5; i < words.size(); ++i) {
        if (!backend.last_fault.empty()) backend.last_fault += ' ';
        backend.last_fault += std::string(words[i]);
      }
      health.backends.push_back(std::move(backend));
      continue;
    }
    return Status::ParseError("unknown line '" + std::string(words[0]) +
                              "' in health text");
  }
  if (!saw_degraded) {
    return Status::ParseError("health text carries no degraded line");
  }
  return health;
}

std::string FormatDmlResult(const kms::DmlResult& result) {
  std::string out;
  if (!result.records.empty()) out += FormatTable(result.records);
  if (!result.info.empty()) out += result.info + "\n";
  if (result.plan != nullptr) {
    PlanFormatOptions plan_options;
    plan_options.header = "ABDL REQUEST PLAN";
    out += FormatPlan(*result.plan, plan_options);
  }
  return out;
}

namespace {

// A machine outcome's table when it has rows, else its info line.
std::string TableOrInfo(const std::vector<abdm::Record>& rows,
                        const std::string& info) {
  if (!rows.empty()) return FormatTable(rows);
  return info.empty() ? "" : info + "\n";
}

}  // namespace

std::string FormatSqlOutcome(const kms::SqlMachine::Outcome& outcome) {
  std::string out = TableOrInfo(outcome.rows, outcome.info);
  if (outcome.plan != nullptr) out += FormatPlan(*outcome.plan);
  return out;
}

std::string FormatDaplexOutcome(const kms::DaplexMachine::Outcome& outcome) {
  return TableOrInfo(outcome.records, outcome.info);
}

std::string FormatDliOutcome(const kms::DliMachine::Outcome& outcome) {
  return TableOrInfo(outcome.segments, outcome.info);
}

}  // namespace mlds::kfs
