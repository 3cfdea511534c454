#include "mlds/language_interface.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "abdl/parser.h"
#include "abdl/prepared.h"
#include "common/strings.h"

namespace mlds {

namespace {

bool HasExplainPrefix(std::string_view text) {
  if (!StartsWithIgnoreCase(text, "EXPLAIN")) return false;
  return text.size() == 7 || text[7] == ' ' || text[7] == '\t';
}

// Per-machine glue: the kfs function that renders each outcome.
std::string Render(const kms::DmlResult& r) { return kfs::FormatDmlResult(r); }
std::string Render(const kms::SqlMachine::Outcome& o) {
  return kfs::FormatSqlOutcome(o);
}
std::string Render(const kms::DaplexMachine::Outcome& o) {
  return kfs::FormatDaplexOutcome(o);
}
std::string Render(const kms::DliMachine::Outcome& o) {
  return kfs::FormatDliOutcome(o);
}

// Partial-result warnings for a degraded kernel: one entry per backend
// that is not currently healthy. Language-machine responses carry no
// per-request warnings (the controller's merge already folded them), so
// the visible set derives from the kernel's health.
std::vector<kds::PartialResultWarning> DegradedWarnings(
    const kc::KernelExecutor& executor) {
  std::vector<kds::PartialResultWarning> warnings;
  const kc::KernelHealth health = executor.Health();
  if (!health.degraded) return warnings;
  for (const kc::BackendHealthStatus& backend : health.backends) {
    if (backend.state == "healthy") continue;
    warnings.push_back(kds::PartialResultWarning{
        backend.id, backend.state, backend.last_fault});
  }
  return warnings;
}

}  // namespace

Result<Language> ParseLanguage(std::string_view name) {
  if (EqualsIgnoreCase(name, "codasyl") || EqualsIgnoreCase(name, "dml")) {
    return Language::kCodasyl;
  }
  if (EqualsIgnoreCase(name, "daplex")) return Language::kDaplex;
  if (EqualsIgnoreCase(name, "sql")) return Language::kSql;
  if (EqualsIgnoreCase(name, "dli")) return Language::kDli;
  if (EqualsIgnoreCase(name, "abdl")) return Language::kAbdl;
  return Status::InvalidArgument(
      "unknown language '" + std::string(name) +
      "' (expected codasyl, daplex, sql, dli, or abdl)");
}

std::string_view LanguageName(Language language) {
  switch (language) {
    case Language::kNone: return "none";
    case Language::kCodasyl: return "codasyl";
    case Language::kDaplex: return "daplex";
    case Language::kSql: return "sql";
    case Language::kDli: return "dli";
    case Language::kAbdl: return "abdl";
  }
  return "none";
}

std::string Rendered::TakeBody() {
  if (stream != nullptr) {
    body.reserve(stream->total_bytes());
    while (!stream->done()) body += stream->Next(size_t{1} << 20);
    stream.reset();
  }
  return std::move(body);
}

template <typename Machine>
Result<Rendered> MachineInterface<Machine>::Execute(std::string_view text,
                                                     bool explain) {
  if (explain && !no_explain_.empty()) {
    return Status::Unimplemented(no_explain_);
  }
  std::string prefixed;
  if (explain && !HasExplainPrefix(text)) {
    prefixed = "EXPLAIN " + std::string(text);
    text = prefixed;
  }
  // Daplex's ExecuteText runs FOR EACH only; ExecuteStatement runs any
  // Daplex statement.
  auto outcome = [&] {
    if constexpr (std::is_same_v<Machine, kms::DaplexMachine>) {
      return machine_->ExecuteStatement(text);
    } else {
      return machine_->ExecuteText(text);
    }
  }();
  MLDS_RETURN_IF_ERROR(outcome.status());
  return Rendered{.body = Render(*outcome),
                  .warnings = DegradedWarnings(*executor_)};
}

template <typename Machine>
Result<Rendered> MachineInterface<Machine>::ExecuteBatch(
    std::string_view template_text,
    const std::vector<std::vector<abdm::Value>>& rows) {
  MLDS_ASSIGN_OR_RETURN(auto outcome,
                        machine_->ExecuteBatch(template_text, rows));
  return Rendered{.body = Render(outcome),
                  .warnings = DegradedWarnings(*executor_)};
}

template class MachineInterface<kms::DmlMachine>;
template class MachineInterface<kms::DaplexMachine>;
template class MachineInterface<kms::SqlMachine>;
template class MachineInterface<kms::DliMachine>;

Result<Rendered> AbdlInterface::Execute(std::string_view text, bool explain) {
  if (EqualsIgnoreCase(text, "BEGIN") || EqualsIgnoreCase(text, "COMMIT") ||
      EqualsIgnoreCase(text, "ABORT")) {
    return TransactionControl(text);
  }
  if (explain) {
    MLDS_ASSIGN_OR_RETURN(std::string plan, Explain(*executor_, text));
    return Rendered{.body = std::move(plan),
                    .warnings = DegradedWarnings(*executor_)};
  }

  MLDS_ASSIGN_OR_RETURN(abdl::Request request, abdl::ParseRequest(text));
  if (in_transaction_) {
    pending_.push_back(std::move(request));
    return Rendered{.body = "buffered (" + std::to_string(pending_.size()) +
                            " in transaction)\n"};
  }
  MLDS_ASSIGN_OR_RETURN(kds::Response response, executor_->Execute(request));
  Rendered rendered;
  rendered.warnings = response.warnings.empty() ? DegradedWarnings(*executor_)
                                                : std::move(response.warnings);
  if (response.records.empty()) {
    rendered.body = std::to_string(response.affected) + " records affected\n";
  } else {
    // The record set moves into a TableChunkSource, which computes the
    // exact rendered size up front and renders rows on demand.
    rendered.stream =
        std::make_unique<kfs::TableChunkSource>(std::move(response.records));
  }
  return rendered;
}

Result<Rendered> AbdlInterface::TransactionControl(std::string_view command) {
  if (EqualsIgnoreCase(command, "BEGIN")) {
    if (in_transaction_) {
      return Status::InvalidArgument("transaction already in flight");
    }
    in_transaction_ = true;
    return Rendered{.body = "transaction started\n"};
  }
  if (!in_transaction_) {
    return Status::InvalidArgument("no transaction in flight");
  }
  abdl::Transaction txn = std::exchange(pending_, {});
  in_transaction_ = false;
  if (EqualsIgnoreCase(command, "ABORT")) {
    return Rendered{.body = "transaction aborted (" +
                            std::to_string(txn.size()) + " buffered)\n"};
  }
  MLDS_ASSIGN_OR_RETURN(kds::Response response,
                        executor_->ExecuteTransaction(txn));
  return Rendered{.body = "transaction committed: " +
                          std::to_string(txn.size()) + " requests, " +
                          std::to_string(response.affected) +
                          " records affected\n",
                  .warnings = std::move(response.warnings)};
}

Result<Rendered> AbdlInterface::ExecuteBatch(
    std::string_view template_text,
    const std::vector<std::vector<abdm::Value>>& rows) {
  if (rows.empty()) {
    return Status::InvalidArgument("prepared INSERT batch carries no rows");
  }
  MLDS_ASSIGN_OR_RETURN(abdl::PreparedRequest prepared,
                        abdl::ParsePreparedInsert(template_text));
  const abdl::BatchLimits limits;
  const size_t chunk =
      abdl::EffectiveBatchSize(limits, prepared.params_per_row());
  size_t affected = 0;
  for (size_t begin = 0; begin < rows.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, rows.size());
    MLDS_ASSIGN_OR_RETURN(abdl::InsertRequest insert,
                          prepared.Bind(rows, begin, end));
    if (in_transaction_) {
      affected += insert.records.size();
      pending_.push_back(std::move(insert));
      continue;
    }
    MLDS_ASSIGN_OR_RETURN(
        kds::Response response,
        executor_->Execute(abdl::Request(std::move(insert))));
    affected += response.affected;
  }
  return Rendered{
      .body = in_transaction_
                  ? "buffered " + std::to_string(affected) + " records (" +
                        std::to_string(pending_.size()) + " in transaction)\n"
                  : std::to_string(affected) + " records affected\n",
      .warnings = DegradedWarnings(*executor_)};
}

Result<std::string> AbdlInterface::Explain(kc::KernelExecutor& executor,
                                           std::string_view request_text) {
  MLDS_ASSIGN_OR_RETURN(abdl::Request request,
                        abdl::ParseRequest(request_text));
  MLDS_ASSIGN_OR_RETURN(kds::Response response,
                        executor.ExecuteExplain(std::move(request)));
  if (response.plan == nullptr) {
    return Status::InvalidArgument(
        "request produced no plan (INSERT chooses no access path)");
  }
  kfs::PlanFormatOptions options;
  options.header = "ABDL PLAN";
  return kfs::FormatPlan(*response.plan, options);
}

}  // namespace mlds
