#ifndef MLDS_MLDS_LANGUAGE_INTERFACE_H_
#define MLDS_MLDS_LANGUAGE_INTERFACE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "abdl/request.h"
#include "abdm/value.h"
#include "common/result.h"
#include "kc/executor.h"
#include "kds/engine.h"
#include "kfs/formatter.h"
#include "kms/daplex_machine.h"
#include "kms/dli_machine.h"
#include "kms/dml_machine.h"
#include "kms/sql_machine.h"

namespace mlds {

/// The language domain a session is bound to.
enum class Language { kNone, kCodasyl, kDaplex, kSql, kDli, kAbdl };

/// Parses a language name: codasyl (alias dml) | daplex | sql | dli |
/// abdl, case-insensitively.
Result<Language> ParseLanguage(std::string_view name);
std::string_view LanguageName(Language language);

/// One statement's (or batch's) result, rendered by KFS into the exact
/// bytes a user of that language sees.
struct Rendered {
  /// The rendered bytes, unless `stream` produces them instead.
  std::string body{};
  /// Set (and `body` left empty) when the result renders incrementally —
  /// an ABDL RETRIEVE's table. Draining it yields exactly the body.
  std::unique_ptr<kfs::ChunkSource> stream{};
  /// Partial-result warnings from a degraded kernel.
  std::vector<kds::PartialResultWarning> warnings{};

  /// The whole body, draining `stream` when it is set.
  std::string TakeBody();
};

/// One language interface of the LIL: every statement runs the paper's
/// pipeline — LIL parse, KMS translate (through the shared translation
/// cache), KC execute, KFS render — for one user language over one
/// database. `MldsSystem::Open` builds one per session; the wire server
/// and in-process callers drive all five languages through this one API.
///
/// Holds the session-scoped state the thesis assigns to a run unit
/// (CODASYL currency and UWA, DL/I position, the SQL cursor, an ABDL
/// transaction buffer), so it is not thread-safe: one session, one
/// thread at a time.
class LanguageInterface {
 public:
  LanguageInterface() = default;
  LanguageInterface(const LanguageInterface&) = delete;
  LanguageInterface& operator=(const LanguageInterface&) = delete;
  virtual ~LanguageInterface() = default;

  /// Executes one statement. `explain` requests the annotated plan: SQL
  /// and CODASYL-DML add an EXPLAIN prefix when it is missing, ABDL uses
  /// the kernel's execute-and-explain, Daplex and DL/I answer
  /// kUnimplemented.
  virtual Result<Rendered> Execute(std::string_view text, bool explain) = 0;

  /// Runs a parameterized template (`?` markers) once per row, chunked
  /// into kernel INSERTs.
  virtual Result<Rendered> ExecuteBatch(
      std::string_view template_text,
      const std::vector<std::vector<abdm::Value>>& rows) = 0;

  /// The KMS machine behind this interface when it is a `Machine`, else
  /// nullptr — for in-process callers that need typed outcomes or machine
  /// state (currency, trace, statistics).
  template <typename Machine>
  Machine* machine();
};

/// The interface over one of the four KMS machines (DmlMachine,
/// DaplexMachine, SqlMachine, DliMachine), rendering with its kfs
/// Format* function. Instantiated for exactly those four.
template <typename Machine>
class MachineInterface final : public LanguageInterface {
 public:
  /// `executor` (the machine's kernel) must outlive the interface. A
  /// language without an EXPLAIN form passes the kUnimplemented message
  /// explain requests get; the others take an EXPLAIN prefix.
  MachineInterface(std::unique_ptr<Machine> machine,
                   const kc::KernelExecutor* executor,
                   std::string no_explain = "")
      : machine_(std::move(machine)),
        executor_(executor),
        no_explain_(std::move(no_explain)) {}

  Result<Rendered> Execute(std::string_view text, bool explain) override;
  Result<Rendered> ExecuteBatch(
      std::string_view template_text,
      const std::vector<std::vector<abdm::Value>>& rows) override;

  Machine& machine() { return *machine_; }

 private:
  std::unique_ptr<Machine> machine_;
  const kc::KernelExecutor* executor_;
  const std::string no_explain_;
};

/// The kernel's own language, ABDL, passed straight to KC: RETRIEVE
/// tables render incrementally, and BEGIN / COMMIT / ABORT bracket a
/// transaction whose requests buffer in arrival order and apply at
/// COMMIT as one kc::KernelExecutor::ExecuteTransaction.
class AbdlInterface final : public LanguageInterface {
 public:
  /// `executor` must outlive the interface.
  explicit AbdlInterface(kc::KernelExecutor* executor) : executor_(executor) {}

  Result<Rendered> Execute(std::string_view text, bool explain) override;

  /// The template is a parameterized INSERT (`<attr, ?>`); inside a
  /// transaction the bound batches buffer like any other request.
  Result<Rendered> ExecuteBatch(
      std::string_view template_text,
      const std::vector<std::vector<abdm::Value>>& rows) override;

  /// Parses one request, executes it in explain mode, and renders its
  /// annotated plan under an "ABDL PLAN" header. INSERT is rejected: it
  /// chooses no access path, so there is no plan to show.
  static Result<std::string> Explain(kc::KernelExecutor& executor,
                                     std::string_view request_text);

 private:
  /// BEGIN / COMMIT / ABORT.
  Result<Rendered> TransactionControl(std::string_view command);

  kc::KernelExecutor* executor_;
  bool in_transaction_ = false;
  abdl::Transaction pending_;
};

template <typename Machine>
Machine* LanguageInterface::machine() {
  auto* typed = dynamic_cast<MachineInterface<Machine>*>(this);
  return typed == nullptr ? nullptr : &typed->machine();
}

}  // namespace mlds

#endif  // MLDS_MLDS_LANGUAGE_INTERFACE_H_
