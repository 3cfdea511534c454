#ifndef MLDS_KMS_DML_MACHINE_H_
#define MLDS_KMS_DML_MACHINE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abdl/prepared.h"
#include "abdl/request.h"
#include "codasyl/ast.h"
#include "kds/plan.h"
#include "codasyl/cit.h"
#include "codasyl/uwa.h"
#include "common/result.h"
#include "kc/executor.h"
#include "kms/insert_path.h"
#include "kms/request_trace.h"
#include "kms/translation_cache.h"
#include "network/schema.h"
#include "transform/fun_to_net.h"

namespace mlds::kms {

/// Outcome of executing one CODASYL-DML statement.
struct DmlResult {
  /// Records delivered to the user (GET) or made current (FIND family).
  std::vector<abdm::Record> records;
  /// Number of ABDL requests the translation generated — the
  /// one-to-many DML-to-ABDL correspondence the thesis discusses (III.A).
  size_t abdl_requests = 0;
  /// Human-readable note ("2 records connected", ...).
  std::string info;
  /// For EXPLAIN statements: the annotated physical plans of the issued
  /// ABDL requests — one request's plan directly, several nested under a
  /// SEQUENCE root in issue order. Null when the translation issued no
  /// plannable request (e.g. a FIND resolved purely from currency).
  std::shared_ptr<const kds::PlanNode> plan;
};

/// Per-session translation statistics: how many statements of each kind
/// ran and how many ABDL requests of each operation they generated — the
/// session-level view of the one-to-many correspondence (Ch. III.A).
struct SessionStats {
  std::map<std::string, size_t> statements;     ///< by DML statement kind.
  std::map<std::string, size_t> abdl_requests;  ///< by ABDL operation.
  size_t total_statements = 0;
  size_t total_requests = 0;

  std::string ToString() const;
};

/// The Kernel Mapping Subsystem's CODASYL-DML translator fused with the
/// Kernel Controller's execution state. It parses nothing itself — it
/// receives statement ASTs — and implements the Chapter VI translation
/// algorithms, issuing ABDL requests through a KernelExecutor and
/// maintaining the Currency Indicator Table, the User Work Area, and the
/// Request Buffers.
///
/// Two target modes exist, as in the thesis:
///  - native network databases (`mapping == nullptr`): the Emdi
///    translation — every set relationship lives in member-side keywords;
///  - transformed functional databases (`mapping != nullptr`): the
///    thesis's extension — set provenance (ISA vs Daplex function,
///    owner-side vs member-side) alters the CONNECT / DISCONNECT / STORE /
///    ERASE translations and enforces the Daplex-imposed constraints
///    (automatic-insertion sets, overlap table, reference checks).
class DmlMachine {
 public:
  /// `schema`, `mapping` (may be null), and `executor` must outlive the
  /// machine.
  DmlMachine(const network::Schema* schema,
             const transform::FunNetMapping* mapping,
             kc::KernelExecutor* executor);

  DmlMachine(const DmlMachine&) = delete;
  DmlMachine& operator=(const DmlMachine&) = delete;

  /// Executes one statement, updating currency and buffers.
  Result<DmlResult> Execute(const codasyl::Statement& statement);

  /// Executes one statement with its EXPLAIN prefix honored: in explain
  /// mode every issued ABDL request carries the explain flag and the
  /// result's `plan` holds the collected annotated plans.
  Result<DmlResult> Execute(const codasyl::ParsedStatement& statement);

  /// Parses and executes one statement of DML text (EXPLAIN allowed).
  Result<DmlResult> ExecuteText(std::string_view text);

  /// Parses and executes a whole program (newline/';'-separated),
  /// stopping at the first error.
  Result<std::vector<DmlResult>> RunProgram(std::string_view text);

  /// Executes a parameterized STORE template — `STORE rec (item = ?,
  /// ...)` — once per parameter row, chunked into kernel INSERTs of
  /// at most EffectiveBatchSize(limits) records each. Literal assignments
  /// in the template apply to every row; each `?` binds one row value in
  /// assignment order. Currencies update per stored record, so the batch
  /// leaves the last row current.
  Result<DmlResult> ExecuteBatch(
      std::string_view text, const std::vector<std::vector<abdm::Value>>& rows,
      const abdl::BatchLimits& limits = {});

  /// Attaches the shared compiled-translation cache. DML translation is
  /// stateful (currency, UWA), so only parsed statement ASTs cache — the
  /// Chapter VI algorithms still run against live session state.
  void set_translation_cache(TranslationCache* cache) { cache_ = cache; }

  const codasyl::UserWorkArea& uwa() const { return uwa_; }
  const codasyl::CurrencyIndicatorTable& cit() const { return cit_; }

  /// ABDL requests issued by the most recent statement, in the thesis's
  /// notation.
  const std::vector<std::string>& trace() const { return trace_.Render(); }

  /// Cumulative session statistics.
  const SessionStats& statistics() const { return stats_; }

  const network::Schema& schema() const { return *schema_; }
  bool IsFunctionalTarget() const { return mapping_ != nullptr; }

 private:
  /// The parsed statement, through the shared translation cache.
  Result<std::shared_ptr<const codasyl::ParsedStatement>> Compile(
      std::string_view text);

  // --- Statement handlers (Ch. VI sections B through H) ---
  Result<DmlResult> Move(const codasyl::MoveStatement& s);
  Result<DmlResult> FindAny(const codasyl::FindAnyStatement& s);
  Result<DmlResult> FindCurrent(const codasyl::FindCurrentStatement& s);
  Result<DmlResult> FindDuplicate(const codasyl::FindDuplicateStatement& s);
  Result<DmlResult> FindPositional(const codasyl::FindPositionalStatement& s);
  Result<DmlResult> FindOwner(const codasyl::FindOwnerStatement& s);
  Result<DmlResult> FindWithinCurrent(
      const codasyl::FindWithinCurrentStatement& s);
  Result<DmlResult> Get(const codasyl::GetStatement& s);
  Result<DmlResult> Store(const codasyl::StoreStatement& s);
  Result<DmlResult> Connect(const codasyl::ConnectStatement& s);
  Result<DmlResult> Disconnect(const codasyl::DisconnectStatement& s);
  Result<DmlResult> Reconnect(const codasyl::ReconnectStatement& s);
  Result<DmlResult> Modify(const codasyl::ModifyStatement& s);
  Result<DmlResult> Erase(const codasyl::EraseStatement& s);
  Result<DmlResult> Walk(const codasyl::WalkStatement& s);

  // --- Shared machinery ---

  /// Executes one ABDL request through the kernel, appending it to the
  /// statement's trace.
  Result<kds::Response> Issue(abdl::Request request);

  /// Looks up a set, a record type, and checks set membership.
  Result<const network::SetType*> RequireSet(std::string_view set) const;
  Result<const network::RecordType*> RequireRecord(
      std::string_view record) const;
  Status RequireMemberOf(const network::SetType& set,
                         std::string_view record) const;

  /// The provenance of `set` (kSystem when mapping is absent and the set
  /// is SYSTEM-owned; member-side treatment otherwise).
  const transform::SetInfo* SetInfoOf(std::string_view set) const;
  bool IsOwnerSideOneToMany(std::string_view set) const;

  /// Fetches the member records of the current occurrence of `set` whose
  /// member type is `record`, in database-key order. Issues 1 ABDL request
  /// for member-side sets, 2 for owner-side one-to-many sets.
  Result<std::vector<abdm::Record>> FetchSetMembers(
      const network::SetType& set, std::string_view record);

  /// Retrieves all AB records carrying `dbkey` in `record`'s key attribute.
  Result<std::vector<abdm::Record>> FetchByKey(std::string_view record,
                                               std::string_view dbkey);

  /// Makes `record` current: run-unit, record-type currency, and set
  /// currencies for every set the record participates in.
  void UpdateCurrencies(std::string_view record_type,
                        const abdm::Record& record);

  /// The run-unit checked against an expected record type.
  Result<const codasyl::RunUnitCurrency*> RequireRunUnit(
      std::string_view record_type) const;

  /// The owner database key of the current occurrence of `set`.
  Result<std::string> RequireSetOwner(std::string_view set) const;

  /// One record built by the STORE translation, ready to insert: the AB
  /// record (its database key NULL until the kernel assigns it) and the
  /// (set, owner) pairs it connects to.
  struct BuiltStore {
    abdm::Record record;
    std::vector<std::pair<std::string, std::string>> connected;
  };

  /// The record-construction half of STORE (Ch. VI.G): fills items from
  /// the UWA and resolves set membership; the kernel assigns the key and
  /// checks duplicates. Shared by Store and ExecuteBatch.
  Result<BuiltStore> BuildStoreRecord(const network::RecordType& rt);

  /// STORE of one literal statement (no `limits`, one empty row) or of a
  /// parameter batch, through the insert path. Currencies update per
  /// stored record once its chunk inserts.
  Result<DmlResult> StoreRows(const codasyl::StoreStatement& s,
                              const std::vector<std::vector<abdm::Value>>& rows,
                              const std::optional<abdl::BatchLimits>& limits);

  /// Post-insert currency maintenance for one stored record, which
  /// the kernel gave `dbkey`.
  void CommitStoreCurrencies(std::string_view record_type, BuiltStore& built,
                             const std::string& dbkey);

  const network::Schema* schema_;
  const transform::FunNetMapping* mapping_;
  kc::KernelExecutor* executor_;
  TranslationCache* cache_ = nullptr;

  codasyl::UserWorkArea uwa_;
  codasyl::CurrencyIndicatorTable cit_;
  codasyl::RequestBuffer rb_;
  RequestTrace trace_;
  SessionStats stats_;
  InsertPath inserts_;

  /// Explain mode for the statement currently executing: Issue() flags
  /// every outgoing request and collects the plans its responses carry.
  bool explain_ = false;
  std::vector<std::shared_ptr<const kds::PlanNode>> explain_plans_;
};

}  // namespace mlds::kms

#endif  // MLDS_KMS_DML_MACHINE_H_
