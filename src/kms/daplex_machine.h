#ifndef MLDS_KMS_DAPLEX_MACHINE_H_
#define MLDS_KMS_DAPLEX_MACHINE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "abdl/prepared.h"
#include "abdl/request.h"
#include "common/result.h"
#include "daplex/query.h"
#include "daplex/schema.h"
#include "kc/executor.h"
#include "kms/insert_path.h"
#include "kms/request_trace.h"
#include "kms/translation_cache.h"
#include "network/schema.h"
#include "transform/fun_to_net.h"

namespace mlds::kms {

/// The functional language interface's query processor: translates Daplex
/// FOR EACH queries into ABDL requests over the AB(functional) database —
/// the same kernel files the CODASYL-DML interface manipulates, which is
/// what makes MLDS multi-lingual: one database, several languages.
///
/// Supported semantics:
///  - iteration over an entity type or subtype;
///  - SUCH THAT comparisons on scalar functions, on single-valued
///    entity functions (compared against the target's database key), and
///    on *inherited* functions (value inheritance over ISA);
///  - PRINT of scalar, entity-valued, inherited, scalar multi-valued
///    (all values of the duplicated-record representation, joined), and
///    many-to-many functions (the related entities' keys, via the link
///    file);
///  - aggregates (COUNT/AVG/MIN/MAX/SUM) over the selected entities.
class DaplexMachine {
 public:
  /// All pointees must outlive the machine.
  DaplexMachine(const daplex::FunctionalSchema* functional,
                const network::Schema* schema,
                const transform::FunNetMapping* mapping,
                kc::KernelExecutor* executor);

  DaplexMachine(const DaplexMachine&) = delete;
  DaplexMachine& operator=(const DaplexMachine&) = delete;

  /// Outcome of a Daplex DML statement (CREATE / DESTROY / FOR EACH).
  struct Outcome {
    std::vector<abdm::Record> records;  ///< FOR EACH results.
    size_t affected = 0;                ///< entities created / destroyed.
    std::string info;
  };

  /// Executes one FOR EACH query; returns one record per selected entity
  /// (or a single record of aggregates).
  Result<std::vector<abdm::Record>> Execute(const daplex::ForEachQuery& query);

  /// CREATE <type> (fn = value, ...): creates an entity, enforcing
  /// referential integrity for entity-valued assignments, the uniqueness
  /// constraints, and (for subtypes) supertype existence plus the overlap
  /// table.
  Result<Outcome> Create(const daplex::CreateStatement& statement);

  /// UPDATE <type> [SUCH THAT ...] (fn = value, ...): assigns new values
  /// to scalar and single-valued functions of the selected entities
  /// (entity-valued assignments are reference-checked).
  Result<Outcome> Update(const daplex::UpdateStatement& statement);

  /// DESTROY <type> [SUCH THAT ...]: removes the selected entities and
  /// their entire subtype hierarchies; aborts, deleting nothing, when any
  /// affected entity is referenced by a database function (Ch. VI.H).
  Result<Outcome> Destroy(const daplex::DestroyStatement& statement);

  /// Parses and executes query text (FOR EACH only).
  Result<std::vector<abdm::Record>> ExecuteText(std::string_view text);

  /// Parses and executes any Daplex statement. The parse caches under
  /// the "daplex-stmt" domain, shared with ExecuteBatch's templates.
  Result<Outcome> ExecuteStatement(std::string_view text);

  /// Executes a parameterized CREATE template — `CREATE type (fn = ?,
  /// ...)` — once per parameter row, chunked into kernel INSERTs of
  /// at most EffectiveBatchSize(limits) records each. Literal assignments
  /// in the template apply to every row; each `?` binds one row value in
  /// assignment order.
  Result<Outcome> ExecuteBatch(
      std::string_view text, const std::vector<std::vector<abdm::Value>>& rows,
      const abdl::BatchLimits& limits = {});

  /// Attaches the shared compiled-translation cache. Daplex queries
  /// resolve against live entities (ISA chains, duplicated records), so
  /// parsed query ASTs cache; translation re-runs per execution.
  void set_translation_cache(TranslationCache* cache) { cache_ = cache; }

  /// ABDL requests issued by the most recent query, in issue order.
  const std::vector<std::string>& trace() const { return trace_.Render(); }

 private:
  /// Parses any Daplex statement through the translation cache.
  Result<std::shared_ptr<const daplex::DaplexStatement>> ParseStatement(
      std::string_view text);

  /// The merged view of one entity across its duplicated kernel records
  /// and its supertype records: function name -> the set of values seen.
  /// Database keys appear under the owning type's name, so the type name
  /// acts as a key pseudo-function ("faculty = 'faculty_1'").
  struct EntityView {
    std::string dbkey;
    std::map<std::string, std::vector<abdm::Value>> values;

    void Absorb(const abdm::Record& record);
    const std::vector<abdm::Value>* Find(std::string_view function) const;
  };

  /// Where a function's values live relative to the queried type.
  /// `function == nullptr && is_key` marks the key pseudo-function of
  /// `declared_on` (the type's own name used in a query).
  struct FunctionSite {
    const daplex::Function* function = nullptr;
    std::string declared_on;  ///< type in the ISA chain declaring it.
    bool is_key = false;
  };

  Result<kds::Response> Issue(abdl::Request request);

  /// The queried type's ISA ancestor chain (nearest first, deduplicated).
  std::vector<std::string> AncestorChain(std::string_view type) const;

  /// Finds `function` on `type` or any ancestor.
  Result<FunctionSite> Resolve(std::string_view type,
                               std::string_view function) const;

  /// Merges supertype records into the views, walking every ISA edge
  /// above `type` and fetching each supertype by the keys the views name.
  Status AbsorbAncestors(std::string_view type,
                         std::map<std::string, EntityView>* views);

  /// Fetches the values of a many-to-many function for every view, via
  /// the link file.
  Status AbsorbManyToMany(const daplex::Function& fn,
                          std::map<std::string, EntityView>* views);

  /// CREATE of one literal statement (no `limits`, one empty row) or of
  /// a parameter batch, through the insert path.
  Result<Outcome> CreateRows(const daplex::CreateStatement& statement,
                             const std::vector<std::vector<abdm::Value>>& rows,
                             const std::optional<abdl::BatchLimits>& limits);

  /// The record-construction half of CREATE: validates every assignment
  /// (supertype keys, referential integrity, function class), enforces
  /// the overlap table, and fills the member-side set keywords; the
  /// kernel assigns the key and checks uniqueness. `row` supplies the
  /// values bound to the statement's `?` markers, in assignment order.
  Result<abdm::Record> BuildCreateRecord(
      const daplex::CreateStatement& statement,
      const std::vector<abdm::Value>& row);

  /// True when a record of `file` with key `dbkey` exists.
  Result<bool> EntityExists(std::string_view file, std::string_view dbkey);

  /// The (file, set) pairs whose records can name an entity of `type`
  /// through a Daplex function: the member files of its owned non-ISA
  /// sets, and the owner file of each owner-side one-to-many set it is a
  /// member of.
  std::vector<std::pair<std::string, std::string>> ReferencingSets(
      std::string_view type) const;

  /// Aborts when an entity of `type` among `keys` is referenced by a
  /// Daplex function: one key-set RETRIEVE per ReferencingSets pair.
  Status CheckReferences(std::string_view type,
                         const std::set<std::string>& keys);

  /// Destroys the entities `keys` of `type` and their whole subtype
  /// hierarchies set-at-a-time: every affected entity passes
  /// CheckReferences, then one transaction of key-set DELETEs runs.
  /// Returns the number of kernel records deleted.
  Result<size_t> DestroyHierarchy(const std::string& type,
                                   std::set<std::string> keys);

  const daplex::FunctionalSchema* functional_;
  const network::Schema* schema_;
  const transform::FunNetMapping* mapping_;
  kc::KernelExecutor* executor_;
  TranslationCache* cache_ = nullptr;
  RequestTrace trace_;
  InsertPath inserts_;
};

}  // namespace mlds::kms

#endif  // MLDS_KMS_DAPLEX_MACHINE_H_
