#ifndef MLDS_MLDS_MLDS_H_
#define MLDS_MLDS_MLDS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "daplex/schema.h"
#include "kc/executor.h"
#include "kds/engine.h"
#include "hierarchical/schema.h"
#include "kms/translation_cache.h"
#include "mbds/controller.h"
#include "mlds/language_interface.h"
#include "network/schema.h"
#include "relational/schema.h"
#include "transform/fun_to_net.h"

namespace mlds {

/// The Multi-Lingual Database System facade: the Language Interface Layer
/// (LIL) plus the database registry, wired over a kernel database system
/// that is either a single KDS engine or the multi-backend MBDS.
///
/// Four user data models load through their DDLs (network, functional,
/// relational, hierarchical), and `Open` binds a LanguageInterface over
/// one of them in any of five languages (CODASYL-DML, Daplex, SQL, DL/I,
/// or the kernel's own ABDL). Usage mirrors the thesis's workflow (Ch. V):
///
///   MldsSystem mlds;
///   mlds.LoadFunctionalDatabase(daplex_ddl);                    // define
///   auto session = mlds.Open(Language::kCodasyl, "university"); // transform
///   (*session)->Execute("MOVE 'CS' TO major IN student", false);
///   (*session)->Execute("FIND ANY student USING major IN student", false);
///
/// CODASYL-DML searches the existing network schemas first; when the name
/// belongs to a functional schema instead, the schema transformer's output
/// (functional -> network, Ch. V) is what the session operates on, with
/// the functional-aware KMS translation — the thesis's cross-model access.
class MldsSystem {
 public:
  struct Options {
    /// Backends of the multi-backend kernel (MBDS); 0 runs a single KDS
    /// engine instead.
    int backends = 0;
    /// The engine (every backend's, under MBDS); `engine.disk` prices its
    /// dedicated disk.
    kds::EngineOptions engine;
  };

  MldsSystem();
  explicit MldsSystem(Options options);
  ~MldsSystem();

  MldsSystem(const MldsSystem&) = delete;
  MldsSystem& operator=(const MldsSystem&) = delete;

  /// Defines a new network database from CODASYL DDL text; its kernel
  /// files (AB(network)) are created immediately.
  Status LoadNetworkDatabase(std::string_view ddl);

  /// Defines a new relational database from SQL CREATE TABLE DDL; its
  /// kernel files (AB(relational)) are created immediately.
  Status LoadRelationalDatabase(std::string_view ddl);

  /// Defines a new hierarchical database from segment DDL; its kernel
  /// files (AB(hierarchical)) are created immediately.
  Status LoadHierarchicalDatabase(std::string_view ddl);

  /// Defines a new functional database from Daplex DDL text. The
  /// functional -> network transformation runs eagerly (the direct
  /// language interface's one-step schema transformation, Ch. III.B.2)
  /// and the AB(functional) kernel files are created.
  Status LoadFunctionalDatabase(std::string_view ddl);

  /// Opens a session in `language` over the named database: the one
  /// factory behind the wire server's USE and the typed Open*Session
  /// calls. CODASYL-DML searches the network schema list first, then the
  /// functional one, running over the transformed schema (Ch. V); Daplex
  /// needs a functional database, SQL a relational one, DL/I a
  /// hierarchical one; ABDL binds the kernel itself and ignores the name.
  /// The caller owns the result, which must not outlive the system. Reads
  /// the database lists only, so sessions may open concurrently.
  Result<std::unique_ptr<LanguageInterface>> Open(Language language,
                                                  std::string_view db_name);

  /// Typed sessions for in-process callers that need the machines' own
  /// outcomes and state. Each opens through Open; the returned machine is
  /// owned by the system and remains valid until the system is destroyed.
  Result<kms::DmlMachine*> OpenCodasylSession(std::string_view db_name);
  Result<kms::DaplexMachine*> OpenDaplexSession(std::string_view db_name);
  Result<kms::SqlMachine*> OpenSqlSession(std::string_view db_name);
  Result<kms::DliMachine*> OpenDliSession(std::string_view db_name);

  /// Names of every loaded database, in load order per model: network,
  /// functional, relational, then hierarchical. Names are unique across
  /// all four models.
  std::vector<std::string> DatabaseNames() const;

  const relational::Schema* FindRelationalSchema(std::string_view name) const;
  const hierarchical::Schema* FindHierarchicalSchema(
      std::string_view name) const;

  /// The network view of a database: the schema itself for network
  /// databases, the transformed schema for functional ones.
  const network::Schema* NetworkViewOf(std::string_view name) const;

  /// The transformation metadata for a functional database (nullptr for
  /// native network databases).
  const transform::FunNetMapping* MappingOf(std::string_view name) const;

  /// Direct access to the kernel for loaders and benchmarks.
  kc::KernelExecutor* executor() { return executor_.get(); }

  /// Parses one ABDL request, executes it in explain mode through the
  /// kernel controller, and returns its annotated physical plan rendered
  /// by KFS under an "ABDL PLAN" header. INSERT is rejected — it chooses
  /// no access path, so there is no plan to show.
  Result<std::string> ExplainAbdl(std::string_view request_text) {
    return AbdlInterface::Explain(*executor_, request_text);
  }

  /// Degraded-mode status of the kernel, rendered by KFS under a
  /// "KERNEL HEALTH" header: per-backend state, WAL depth, quarantine
  /// history, and whether results may currently be partial.
  std::string HealthReport() const;

  /// The structured form of HealthReport: what the wire server serializes
  /// for remote HEALTH requests (kfs::SerializeHealth / ParseHealth).
  kc::KernelHealth Health() const { return executor_->Health(); }

  /// The compiled-translation cache shared by all sessions of every
  /// language. Loading any database bumps its schema epoch, invalidating
  /// every cached translation.
  kms::TranslationCache& translation_cache() { return translation_cache_; }

  /// The MBDS controller when `backends` > 0, else nullptr.
  mbds::Controller* controller() { return controller_.get(); }

 private:
  struct FunctionalDb {
    const std::string& name() const { return schema.name(); }
    daplex::FunctionalSchema schema;
    transform::FunNetMapping mapping;
  };

  /// kInvalidArgument(`unnamed_error`) for a DDL without a schema name;
  /// kAlreadyExists when any loaded database, of any model, has `name`.
  Status CheckNewName(const std::string& name,
                      const char* unnamed_error) const;
  /// Defines the kernel files of a new database and invalidates every
  /// cached translation (they may name stale files or columns).
  Status DefineKernelFiles(const abdm::DatabaseDescriptor& descriptor);
  template <typename Machine>
  Result<Machine*> OpenTyped(Language language, std::string_view db_name);

  Options options_;
  kms::TranslationCache translation_cache_;
  std::unique_ptr<kds::Engine> engine_;
  std::unique_ptr<mbds::Controller> controller_;
  std::unique_ptr<kc::KernelExecutor> executor_;
  std::vector<std::unique_ptr<network::Schema>> network_dbs_;
  std::vector<std::unique_ptr<FunctionalDb>> functional_dbs_;
  std::vector<std::unique_ptr<relational::Schema>> relational_dbs_;
  std::vector<std::unique_ptr<hierarchical::Schema>> hierarchical_dbs_;
  /// Sessions opened through the typed Open*Session calls.
  std::vector<std::unique_ptr<LanguageInterface>> sessions_;
};

}  // namespace mlds

#endif  // MLDS_MLDS_MLDS_H_
