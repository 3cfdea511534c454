#include "mlds/mlds.h"

#include "daplex/ddl_parser.h"
#include "kfs/formatter.h"
#include "network/ddl_parser.h"
#include "transform/abdm_mapping.h"
#include "transform/hie_to_abdm.h"
#include "transform/rel_to_abdm.h"

namespace mlds {

namespace {

template <typename Db>
const Db* FindDb(const std::vector<std::unique_ptr<Db>>& dbs,
                 std::string_view name) {
  for (const auto& db : dbs) {
    if (db->name() == name) return db.get();
  }
  return nullptr;
}

}  // namespace

MldsSystem::MldsSystem() : MldsSystem(Options{}) {}

MldsSystem::MldsSystem(Options options) : options_(options) {
  if (options_.backends > 0) {
    mbds::MbdsOptions mbds_options;
    mbds_options.num_backends = options_.backends;
    mbds_options.engine = options_.engine;
    controller_ = std::make_unique<mbds::Controller>(mbds_options);
    executor_ = std::make_unique<kc::MbdsExecutor>(controller_.get());
  } else {
    engine_ = std::make_unique<kds::Engine>(options_.engine);
    executor_ = std::make_unique<kc::EngineExecutor>(engine_.get());
  }
}

MldsSystem::~MldsSystem() = default;

Status MldsSystem::CheckNewName(const std::string& name,
                                const char* unnamed_error) const {
  if (name.empty()) return Status::InvalidArgument(unnamed_error);
  for (const std::string& loaded : DatabaseNames()) {
    if (loaded == name) {
      return Status::AlreadyExists("database '" + name + "' already loaded");
    }
  }
  return Status::OK();
}

Status MldsSystem::DefineKernelFiles(
    const abdm::DatabaseDescriptor& descriptor) {
  MLDS_RETURN_IF_ERROR(executor_->DefineDatabase(descriptor));
  // DDL: every cached translation may now name stale files/columns.
  translation_cache_.InvalidateAll();
  return Status::OK();
}

Status MldsSystem::LoadNetworkDatabase(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(network::Schema schema, network::ParseSchema(ddl));
  MLDS_RETURN_IF_ERROR(CheckNewName(
      schema.name(), "network DDL must carry a SCHEMA NAME IS clause"));
  MLDS_ASSIGN_OR_RETURN(abdm::DatabaseDescriptor descriptor,
                        transform::MapNetworkToAbdm(schema));
  MLDS_RETURN_IF_ERROR(DefineKernelFiles(descriptor));
  network_dbs_.push_back(std::make_unique<network::Schema>(std::move(schema)));
  return Status::OK();
}

Status MldsSystem::LoadRelationalDatabase(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(relational::Schema schema,
                        relational::ParseRelationalSchema(ddl));
  MLDS_RETURN_IF_ERROR(CheckNewName(
      schema.name(), "relational DDL must carry a SCHEMA clause"));
  MLDS_ASSIGN_OR_RETURN(abdm::DatabaseDescriptor descriptor,
                        transform::MapRelationalToAbdm(schema));
  MLDS_RETURN_IF_ERROR(DefineKernelFiles(descriptor));
  relational_dbs_.push_back(
      std::make_unique<relational::Schema>(std::move(schema)));
  return Status::OK();
}

Status MldsSystem::LoadHierarchicalDatabase(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(hierarchical::Schema schema,
                        hierarchical::ParseHierarchicalSchema(ddl));
  MLDS_RETURN_IF_ERROR(CheckNewName(
      schema.name(), "hierarchical DDL must carry a SCHEMA clause"));
  MLDS_ASSIGN_OR_RETURN(abdm::DatabaseDescriptor descriptor,
                        transform::MapHierarchicalToAbdm(schema));
  MLDS_RETURN_IF_ERROR(DefineKernelFiles(descriptor));
  hierarchical_dbs_.push_back(
      std::make_unique<hierarchical::Schema>(std::move(schema)));
  return Status::OK();
}

Status MldsSystem::LoadFunctionalDatabase(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(daplex::FunctionalSchema schema,
                        daplex::ParseFunctionalSchema(ddl));
  MLDS_RETURN_IF_ERROR(
      CheckNewName(schema.name(), "Daplex DDL must carry a SCHEMA clause"));
  MLDS_ASSIGN_OR_RETURN(transform::FunNetMapping mapping,
                        transform::TransformFunctionalToNetwork(schema));
  MLDS_ASSIGN_OR_RETURN(
      abdm::DatabaseDescriptor descriptor,
      transform::MapNetworkToAbdm(mapping.schema, &mapping));
  MLDS_RETURN_IF_ERROR(DefineKernelFiles(descriptor));
  functional_dbs_.push_back(std::make_unique<FunctionalDb>(
      FunctionalDb{std::move(schema), std::move(mapping)}));
  return Status::OK();
}

Result<std::unique_ptr<LanguageInterface>> MldsSystem::Open(
    Language language, std::string_view db_name) {
  kc::KernelExecutor* executor = executor_.get();
  // Every machine shares the system's translation cache.
  const auto wrap = [&](auto machine, std::string no_explain = "")
      -> std::unique_ptr<LanguageInterface> {
    machine->set_translation_cache(&translation_cache_);
    using Machine = typename decltype(machine)::element_type;
    return std::make_unique<MachineInterface<Machine>>(
        std::move(machine), executor, std::move(no_explain));
  };
  const auto missing = [&](std::string_view model) {
    return Status::NotFound(std::string(model) + " database '" +
                            std::string(db_name) + "' is not loaded");
  };
  switch (language) {
    case Language::kCodasyl: {
      // LIL order: native network schemas first, then functional ones
      // through the schema transformation (Ch. V).
      const network::Schema* view = NetworkViewOf(db_name);
      if (view == nullptr) {
        return Status::NotFound("database '" + std::string(db_name) +
                                "' is not loaded (searched network and "
                                "functional schema lists)");
      }
      return wrap(std::make_unique<kms::DmlMachine>(view, MappingOf(db_name),
                                                    executor));
    }
    case Language::kDaplex: {
      const FunctionalDb* db = FindDb(functional_dbs_, db_name);
      if (db == nullptr) return missing("functional");
      return wrap(std::make_unique<kms::DaplexMachine>(
                      &db->schema, &db->mapping.schema, &db->mapping,
                      executor),
                  "EXPLAIN is not supported for Daplex statements");
    }
    case Language::kSql: {
      const relational::Schema* schema = FindRelationalSchema(db_name);
      if (schema == nullptr) return missing("relational");
      return wrap(std::make_unique<kms::SqlMachine>(schema, executor));
    }
    case Language::kDli: {
      const hierarchical::Schema* schema = FindHierarchicalSchema(db_name);
      if (schema == nullptr) return missing("hierarchical");
      return wrap(std::make_unique<kms::DliMachine>(schema, executor),
                  "EXPLAIN is not supported for DL/I calls");
    }
    case Language::kAbdl:  // The kernel's language needs no schema binding.
      return std::unique_ptr<LanguageInterface>(
          std::make_unique<AbdlInterface>(executor));
    case Language::kNone:
      break;
  }
  return Status::InvalidArgument("cannot bind the 'none' language");
}

template <typename Machine>
Result<Machine*> MldsSystem::OpenTyped(Language language,
                                       std::string_view db_name) {
  MLDS_ASSIGN_OR_RETURN(std::unique_ptr<LanguageInterface> session,
                        Open(language, db_name));
  Machine* machine = session->machine<Machine>();
  sessions_.push_back(std::move(session));
  return machine;
}

Result<kms::DmlMachine*> MldsSystem::OpenCodasylSession(
    std::string_view db_name) {
  return OpenTyped<kms::DmlMachine>(Language::kCodasyl, db_name);
}

Result<kms::DaplexMachine*> MldsSystem::OpenDaplexSession(
    std::string_view db_name) {
  return OpenTyped<kms::DaplexMachine>(Language::kDaplex, db_name);
}

Result<kms::SqlMachine*> MldsSystem::OpenSqlSession(
    std::string_view db_name) {
  return OpenTyped<kms::SqlMachine>(Language::kSql, db_name);
}

Result<kms::DliMachine*> MldsSystem::OpenDliSession(
    std::string_view db_name) {
  return OpenTyped<kms::DliMachine>(Language::kDli, db_name);
}

std::vector<std::string> MldsSystem::DatabaseNames() const {
  std::vector<std::string> names;
  for (const auto& db : network_dbs_) names.push_back(db->name());
  for (const auto& db : functional_dbs_) names.push_back(db->name());
  for (const auto& db : relational_dbs_) names.push_back(db->name());
  for (const auto& db : hierarchical_dbs_) names.push_back(db->name());
  return names;
}

void MldsSystem::set_latency_scale(double scale) {
  if (controller_ != nullptr) {
    controller_->set_latency_scale(scale);
  } else {
    engine_->set_latency_scale(scale);
  }
}

std::string MldsSystem::HealthReport() const {
  return kfs::FormatHealth(executor_->Health());
}

const hierarchical::Schema* MldsSystem::FindHierarchicalSchema(
    std::string_view name) const {
  return FindDb(hierarchical_dbs_, name);
}

const relational::Schema* MldsSystem::FindRelationalSchema(
    std::string_view name) const {
  return FindDb(relational_dbs_, name);
}

const network::Schema* MldsSystem::NetworkViewOf(std::string_view name) const {
  if (const network::Schema* native = FindDb(network_dbs_, name)) return native;
  const transform::FunNetMapping* mapping = MappingOf(name);
  return mapping == nullptr ? nullptr : &mapping->schema;
}

const transform::FunNetMapping* MldsSystem::MappingOf(
    std::string_view name) const {
  const FunctionalDb* db = FindDb(functional_dbs_, name);
  return db == nullptr ? nullptr : &db->mapping;
}

}  // namespace mlds
