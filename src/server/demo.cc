#include "server/demo.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "university/university.h"

namespace mlds::server {

namespace {

// Seeds a demo database through its own language interface.
Status Seed(MldsSystem* system, Language language, std::string_view database,
            const std::vector<std::string>& statements) {
  MLDS_ASSIGN_OR_RETURN(std::unique_ptr<LanguageInterface> session,
                        system->Open(language, database));
  for (const std::string& statement : statements) {
    MLDS_ASSIGN_OR_RETURN(Rendered rendered,
                          session->Execute(statement, /*explain=*/false));
    (void)rendered;
  }
  return Status::OK();
}

}  // namespace

Status LoadDemoDatabases(MldsSystem* system) {
  // Schema loads always run — on a persistent kernel the DDL reattaches
  // to the restored files — but each seed block is skipped when its
  // database already holds records, so a server restarted over a
  // --data-dir does not duplicate the demo rows.
  MLDS_RETURN_IF_ERROR(
      system->LoadFunctionalDatabase(university::kUniversityDaplexDdl));
  if (system->executor()->FileSize("person") == 0) {
    university::UniversityConfig config;
    MLDS_ASSIGN_OR_RETURN(university::LoadSummary summary,
                          university::BuildUniversityDatabaseOnLoaded(
                              config, system->executor()));
    (void)summary;
  }

  MLDS_RETURN_IF_ERROR(system->LoadRelationalDatabase(
      "SCHEMA payroll;"
      "CREATE TABLE staff (name CHAR(12) NOT NULL, wage FLOAT, "
      "UNIQUE (name));"));
  if (system->executor()->FileSize("staff") == 0) {
    MLDS_RETURN_IF_ERROR(Seed(
        system, Language::kSql, "payroll",
        {"INSERT INTO staff (name, wage) VALUES ('ada', 91.5)",
         "INSERT INTO staff (name, wage) VALUES ('grace', 87.0)",
         "INSERT INTO staff (name, wage) VALUES ('edsger', 72.25)"}));
  }

  MLDS_RETURN_IF_ERROR(system->LoadHierarchicalDatabase(
      "SCHEMA clinic;"
      "SEGMENT patient; FIELD pname CHAR(12);"
      "SEGMENT visit PARENT patient; FIELD vdate CHAR(8); FIELD "
      "cost FLOAT;"));
  if (system->executor()->FileSize("patient") == 0) {
    MLDS_RETURN_IF_ERROR(Seed(system, Language::kDli, "clinic",
                              {"ISRT patient (pname = 'smith')",
                               "GU patient (pname = 'smith')",
                               "ISRT visit (vdate = '870601', cost = 12.5)",
                               "ISRT visit (vdate = '870714', cost = 40.0)",
                               "ISRT patient (pname = 'jones')",
                               "GU patient (pname = 'jones')",
                               "ISRT visit (vdate = '870802', cost = 99.0)"}));
  }
  return Status::OK();
}

}  // namespace mlds::server
