// Quickstart: load the University functional (Daplex) database, open a
// CODASYL-DML session against it, and run the thesis's running example —
// finding the course titled 'Advanced Database' (Ch. VI.B.1).

#include <cstdio>
#include <string>
#include <vector>

#include "kfs/formatter.h"
#include "mlds/mlds.h"
#include "university/university.h"

int main() {
  using namespace mlds;

  // 1. Bring up MLDS over a single-backend kernel.
  MldsSystem system;

  // 2. Define the functional database. LIL transforms the Daplex schema
  //    into a network schema (Ch. V) and creates the AB(functional)
  //    kernel files.
  Status load = system.LoadFunctionalDatabase(university::kUniversityDaplexDdl);
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
    return 1;
  }

  // 3. Populate it with the generated University instance.
  university::UniversityConfig config;
  auto db = university::BuildUniversityDatabaseOnLoaded(config,
                                                        system.executor());
  if (!db.ok()) {
    std::fprintf(stderr, "data load failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  std::printf("Loaded university database: %zu kernel records\n\n",
              db->records);

  // 4. Open a CODASYL-DML session. The name resolves to the functional
  //    schema list, so the session runs the cross-model translation.
  auto session = system.OpenCodasylSession("university");
  if (!session.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  kms::DmlMachine* dml = *session;

  // 5. The thesis's example transaction, one statement at a time, each
  //    shown with the ABDL requests KMS translated it into.
  const char* const program[] = {
      "MOVE 'Advanced Database' TO title IN course",
      "FIND ANY course USING title IN course",
      "GET title, semester, credits IN course",
  };
  std::vector<abdm::Record> records;
  std::printf("Translation trace:\n");
  for (const char* statement : program) {
    auto result = dml->ExecuteText(statement);
    if (!result.ok()) {
      std::fprintf(stderr, "DML failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("  %s\n", statement);
    for (const std::string& abdl : dml->trace()) {
      std::printf("    => %s\n", abdl.c_str());
    }
    records = std::move(result->records);
  }

  // 6. The GET delivered the course into the user work area.
  std::printf("\nGET result:\n%s\n", kfs::FormatTable(records).c_str());
  return 0;
}
