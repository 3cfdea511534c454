// An interactive in-process MLDS shell over all four user data models
// (the networked equivalent is tools/mlds_shell, which talks to
// tools/mlds_server over the wire protocol). Statements route to a
// language interface by their leading keyword:
//
//   CODASYL-DML  (university, functional database accessed cross-model):
//       MOVE / FIND / GET / STORE / CONNECT / DISCONNECT / RECONNECT /
//       MODIFY / ERASE
//   Daplex       (university):  FOR EACH / CREATE / DESTROY /
//       UPDATE <entity type> (...)
//   SQL          (payroll, relational):  SELECT / INSERT INTO /
//       DELETE FROM / UPDATE <table> SET
//   DL/I         (clinic, hierarchical):  GU / GN / GNP / ISRT / REPL /
//       DLET
//
// An EXPLAIN prefix on a SQL or CODASYL-DML statement executes it
// normally and additionally prints the annotated physical plan
// (estimated vs. actual rows and blocks per node).
//
// Meta commands: .help  .trace  .schema  .stats  .quit
//
//   echo "MOVE 'Advanced Database' TO title IN course
//   EXPLAIN FIND ANY course USING title IN course
//   GET" | ./local_shell

#include <cstdio>
#include <iostream>
#include <string>

#include "common/strings.h"
#include "mlds/mlds.h"
#include "university/university.h"

namespace {

using namespace mlds;

void PrintHelp() {
  std::printf(
      "Databases: university (functional), payroll (relational), clinic "
      "(hierarchical)\n"
      "  CODASYL-DML   FIND ANY course USING title IN course\n"
      "  Daplex        FOR EACH student SUCH THAT major = 'CS' PRINT pname\n"
      "  SQL           SELECT name, wage FROM staff ORDER BY name\n"
      "  DL/I          GU patient (pname = 'smith')\n"
      "Prefix a SQL or CODASYL-DML statement with EXPLAIN to also print\n"
      "its annotated plan (estimated vs. actual rows and blocks).\n"
      "Meta: .trace (last CODASYL translations), .schema (transformed\n"
      "network schema), .stats (session statistics), .help, .quit\n");
}

bool StartsWithWord(std::string_view line, std::string_view word) {
  if (!StartsWithIgnoreCase(line, word)) return false;
  return line.size() == word.size() || line[word.size()] == ' ' ||
         line[word.size()] == '\t';
}

}  // namespace

int main() {
  MldsSystem system;
  if (!system.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok()) {
    return 1;
  }
  university::UniversityConfig config;
  if (!university::BuildUniversityDatabaseOnLoaded(config, system.executor())
           .ok()) {
    return 1;
  }
  if (!system
           .LoadRelationalDatabase(
               "SCHEMA payroll;"
               "CREATE TABLE staff (name CHAR(12) NOT NULL, wage FLOAT, "
               "UNIQUE (name));")
           .ok()) {
    return 1;
  }
  if (!system
           .LoadHierarchicalDatabase(
               "SCHEMA clinic;"
               "SEGMENT patient; FIELD pname CHAR(12);"
               "SEGMENT visit PARENT patient; FIELD vdate CHAR(8); FIELD "
               "cost FLOAT;")
           .ok()) {
    return 1;
  }

  auto codasyl = system.Open(Language::kCodasyl, "university");
  auto daplex = system.Open(Language::kDaplex, "university");
  auto sql = system.Open(Language::kSql, "payroll");
  auto dli = system.Open(Language::kDli, "clinic");
  if (!codasyl.ok() || !daplex.ok() || !sql.ok() || !dli.ok()) return 1;
  // .trace and .stats read the CODASYL machine's own session state.
  const kms::DmlMachine& dml = *(*codasyl)->machine<kms::DmlMachine>();

  std::printf("MLDS shell — four languages, one kernel. Type .help for "
              "commands.\n");

  std::string line;
  while (true) {
    std::printf("mlds> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;

    if (trimmed[0] == '.') {
      if (trimmed == ".quit" || trimmed == ".exit") break;
      if (trimmed == ".help") {
        PrintHelp();
      } else if (trimmed == ".trace") {
        for (const std::string& abdl : dml.trace()) {
          std::printf("    => %s\n", abdl.c_str());
        }
      } else if (trimmed == ".schema") {
        std::printf("%s", system.NetworkViewOf("university")->ToDdl().c_str());
      } else if (trimmed == ".stats") {
        std::printf("%s", dml.statistics().ToString().c_str());
      } else {
        std::printf("unknown command: %s\n", std::string(trimmed).c_str());
      }
      continue;
    }

    // An EXPLAIN prefix routes by the statement underneath it; the full
    // text (prefix included) is what the language machine executes.
    std::string_view routed = trimmed;
    if (StartsWithWord(routed, "EXPLAIN")) {
      routed = Trim(routed.substr(7));
    }

    const bool sql_update =
        StartsWithWord(routed, "UPDATE") &&
        system.FindRelationalSchema("payroll")->FindTable(
            std::string(Trim(routed.substr(6))).substr(
                0, std::string(Trim(routed.substr(6))).find(' '))) != nullptr;
    LanguageInterface* target = codasyl->get();  // CODASYL-DML by default
    if (StartsWithWord(routed, "GU") || StartsWithWord(routed, "GN") ||
        StartsWithWord(routed, "GNP") || StartsWithWord(routed, "ISRT") ||
        StartsWithWord(routed, "REPL") || StartsWithWord(routed, "DLET")) {
      target = dli->get();
    } else if (StartsWithWord(routed, "SELECT") ||
               StartsWithWord(routed, "INSERT") ||
               StartsWithWord(routed, "DELETE") || sql_update) {
      target = sql->get();
    } else if (StartsWithWord(routed, "FOR") ||
               StartsWithWord(routed, "CREATE") ||
               StartsWithWord(routed, "DESTROY") ||
               StartsWithWord(routed, "UPDATE")) {
      target = daplex->get();
    }

    auto result = target->Execute(trimmed, /*explain=*/false);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    const std::string body = result->TakeBody();
    // The shell acknowledges an empty SQL or Daplex result with a blank
    // line.
    const bool blank =
        body.empty() && (target == sql->get() || target == daplex->get());
    std::printf("%s", blank ? "\n" : body.c_str());
  }
  std::printf("\nbye.\n");
  return 0;
}
