// Wire load driver of the repository benchmark (see perfbench/README.md).
//
//   perfbench_driver load --port P --seed S
//   perfbench_driver run  --port P --seed S --workload W --seconds T
//
// `load` grows the demo databases of a freshly started mlds_server through
// the wire in all four languages and checks the result. `run` drives one
// workload against the loaded server as one closed-loop client (the next
// operation is sent only after the previous one completed) and prints one
// JSON object with the end-to-end figures and the layer attribution.
//
// Both commands regenerate the same data from the seed, so `run` knows the
// answer to every query it sends and checks each response body against it.
//
// Every operation goes through one of five sessions multiplexed on one
// connection: SQL over payroll, CODASYL-DML and Daplex over university,
// DL/I over clinic, and the kernel's own ABDL as the untranslated baseline.
// Layers are attributed from outside the server: each EXECUTE reply carries
// the server's own time for the statement (LIL parse, KMS translate, KC,
// KDS, KFS render), the rest of the client's round trip is wire and event
// loop, and STATS frames before and after the window give the translation
// cache, buffer pool and join counters.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abdm/value.h"
#include "client/client.h"
#include "server/wire.h"

namespace {

using mlds::Result;
using mlds::Status;
using mlds::abdm::Value;
using mlds::wire::ExecuteResult;
using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<Value>>;

// --- data set sizes (the same for every seed) ---
constexpr int kStaff = 20000;     // payroll.staff rows added to the demo's 3.
constexpr int kPersons = 1000;    // university persons added to the demo's 40.
constexpr int kPatients = 1000;   // clinic patients added to the demo's 2.
constexpr int kVisits = 8;        // visits under every added patient.
constexpr int kDemoStaff = 3, kDemoPersons = 40, kDemoStudents = 30;
constexpr double kDemoWages[kDemoStaff] = {91.5, 87.0, 72.25};
constexpr int kDemoPatients = 2, kDemoVisits = 3, kDemoCourses = 12;
constexpr int kFaculty = 8;       // demo faculty_1..faculty_8 advise.
constexpr int kMajors = 12;
constexpr int kRangeStarts = 16;  // distinct wage ranges the walk repeats.
constexpr int kIngestRows = 32;   // rows per batch in the ingest workload.
constexpr double kWarmupSeconds = 0.5;

enum Lang { kSql, kCodasyl, kDaplex, kDli, kAbdl, kLangs };
constexpr const char* kLangName[kLangs] = {"sql", "codasyl", "daplex", "dli",
                                           "abdl"};
constexpr const char* kLangDb[kLangs] = {"payroll", "university",
                                         "university", "clinic", "payroll"};

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Rng {
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Below(uint64_t n) { return SplitMix(&state) % n; }
  uint64_t state;
};

std::string Padded(char prefix, uint64_t n, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%c%0*llu", prefix, width,
                static_cast<unsigned long long>(n));
  return buf;
}

/// Distinct names: i -> (a*i + b) mod p is injective below the prime p.
struct NameMap {
  NameMap(Rng* rng, char prefix) : prefix(prefix) {
    a = 1 + rng->Below(kPrime - 1);
    b = rng->Below(kPrime);
  }
  std::string operator()(uint64_t i) const {
    return Padded(prefix, (a * i + b) % kPrime, 6);
  }
  static constexpr uint64_t kPrime = 999983;
  char prefix;
  uint64_t a = 1, b = 0;
};

struct Staff {
  std::string name;
  double wage;
};
struct Person {
  std::string pname;
  int64_t age;
  std::string major;
  std::string advisor;
};
struct Patient {
  std::string pname;
  std::vector<std::string> vdates;
  std::vector<double> costs;
};

/// The data `load` adds, regenerated identically by `run`.
struct DataSet {
  explicit DataSet(uint64_t seed) {
    Rng rng(seed * 0x2545f4914f6cdd1dull + 1);
    const NameMap staff_names(&rng, 's'), person_names(&rng, 'p'),
        patient_names(&rng, 'c');
    for (int i = 0; i < kStaff; ++i) {
      staff.push_back({staff_names(i), (1000 + rng.Below(19000)) / 100.0});
    }
    for (int i = 0; i < kPersons; ++i) {
      persons.push_back(
          {person_names(i), static_cast<int64_t>(18 + rng.Below(63)),
           "Bench Major " + std::to_string(1 + rng.Below(kMajors)),
           "faculty_" + std::to_string(1 + rng.Below(kFaculty))});
    }
    for (int i = 0; i < kPatients; ++i) {
      Patient p{patient_names(i), {}, {}};
      for (int v = 0; v < kVisits; ++v) {
        p.vdates.push_back(Padded('v', i * kVisits + v, 7));
        p.costs.push_back((100 + rng.Below(99900)) / 100.0);
      }
      patients.push_back(std::move(p));
    }
    for (int i = 0; i < kRangeStarts; ++i) {
      range_starts.push_back(static_cast<int>(10 + rng.Below(188)));
    }
  }

  /// The kernel key the Daplex CREATE batch gives added person `i`.
  static std::string PersonKey(int i) {
    return "person_" + std::to_string(kDemoPersons + 1 + i);
  }

  /// Staff rows, demo rows included, with a wage in [lo, lo + 2).
  size_t StaffInRange(int lo) const {
    const auto in_range = [lo](double wage) {
      return wage >= lo && wage < lo + 2;
    };
    size_t n = std::count_if(kDemoWages, kDemoWages + kDemoStaff, in_range);
    for (const Staff& s : staff) n += in_range(s.wage);
    return n;
  }
  size_t StudentsWithMajor(const std::string& major) const {
    return std::count_if(persons.begin(), persons.end(),
                         [&](const Person& p) { return p.major == major; });
  }

  std::vector<Staff> staff;
  std::vector<Person> persons;
  std::vector<Patient> patients;
  std::vector<int> range_starts;
};

std::vector<std::string> SplitCells(std::string_view line) {
  std::vector<std::string> cells;
  size_t start = 0;
  while (true) {
    size_t bar = line.find(" | ", start);
    std::string_view cell = line.substr(
        start, bar == std::string_view::npos ? std::string_view::npos
                                             : bar - start);
    while (!cell.empty() && cell.back() == ' ') cell.remove_suffix(1);
    cells.emplace_back(cell);
    if (bar == std::string_view::npos) return cells;
    start = bar + 3;
  }
}

/// A KFS table body split into cells: header row first, then data rows.
/// Lines after the table (a CODASYL info line, a plan) are not rows.
std::vector<std::vector<std::string>> ParseTable(std::string_view body) {
  std::vector<std::string_view> lines;
  for (size_t pos = 0; pos < body.size();) {
    size_t end = body.find('\n', pos);
    if (end == std::string_view::npos) end = body.size();
    lines.push_back(body.substr(pos, end - pos));
    pos = end + 1;
  }
  std::vector<std::vector<std::string>> table;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty() ||
        lines[i].find_first_not_of('-') != std::string_view::npos) {
      continue;
    }
    table.push_back(SplitCells(lines[i - 1]));
    const bool multi_column = table[0].size() > 1;
    for (size_t r = i + 1; r < lines.size(); ++r) {
      if (lines[r].empty() ||
          (multi_column && lines[r].find(" | ") == std::string_view::npos)) {
        break;
      }
      table.push_back(SplitCells(lines[r]));
    }
    break;
  }
  return table;
}

size_t DataRows(std::string_view body) {
  const auto table = ParseTable(body);
  return table.empty() ? 0 : table.size() - 1;
}

/// The cell of `column` in the single data row of `body`; empty when the
/// body is not a one-row table with that column.
std::string OnlyRowCell(std::string_view body, std::string_view column) {
  const auto table = ParseTable(body);
  if (table.size() != 2) return "";
  for (size_t c = 0; c < table[0].size() && c < table[1].size(); ++c) {
    if (table[0][c] == column) return table[1][c];
  }
  return "";
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// One connection carrying one session per language.
class Wire {
 public:
  Status Open(uint16_t port) {
    Status s = client_.Connect("127.0.0.1", port, "perfbench");
    if (!s.ok()) return s;
    for (int l = 0; l < kLangs; ++l) {
      uint32_t id = client_.session_id();
      if (l > 0) {
        Result<uint32_t> opened = client_.OpenSession();
        if (!opened.ok()) return opened.status();
        id = *opened;
      }
      session_[l] = id;
      s = client_.Use(kLangName[l], kLangDb[l], id);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  /// Runs one statement; adds its round trip and the server's share of it
  /// to the running operation totals.
  Result<ExecuteResult> Exec(Lang l, const std::string& statement) {
    const Clock::time_point start = Clock::now();
    Result<ExecuteResult> r = client_.Execute(statement, session_[l]);
    Account(start, r);
    return r;
  }

  Result<ExecuteResult> Batch(Lang l, const std::string& statement,
                              const Rows& rows) {
    const Clock::time_point start = Clock::now();
    Result<ExecuteResult> r =
        client_.ExecuteBatch(statement, rows, session_[l]);
    Account(start, r);
    return r;
  }

  Result<mlds::wire::StatsReply> Stats() { return client_.Stats(); }
  Status Close() { return client_.Close(); }

  double op_ms = 0.0;      ///< client round trips of the current operation.
  double server_ms = 0.0;  ///< server-reported time of the same requests.
  uint64_t requests = 0;

 private:
  void Account(Clock::time_point start, const Result<ExecuteResult>& r) {
    op_ms += Ms(Clock::now() - start);
    if (r.ok()) server_ms += r->elapsed_ms;
    ++requests;
  }

  mlds::client::MldsClient client_;
  uint32_t session_[kLangs] = {};
};

// Failure reporting: the first few mismatches go to stderr.
int g_reported = 0;
bool Fail(const std::string& what) {
  if (g_reported++ < 5) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return false;
}
bool Expect(const Result<ExecuteResult>& r, const std::string& what,
            const std::function<bool(const std::string&)>& check) {
  if (!r.ok()) return Fail(what + ": " + r.status().ToString());
  if (!check(r->body)) return Fail(what + ": unexpected body:\n" + r->body);
  return true;
}
bool BodyIs(const Result<ExecuteResult>& r, const std::string& what,
            const std::string& expected) {
  return Expect(r, what,
                [&](const std::string& b) { return b == expected + "\n"; });
}

uint64_t AbdlCount(Wire& wire, const std::string& file, bool* ok) {
  const std::string attr = file == "staff" ? "name" : file;
  Result<ExecuteResult> r = wire.Exec(
      kAbdl, "RETRIEVE ((FILE = " + file + ")) (COUNT(" + attr + "))");
  const std::string cell =
      r.ok() ? OnlyRowCell(r->body, "COUNT(" + attr + ")") : "";
  if (cell.empty()) {
    *ok = Fail("count of " + file + " failed");
    return 0;
  }
  return std::strtoull(cell.c_str(), nullptr, 10);
}

// ---------------------------------------------------------------- load

int Load(uint16_t port, uint64_t seed) {
  const DataSet data(seed);
  Wire wire;
  Status opened = wire.Open(port);
  if (!opened.ok()) return Fail("connect: " + opened.ToString()), 1;
  bool ok = true;

  Rows rows;
  for (const Staff& s : data.staff) {
    rows.push_back({Value::String(s.name), Value::Float(s.wage)});
  }
  ok &= BodyIs(wire.Batch(kSql, "INSERT INTO staff (name, wage) VALUES (?, ?)",
                          rows),
               "load staff", "inserted " + std::to_string(kStaff) + " row(s)");

  rows.clear();
  for (const Person& p : data.persons) {
    rows.push_back({Value::String(p.pname), Value::Integer(p.age)});
  }
  ok &= BodyIs(wire.Batch(kDaplex, "CREATE person (pname = ?, age = ?)", rows),
               "load persons",
               "created " + std::to_string(kPersons) + " entities");
  rows.clear();
  for (int i = 0; i < kPersons; ++i) {
    const Person& p = data.persons[i];
    rows.push_back({Value::String(DataSet::PersonKey(i)),
                    Value::String(p.major), Value::String(p.advisor)});
  }
  ok &= BodyIs(wire.Batch(kDaplex,
                          "CREATE student (person = ?, major = ?, "
                          "advisor = ?)",
                          rows),
               "load students",
               "created " + std::to_string(kPersons) + " entities");

  rows.clear();
  for (const Patient& p : data.patients) {
    rows.push_back({Value::String(p.pname)});
  }
  ok &= BodyIs(wire.Batch(kDli, "ISRT patient (pname = ?)", rows),
               "load patients",
               "inserted " + std::to_string(kPatients) + " segment(s)");
  for (const Patient& p : data.patients) {
    ok &= Expect(wire.Exec(kDli, "GU patient (pname = '" + p.pname + "')"),
                 "position on " + p.pname, [&](const std::string& b) {
                   return OnlyRowCell(b, "pname") == p.pname;
                 });
    rows.clear();
    for (int v = 0; v < kVisits; ++v) {
      rows.push_back({Value::String(p.vdates[v]), Value::Float(p.costs[v])});
    }
    ok &= BodyIs(wire.Batch(kDli, "ISRT visit (vdate = ?, cost = ?)", rows),
                 "load visits of " + p.pname,
                 "inserted " + std::to_string(kVisits) + " segment(s)");
    if (!ok) break;
  }

  // The added persons got the keys the workloads assume.
  const int last = kPersons - 1;
  ok &= Expect(wire.Exec(kDaplex, "FOR EACH person SUCH THAT person = '" +
                                      DataSet::PersonKey(last) +
                                      "' PRINT pname"),
               "person key check", [&](const std::string& b) {
                 return OnlyRowCell(b, "pname") == data.persons[last].pname;
               });
  const std::pair<const char*, uint64_t> counts[] = {
      {"staff", kDemoStaff + kStaff},
      {"person", kDemoPersons + kPersons},
      {"student", kDemoStudents + kPersons},
      {"patient", kDemoPatients + kPatients},
      {"visit", kDemoVisits + kPatients * kVisits}};
  for (const auto& [file, expected] : counts) {
    const uint64_t got = AbdlCount(wire, file, &ok);
    if (got != expected) {
      ok = Fail(std::string(file) + " holds " + std::to_string(got) +
                " records, expected " + std::to_string(expected));
    }
  }
  (void)wire.Close();
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------- run

struct Workload {
  /// One operation in language `l`; returns whether every reply was right.
  std::function<bool(Lang l)> op;
  /// Checked once after the window.
  std::function<bool()> verify = [] { return true; };
};

Workload Lookup(Wire& wire, const DataSet& data, Rng& rng) {
  Workload w;
  w.op = [&wire, &data, &rng](Lang l) {
    switch (l) {
      case kSql:
      case kAbdl: {
        const Staff& s = data.staff[rng.Below(kStaff)];
        const std::string stmt =
            l == kSql ? "SELECT name, wage FROM staff WHERE name = '" +
                            s.name + "'"
                      : "RETRIEVE ((FILE = staff) and (name = '" + s.name +
                            "')) (name, wage)";
        return Expect(wire.Exec(l, stmt), stmt, [&](const std::string& b) {
          return OnlyRowCell(b, "name") == s.name &&
                 OnlyRowCell(b, "wage") ==
                     Value::Float(s.wage).ToDisplayString();
        });
      }
      case kCodasyl: {
        const Person& p = data.persons[rng.Below(kPersons)];
        bool ok = BodyIs(
            wire.Exec(l, "MOVE '" + p.pname + "' TO pname IN person"),
            "MOVE " + p.pname, "UWA person.pname set");
        ok = ok && Expect(wire.Exec(l, "FIND ANY person USING pname IN person"),
                          "FIND ANY " + p.pname, [&](const std::string& b) {
                            return OnlyRowCell(b, "pname") == p.pname;
                          });
        return ok && Expect(wire.Exec(l, "GET pname, age IN person"),
                            "GET " + p.pname, [&](const std::string& b) {
                              return OnlyRowCell(b, "pname") == p.pname &&
                                     OnlyRowCell(b, "age") ==
                                         std::to_string(p.age);
                            });
      }
      case kDaplex: {
        const Person& p = data.persons[rng.Below(kPersons)];
        const std::string stmt = "FOR EACH person SUCH THAT pname = '" +
                                 p.pname + "' PRINT pname, age";
        return Expect(wire.Exec(l, stmt), stmt, [&](const std::string& b) {
          return OnlyRowCell(b, "age") == std::to_string(p.age);
        });
      }
      case kDli: {
        const Patient& p = data.patients[rng.Below(kPatients)];
        const std::string stmt = "GU patient (pname = '" + p.pname + "')";
        return Expect(wire.Exec(l, stmt), stmt, [&](const std::string& b) {
          return OnlyRowCell(b, "pname") == p.pname;
        });
      }
      default:
        return false;
    }
  };
  return w;
}

Workload Walk(Wire& wire, const DataSet& data, Rng& rng) {
  Workload w;
  w.op = [&wire, &data, &rng](Lang l) {
    switch (l) {
      case kSql:
      case kAbdl: {
        const int lo = data.range_starts[rng.Below(kRangeStarts)];
        const std::string a = std::to_string(lo), b = std::to_string(lo + 2);
        const std::string stmt =
            l == kSql ? "SELECT name, wage FROM staff WHERE wage >= " + a +
                            " AND wage < " + b
                      : "RETRIEVE ((FILE = staff) and (wage >= " + a +
                            ") and (wage < " + b + ")) (name, wage)";
        const size_t expected = data.StaffInRange(lo);
        return Expect(wire.Exec(l, stmt), stmt, [&](const std::string& body) {
          return DataRows(body) == expected;
        });
      }
      case kCodasyl: {
        // Every student, demo and added, has an advisor in a department.
        const size_t students = kDemoStudents + kPersons;
        const std::string info =
            "walked 2 set(s): " + std::to_string(students) + " record(s)\n";
        return Expect(wire.Exec(l, "WALK dept THEN advisor"), "WALK",
                      [&](const std::string& b) {
                        return b.size() > info.size() &&
                               b.compare(b.size() - info.size(), info.size(),
                                         info) == 0 &&
                               DataRows(b) == students;
                      });
      }
      case kDaplex: {
        const std::string major =
            "Bench Major " + std::to_string(1 + rng.Below(kMajors));
        const std::string stmt = "FOR EACH student SUCH THAT major = '" +
                                 major + "' PRINT pname, age, advisor";
        const size_t expected = data.StudentsWithMajor(major);
        return Expect(wire.Exec(l, stmt), stmt, [&](const std::string& b) {
          return DataRows(b) == expected;
        });
      }
      case kDli: {
        const Patient& p = data.patients[rng.Below(kPatients)];
        bool ok = Expect(wire.Exec(l, "GU patient (pname = '" + p.pname + "')"),
                         "GU " + p.pname, [&](const std::string& b) {
                           return OnlyRowCell(b, "pname") == p.pname;
                         });
        std::set<std::string> seen;
        for (int v = 0; ok && v < kVisits; ++v) {
          ok = Expect(wire.Exec(l, "GNP visit"), "GNP visit of " + p.pname,
                      [&](const std::string& b) {
                        const std::string vdate = OnlyRowCell(b, "vdate");
                        return std::find(p.vdates.begin(), p.vdates.end(),
                                         vdate) != p.vdates.end() &&
                               seen.insert(vdate).second;
                      });
        }
        return ok;
      }
      default:
        return false;
    }
  };
  return w;
}

Workload Ingest(Wire& wire, Rng& rng) {
  // Added names use prefixes the load never does, so they never collide;
  // the counts let verify() check every file's final size.
  struct State {
    uint64_t next = 0;
    uint64_t sql = 0, abdl = 0, courses = 0, persons = 0, patients = 0;
  };
  auto st = std::make_shared<State>();
  Workload w;
  w.op = [&wire, &rng, st](Lang l) {
    // kIngestRows parameter rows, each made from a fresh sequence number.
    const auto batch = [&](auto&& row) {
      Rows rows;
      for (int i = 0; i < kIngestRows; ++i) rows.push_back(row(st->next++));
      return rows;
    };
    const auto name = [](char prefix, uint64_t n) {
      return Value::String(Padded(prefix, n % 100000000, 8));
    };
    const auto wage = [&] { return (1000 + rng.Below(19000)) / 100.0; };
    const auto below = [&](uint64_t n) {
      return Value::Integer(static_cast<int64_t>(rng.Below(n)));
    };
    const std::string n_rows = std::to_string(kIngestRows);
    switch (l) {
      case kSql:
        st->sql += kIngestRows;
        return BodyIs(
            wire.Batch(l, "INSERT INTO staff (name, wage) VALUES (?, ?)",
                       batch([&](uint64_t n) -> std::vector<Value> {
                         return {name('q', n), Value::Float(wage())};
                       })),
            "SQL insert batch", "inserted " + n_rows + " row(s)");
      case kAbdl:
        st->abdl += kIngestRows;
        return BodyIs(
            wire.Batch(l, "INSERT (<FILE, staff>, <name, ?>, <wage, ?>)",
                       batch([&](uint64_t n) -> std::vector<Value> {
                         return {name('a', n), Value::Float(wage())};
                       })),
            "ABDL insert batch", n_rows + " records affected");
      case kCodasyl:
        st->courses += kIngestRows;
        return BodyIs(
            wire.Batch(l,
                       "STORE course (title = ?, semester = ?, credits = ?)",
                       batch([&](uint64_t n) -> std::vector<Value> {
                         return {name('t', n), Value::String("Sp88"),
                                 below(10)};
                       })),
            "STORE batch", "stored " + n_rows + " record(s)");
      case kDaplex:
        st->persons += kIngestRows;
        return BodyIs(
            wire.Batch(l, "CREATE person (pname = ?, age = ?)",
                       batch([&](uint64_t n) -> std::vector<Value> {
                         return {name('n', n), below(63)};
                       })),
            "CREATE batch", "created " + n_rows + " entities");
      case kDli: {
        // A new patient, positioned on, then its visits as one batch.
        const std::string pname = name('j', st->next++).AsString();
        ++st->patients;
        bool ok = Expect(
            wire.Exec(l, "ISRT patient (pname = '" + pname + "')"),
            "ISRT " + pname, [](const std::string& b) {
              return b.rfind("inserted patient_", 0) == 0;
            });
        ok = ok && Expect(wire.Exec(l, "GU patient (pname = '" + pname + "')"),
                          "GU " + pname, [&](const std::string& b) {
                            return OnlyRowCell(b, "pname") == pname;
                          });
        Rows visits;
        for (int v = 0; v < kVisits; ++v) {
          visits.push_back({Value::String(Padded('w', v, 7)),
                            Value::Float((100 + rng.Below(99900)) / 100.0)});
        }
        return ok &&
               BodyIs(wire.Batch(l, "ISRT visit (vdate = ?, cost = ?)", visits),
                      "ISRT visit batch",
                      "inserted " + std::to_string(kVisits) + " segment(s)");
      }
      default:
        return false;
    }
  };
  w.verify = [&wire, st] {
    bool ok = true;
    const std::pair<const char*, uint64_t> counts[] = {
        {"staff", kDemoStaff + kStaff + st->sql + st->abdl},
        {"course", kDemoCourses + st->courses},
        {"person", kDemoPersons + kPersons + st->persons},
        {"patient", kDemoPatients + kPatients + st->patients},
        {"visit", kDemoVisits + (kPatients + st->patients) * kVisits}};
    for (const auto& [file, expected] : counts) {
      const uint64_t got = AbdlCount(wire, file, &ok);
      if (got != expected) {
        ok = Fail(std::string("after ingest ") + file + " holds " +
                  std::to_string(got) + " records, expected " +
                  std::to_string(expected));
      }
    }
    return ok;
  };
  return w;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5) {
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  }
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

int Run(uint16_t port, uint64_t seed, const std::string& workload,
        double seconds) {
  const DataSet data(seed);
  Wire wire;
  Status opened = wire.Open(port);
  if (!opened.ok()) return Fail("connect: " + opened.ToString()), 1;
  Rng rng(seed ^ 0x5eedf00dull);
  Workload w;
  if (workload == "lookup") {
    w = Lookup(wire, data, rng);
  } else if (workload == "walk") {
    w = Walk(wire, data, rng);
  } else if (workload == "ingest") {
    w = Ingest(wire, rng);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  // The client works in rounds: one operation in each language, always in
  // the same order, so every run has the same mix. A round's latency is
  // the sum of its operations' round trips; percentiles of single
  // operations would jump between the languages' clusters instead.
  uint64_t failed = 0, ops = 0;
  std::vector<double> round_ms, round_server_ms, per_lang[kLangs];
  const auto drive = [&](double for_seconds, bool record) {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(for_seconds));
    while (Clock::now() < end) {
      double total = 0.0, on_server = 0.0;
      for (int l = 0; l < kLangs; ++l) {
        wire.op_ms = wire.server_ms = 0.0;
        failed += !w.op(static_cast<Lang>(l));
        total += wire.op_ms;
        on_server += wire.server_ms;
        if (record) per_lang[l].push_back(wire.op_ms);
      }
      if (!record) continue;
      ops += kLangs;
      round_ms.push_back(total);
      round_server_ms.push_back(on_server);
    }
  };
  drive(kWarmupSeconds, false);
  if (failed != 0) return Fail("warm-up failed"), 1;

  Result<mlds::wire::StatsReply> before = wire.Stats();
  const uint64_t requests_before = wire.requests;
  drive(seconds, true);
  const uint64_t requests = wire.requests - requests_before;
  Result<mlds::wire::StatsReply> after = wire.Stats();
  bool correct = failed == 0 && w.verify();
  if (!before.ok() || !after.ok()) correct = Fail("STATS failed");
  (void)wire.Close();

  std::vector<double> round_wire_ms(round_ms.size());
  for (size_t i = 0; i < round_ms.size(); ++i) {
    round_wire_ms[i] = round_ms[i] - round_server_ms[i];
  }

  const auto delta = [&](uint64_t mlds::wire::StatsReply::*field) {
    return before.ok() && after.ok()
               ? static_cast<double>((*after).*field - (*before).*field)
               : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  using S = mlds::wire::StatsReply;
  const double hits = delta(&S::cache_hits), misses = delta(&S::cache_misses);
  const double pool_hits = delta(&S::pool_hits),
               pool_misses = delta(&S::pool_misses);

  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"correct\": %s",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(failed),
              correct ? "true" : "false");
  const auto metric = [](const char* name, double value) {
    std::printf(", \"%s\": %.17g", name, value);
  };
  // p90, not the median: on a shared host the machine runs faster now and
  // then, which moves the lower half of the distribution from run to run;
  // the upper decile stayed steadiest (p99 has too few samples on `walk`).
  metric("round_p90_ms", Percentile(round_ms, 0.9));
  metric("wire_ms", Percentile(round_wire_ms, 0.5));
  metric("server_ms", Percentile(round_server_ms, 0.5));
  for (int l = 0; l < kLangs; ++l) {
    metric((std::string(kLangName[l]) + "_ms").c_str(),
           Percentile(per_lang[l], 0.5));
  }
  metric("requests_per_op", ratio(static_cast<double>(requests), ops));
  metric("server_requests", delta(&S::requests_served));
  metric("kms_cache_hits", hits);
  metric("kms_cache_misses", misses);
  metric("kms_cache_hit_ratio", ratio(hits, hits + misses));
  metric("kds_pool_hits", pool_hits);
  metric("kds_pool_misses", pool_misses);
  metric("kds_pool_hit_ratio", ratio(pool_hits, pool_hits + pool_misses));
  metric("kds_pool_evictions", delta(&S::pool_evictions));
  metric("kds_joins",
         delta(&S::stats_hash_joins) + delta(&S::stats_merge_joins));
  metric("kds_histogram_builds", delta(&S::stats_histogram_builds));
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver load|run --port P --seed S "
                 "[--workload W --seconds T]\n");
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  const long port = std::strtol(flags["--port"].c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "perfbench: --port is required\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(flags["--seed"].c_str(), nullptr, 10);
  if (command == "load") return Load(static_cast<uint16_t>(port), seed);
  if (command == "run") {
    const double seconds = std::strtod(flags["--seconds"].c_str(), nullptr);
    if (seconds <= 0) {
      std::fprintf(stderr, "perfbench: --seconds must be positive\n");
      return 2;
    }
    return Run(static_cast<uint16_t>(port), seed, flags["--workload"], seconds);
  }
  std::fprintf(stderr, "perfbench: unknown command '%s'\n", command.c_str());
  return 2;
}
