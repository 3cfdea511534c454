#include "university/university.h"

#include <random>

#include "abdm/record.h"
#include "daplex/ddl_parser.h"
#include "transform/abdm_mapping.h"

namespace mlds::university {

const char kUniversityDaplexDdl[] = R"(
SCHEMA university;

TYPE name_str IS STRING(30);
TYPE rank IS (instructor, assistant, associate, full);
TYPE credit_value IS INTEGER RANGE 0..9;

TYPE person IS ENTITY
  pname : name_str;
  age   : INTEGER;
END ENTITY;

TYPE employee IS ENTITY
  ename   : name_str;
  salary  : FLOAT;
  degrees : SET OF STRING(10);
END ENTITY;

TYPE department IS ENTITY
  dname : STRING(20);
END ENTITY;

TYPE course IS ENTITY
  title     : STRING(20);
  semester  : STRING(10);
  credits   : credit_value;
  taught_by : SET OF faculty;
END ENTITY;

TYPE student IS SUBTYPE OF person
  major   : STRING(15);
  advisor : faculty;
END SUBTYPE;

TYPE faculty IS SUBTYPE OF employee
  frank    : rank;
  dept     : department;
  teaching : SET OF course;
END SUBTYPE;

TYPE support_staff IS SUBTYPE OF employee
  hours      : INTEGER;
  supervisor : employee;
END SUBTYPE;

UNIQUE title, semester WITHIN course;
OVERLAP student WITH support_staff;
)";

Result<daplex::FunctionalSchema> UniversitySchema() {
  return daplex::ParseFunctionalSchema(kUniversityDaplexDdl);
}

namespace {

using abdm::Record;
using abdm::Value;
using transform::MakeDbKey;

const char* const kMajors[] = {"Computer Science", "Mathematics", "Physics",
                               "Chemistry", "History", "Economics"};
const char* const kRanks[] = {"instructor", "assistant", "associate", "full"};
const char* const kDegrees[] = {"BS", "MS", "PhD", "BA", "MA"};
const char* const kSemesters[] = {"Fall86", "Spring87", "Summer87"};
const char* const kTitles[] = {
    "Advanced Database", "Operating Sys", "Networks",    "Compilers",
    "Algorithms",        "Architecture",  "Graphics",    "AI",
    "Num Methods",       "Sw Eng",        "Info Theory", "Security",
    "Databases"};

/// Inserts one kernel record, tallying the summary.
Status InsertRecord(kc::KernelExecutor* executor, Record record,
                    LoadSummary* summary) {
  const std::string file =
      record.GetOrNull(abdm::kFileAttribute).AsString();
  abdl::InsertRequest insert;
  insert.records.push_back(std::move(record));
  MLDS_ASSIGN_OR_RETURN(kds::Response resp,
                        executor->Execute(std::move(insert)));
  (void)resp;
  summary->records += 1;
  summary->per_file[file] += 1;
  return Status::OK();
}

Record BaseRecord(std::string_view file, std::string_view dbkey) {
  Record r;
  r.Set(std::string(abdm::kFileAttribute), Value::String(std::string(file)));
  r.Set(std::string(file), Value::String(std::string(dbkey)));
  return r;
}

}  // namespace

namespace {

/// Inserts the generated instance; files must already be defined.
Result<LoadSummary> LoadUniversityData(const UniversityConfig& config,
                                       kc::KernelExecutor* executor) {
  LoadSummary db_summary;
  std::mt19937 rng(config.seed);
  auto pick = [&rng](auto&& array, size_t n) -> decltype(array[0]) {
    std::uniform_int_distribution<size_t> dist(0, n - 1);
    return array[dist(rng)];
  };
  LoadSummary& summary = db_summary;

  // Departments.
  for (int i = 1; i <= config.departments; ++i) {
    Record r = BaseRecord("department", MakeDbKey("department", i));
    r.Set("dname", Value::String("dept_" + std::to_string(i)));
    MLDS_RETURN_IF_ERROR(InsertRecord(executor, std::move(r), &summary));
  }

  // Employees. Each carries one degree value; additional degree values of
  // the scalar multi-valued function arrive as duplicated records (the
  // thesis's AB(functional) representation), added for a fraction of
  // employees below.
  std::uniform_real_distribution<double> salary_dist(20000.0, 90000.0);
  std::uniform_int_distribution<int> age_dist(18, 70);
  for (int i = 1; i <= config.employees; ++i) {
    Record r = BaseRecord("employee", MakeDbKey("employee", i));
    r.Set("ename", Value::String("employee_name_" + std::to_string(i)));
    r.Set("salary", Value::Float(salary_dist(rng)));
    r.Set("degrees", Value::String(pick(kDegrees, 5)));
    if (i % 3 == 0) {
      // Duplicated record for a second degree value: identical keywords
      // except the scalar multi-valued one.
      Record dup = r;
      const bool already_phd = r.GetOrNull("degrees").AsString() == "PhD";
      dup.Set("degrees", Value::String(already_phd ? "JD" : "PhD"));
      MLDS_RETURN_IF_ERROR(InsertRecord(executor, std::move(dup), &summary));
    }
    MLDS_RETURN_IF_ERROR(InsertRecord(executor, std::move(r), &summary));
  }

  // Faculty: subtype records of the first `faculty` employees.
  for (int i = 1; i <= config.faculty; ++i) {
    Record r = BaseRecord("faculty", MakeDbKey("faculty", i));
    r.Set(transform::IsaSetName("employee", "faculty"),
          Value::String(MakeDbKey("employee", i)));
    r.Set("frank", Value::String(pick(kRanks, 4)));
    // Member-side single-valued function: faculty.dept.
    std::uniform_int_distribution<int> dept_dist(1, config.departments);
    r.Set("dept", Value::String(MakeDbKey("department", dept_dist(rng))));
    MLDS_RETURN_IF_ERROR(InsertRecord(executor, std::move(r), &summary));
  }

  // Support staff: employees after the faculty block.
  for (int i = 1; i <= config.support_staff; ++i) {
    const int emp = config.faculty + i;
    Record r = BaseRecord("support_staff", MakeDbKey("support_staff", i));
    r.Set(transform::IsaSetName("employee", "support_staff"),
          Value::String(MakeDbKey("employee", emp)));
    std::uniform_int_distribution<int> hours_dist(10, 40);
    r.Set("hours", Value::Integer(hours_dist(rng)));
    std::uniform_int_distribution<int> boss_dist(1, config.faculty);
    r.Set("supervisor", Value::String(MakeDbKey("employee", boss_dist(rng))));
    MLDS_RETURN_IF_ERROR(InsertRecord(executor, std::move(r), &summary));
  }

  // Persons.
  for (int i = 1; i <= config.persons; ++i) {
    Record r = BaseRecord("person", MakeDbKey("person", i));
    r.Set("pname", Value::String("person_name_" + std::to_string(i)));
    r.Set("age", Value::Integer(age_dist(rng)));
    MLDS_RETURN_IF_ERROR(InsertRecord(executor, std::move(r), &summary));
  }

  // Students: subtype records of the first `students` persons.
  for (int i = 1; i <= config.students; ++i) {
    Record r = BaseRecord("student", MakeDbKey("student", i));
    r.Set(transform::IsaSetName("person", "student"),
          Value::String(MakeDbKey("person", i)));
    r.Set("major", Value::String(pick(kMajors, 6)));
    std::uniform_int_distribution<int> adv_dist(1, config.faculty);
    r.Set("advisor", Value::String(MakeDbKey("faculty", adv_dist(rng))));
    MLDS_RETURN_IF_ERROR(InsertRecord(executor, std::move(r), &summary));
  }

  // Courses.
  for (int i = 1; i <= config.courses; ++i) {
    Record r = BaseRecord("course", MakeDbKey("course", i));
    r.Set("title", Value::String(kTitles[(i - 1) % 13]));
    r.Set("semester", Value::String(kSemesters[(i - 1) % 3]));
    std::uniform_int_distribution<int> credit_dist(1, 5);
    r.Set("credits", Value::Integer(credit_dist(rng)));
    MLDS_RETURN_IF_ERROR(InsertRecord(executor, std::move(r), &summary));
  }

  // Teaching links: the many-to-many faculty.teaching / course.taught_by
  // pair, one link_1 record per (faculty, course) instance.
  for (int i = 1; i <= config.teaching_links; ++i) {
    Record r = BaseRecord("link_1", MakeDbKey("link_1", i));
    std::uniform_int_distribution<int> fac_dist(1, config.faculty);
    std::uniform_int_distribution<int> course_dist(1, config.courses);
    r.Set("teaching", Value::String(MakeDbKey("faculty", fac_dist(rng))));
    r.Set("taught_by", Value::String(MakeDbKey("course", course_dist(rng))));
    MLDS_RETURN_IF_ERROR(InsertRecord(executor, std::move(r), &summary));
  }

  return db_summary;
}

}  // namespace

Result<UniversityDatabase> BuildUniversityDatabase(
    const UniversityConfig& config, kc::KernelExecutor* executor) {
  UniversityDatabase db;
  MLDS_ASSIGN_OR_RETURN(db.functional, UniversitySchema());
  MLDS_ASSIGN_OR_RETURN(db.mapping,
                        transform::TransformFunctionalToNetwork(db.functional));
  MLDS_ASSIGN_OR_RETURN(db.descriptor,
                        transform::MapNetworkToAbdm(db.mapping.schema,
                                                    &db.mapping));
  MLDS_RETURN_IF_ERROR(executor->DefineDatabase(db.descriptor));
  MLDS_ASSIGN_OR_RETURN(db.summary, LoadUniversityData(config, executor));
  return db;
}

Result<LoadSummary> BuildUniversityDatabaseOnLoaded(
    const UniversityConfig& config, kc::KernelExecutor* executor) {
  return LoadUniversityData(config, executor);
}

}  // namespace mlds::university
