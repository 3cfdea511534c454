#ifndef MLDS_KMS_INSERT_PATH_H_
#define MLDS_KMS_INSERT_PATH_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abdl/prepared.h"
#include "abdl/request.h"
#include "common/result.h"
#include "kds/engine.h"
#include "network/schema.h"
#include "transform/fun_to_net.h"

namespace mlds::kms {

/// The one insert path of KMS. SQL INSERT, CODASYL STORE, Daplex CREATE
/// and DL/I ISRT all become ABDL INSERTs carrying an artificial database
/// key ("course_7"); every machine sends its inserts through its
/// session's InsertPath. The kernel owns what they share
/// with other sessions: each request names its key keyword and its
/// unique combination (abdl::InsertGuard), and the kernel assigns the
/// keys and checks the guard under the file's lock. What is left here is
/// the chunk loop: empty-batch and arity checks, chunks of
/// EffectiveBatchSize rows, one kernel INSERT per chunk, then a
/// per-language hook.
///
/// Requests go out through the machine's own issue function, so they land
/// in its trace.
class InsertPath {
 public:
  using IssueFn = std::function<Result<kds::Response>(abdl::Request)>;
  /// Builds one record from `row`, the values bound to the `?` markers
  /// (empty for a literal statement), with NULL under its key keyword for
  /// the kernel to fill.
  using BuildFn = std::function<Result<abdm::Record>(
      const std::vector<abdm::Value>& row)>;
  /// Runs after each chunk inserts, with the keys the kernel gave its
  /// records and its last record, key filled.
  using ChunkFn = std::function<void(const std::vector<std::string>& keys,
                                     const abdm::Record& last)>;

  /// A language's uniqueness rule for one file: the attributes unique in
  /// combination, their null rule, and the error text a violation
  /// returns. No attributes: no guard.
  struct Unique {
    std::vector<std::string> attributes;
    abdl::NullRule nulls = abdl::NullRule::kSkipRecord;
    std::string violation;
  };

  explicit InsertPath(IssueFn issue);

  /// Inserts one record of `file` per row of a statement with
  /// `params_per_row` markers; an empty batch or a row of another arity
  /// fails whole, the message naming `verb`. A single statement (no
  /// `limits`) is one kernel INSERT of all its rows. A parameter batch
  /// issues one INSERT per chunk of EffectiveBatchSize(*limits) rows;
  /// chunks inserted before a failing one stay inserted, and a failing
  /// chunk writes nothing.
  /// Returns the number of rows inserted.
  Result<size_t> Insert(std::string_view verb, std::string_view file,
                        size_t params_per_row,
                        const std::vector<std::vector<abdm::Value>>& rows,
                        const std::optional<abdl::BatchLimits>& limits,
                        const BuildFn& build, const Unique& unique,
                        const ChunkFn& after_chunk = nullptr);

  /// The Daplex overlap table, checked when a new `subtype` record joins
  /// supertype entity `owner_key` through ISA set `isa_set` (a CODASYL
  /// STORE or Daplex CREATE of a subtype): fails when a sibling subtype
  /// already holds the entity and no OVERLAP constraint of `mapping` lets
  /// the two share it. `verb` starts the message.
  Status CheckOverlap(std::string_view verb, std::string_view subtype,
                      std::string_view isa_set, const std::string& owner_key,
                      const transform::FunNetMapping& mapping);

 private:
  IssueFn issue_;
};

/// The uniqueness rule of network record type `rt`: its DUPLICATES ARE
/// NOT ALLOWED items, null ones dropped. CODASYL STORE and Daplex CREATE
/// share it; `violation` is the error text.
InsertPath::Unique NetworkUnique(const network::RecordType& rt,
                                 std::string violation);

}  // namespace mlds::kms

#endif  // MLDS_KMS_INSERT_PATH_H_
