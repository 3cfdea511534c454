#ifndef MLDS_KMS_INSERT_PATH_H_
#define MLDS_KMS_INSERT_PATH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "abdl/prepared.h"
#include "abdl/request.h"
#include "abdm/query.h"
#include "common/result.h"
#include "kc/executor.h"
#include "network/schema.h"
#include "transform/fun_to_net.h"

namespace mlds::kms {

/// The one insert path of KMS. SQL INSERT, CODASYL STORE, Daplex CREATE
/// and DL/I ISRT all become ABDL INSERTs carrying an artificial database
/// key ("course_7"); every machine sends its single and batch inserts
/// through its session's InsertPath, which owns what they share:
///
///  - the key allocator: a per-file cursor from FileSize + 1 that checks
///    every candidate of one allocation in one kernel RETRIEVE (one key
///    interval per run of ordinals that differ only in the last digit;
///    an equality for a lone key) and skips taken ones;
///  - the unique-combination probe, with a seen set for the rows of one
///    call that the kernel cannot see yet;
///  - the chunk loop: empty-batch and arity checks, chunks of
///    EffectiveBatchSize rows, one key allocation and one kernel batch
///    INSERT per chunk, then a per-language hook.
///
/// Requests go out through the machine's own issue function, so they land
/// in its trace.
class InsertPath {
 public:
  using IssueFn = std::function<Result<kds::Response>(abdl::Request)>;
  /// Builds one record around its allocated `key` from `row`, the values
  /// bound to the `?` markers (empty for a literal statement).
  using BuildFn = std::function<Result<abdm::Record>(
      const std::vector<abdm::Value>& row, const std::string& key)>;
  /// Runs after each chunk inserts, with the chunk's last record.
  using ChunkFn = std::function<void(const abdm::Record& last)>;

  /// `executor` must outlive the path.
  InsertPath(kc::KernelExecutor* executor, IssueFn issue);

  /// Inserts one record of `file` per row of a statement with
  /// `params_per_row` markers; an empty batch or a row of another arity
  /// fails whole, the message naming `verb`. A single statement (no
  /// `limits`) is one kernel request: an INSERT for one row, a batch
  /// INSERT for several. A parameter batch issues one batch INSERT per
  /// chunk of EffectiveBatchSize(*limits) rows; chunks inserted before a
  /// failing one stay inserted. Returns the number of rows inserted.
  Result<size_t> Insert(std::string_view verb, std::string_view file,
                        size_t params_per_row,
                        const std::vector<std::vector<abdm::Value>>& rows,
                        const std::optional<abdl::BatchLimits>& limits,
                        const BuildFn& build,
                        const ChunkFn& after_chunk = nullptr);

  /// True when a live record of `file` carries every (attribute = value)
  /// of `combo`, or, inside Insert, an earlier row of the same call does.
  /// The caller forms `combo` under its language's rule for nulls; an
  /// empty combo is never taken.
  Result<bool> UniqueTaken(std::string_view file,
                           std::vector<abdm::Predicate> combo);

  /// The Daplex overlap table, checked when a new `subtype` record joins
  /// supertype entity `owner_key` through ISA set `isa_set` (a CODASYL
  /// STORE or Daplex CREATE of a subtype): fails when a sibling subtype
  /// already holds the entity and no OVERLAP constraint of `mapping` lets
  /// the two share it. `verb` starts the message.
  Status CheckOverlap(std::string_view verb, std::string_view subtype,
                      std::string_view isa_set, const std::string& owner_key,
                      const transform::FunNetMapping& mapping);

 private:
  /// Allocates, builds and inserts rows [begin, end) as one INSERT or one
  /// batch INSERT; a failure returns the keys to the cursor. Returns the
  /// last record.
  Result<abdm::Record> InsertRows(
      std::string_view file, const std::vector<std::vector<abdm::Value>>& rows,
      size_t begin, size_t end, const BuildFn& build, bool batch);

  kc::KernelExecutor* executor_;
  IssueFn issue_;
  std::map<std::string, uint64_t, std::less<>> next_key_;
  /// The running batch's unique combinations, or null outside one.
  std::set<std::string>* batch_seen_ = nullptr;
};

/// The unique combination `record` forms under the DUPLICATES ARE NOT
/// ALLOWED items of network record type `rt`: one equality per item,
/// skipping null ones. CODASYL STORE and Daplex CREATE share this rule.
std::vector<abdm::Predicate> NetworkUniqueCombo(const network::RecordType& rt,
                                                const abdm::Record& record);

}  // namespace mlds::kms

#endif  // MLDS_KMS_INSERT_PATH_H_
