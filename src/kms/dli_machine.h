#ifndef MLDS_KMS_DLI_MACHINE_H_
#define MLDS_KMS_DLI_MACHINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abdl/prepared.h"
#include "abdl/request.h"
#include "abdm/query.h"
#include "common/result.h"
#include "hierarchical/schema.h"
#include "kc/executor.h"
#include "kms/insert_path.h"
#include "kms/request_trace.h"
#include "kms/translation_cache.h"

namespace mlds::kms {

/// One segment search argument of a DL/I call: a segment name plus
/// optional field qualifications. A qualification value written as `?`
/// marks a prepared-template parameter (`param_mask[i]` non-zero, value
/// a null placeholder); only ISRT field lists accept markers.
struct Ssa {
  std::string segment;
  std::vector<abdm::Predicate> qualifications;
  std::vector<uint8_t> param_mask;  ///< parallel to `qualifications`.
};

/// A parsed DL/I call.
struct DliCall {
  enum class Function {
    kGu,    ///< GU  — get unique, qualified by an SSA path.
    kGn,    ///< GN  — get next (same segment type, or descend to a child).
    kGnp,   ///< GNP — get next within the anchored parent.
    kIsrt,  ///< ISRT — insert a segment under the current parent.
    kRepl,  ///< REPL — replace fields of the current segment.
    kDlet,  ///< DLET — delete the current segment and its dependents.
  };
  Function function = Function::kGu;
  std::vector<Ssa> ssas;

  bool parameterized() const {
    for (const Ssa& ssa : ssas) {
      for (uint8_t m : ssa.param_mask) {
        if (m != 0) return true;
      }
    }
    return false;
  }
};

/// Parses one DL/I call:
///
///   GU patient (pname = 'Smith') visit (cost > 100)
///   GN            GN visit          GNP visit
///   ISRT visit (vdate = '870601', cost = 12.5)
///   REPL (cost = 99)
///   DLET
Result<DliCall> ParseDliCall(std::string_view text);

/// The hierarchical language interface: DL/I calls translated onto ABDL
/// over the AB(hierarchical) files. Position state follows a simplified
/// IMS model:
///
///  - GU resolves its SSA path level by level (one RETRIEVE per level —
///    the one-to-many call/request correspondence again), loads the final
///    level into a buffer, and anchors the parentage at the retrieved
///    segment;
///  - GN advances through the buffer; `GN <child-segment>` descends,
///    re-anchoring at the current segment;
///  - GNP iterates the children of the anchored parent;
///  - ISRT inserts under the anchored parent (root segments need none);
///  - REPL updates fields of the current segment; DLET deletes the
///    current segment together with its entire dependent subtree.
class DliMachine {
 public:
  DliMachine(const hierarchical::Schema* schema, kc::KernelExecutor* executor);

  DliMachine(const DliMachine&) = delete;
  DliMachine& operator=(const DliMachine&) = delete;

  struct Outcome {
    std::vector<abdm::Record> segments;  ///< the retrieved segment (GU/GN).
    size_t affected = 0;
    std::string info;
  };

  Result<Outcome> Execute(const DliCall& call);
  Result<Outcome> ExecuteText(std::string_view text);

  /// Runs newline/';'-separated calls, stopping at the first error.
  Result<std::vector<Outcome>> RunProgram(std::string_view text);

  /// Executes a parameterized ISRT template — `ISRT seg (field = ?, ...)`
  /// — once per parameter row, chunked into kernel INSERTs of at
  /// most EffectiveBatchSize(limits) records each. Every inserted segment
  /// shares the parent established before the batch; the last one becomes
  /// the current position.
  Result<Outcome> ExecuteBatch(
      std::string_view text, const std::vector<std::vector<abdm::Value>>& rows,
      const abdl::BatchLimits& limits = {});

  /// Attaches the shared compiled-translation cache. DL/I translation
  /// depends on position state, so parsed calls cache; the call's ABDL
  /// requests are re-derived against the live position each execution.
  void set_translation_cache(TranslationCache* cache) { cache_ = cache; }

  /// ABDL requests issued by the most recent call.
  const std::vector<std::string>& trace() const { return trace_.Render(); }

 private:
  struct Position {
    std::string segment;
    std::string key;
    abdm::Record record;
  };

  Result<Outcome> Gu(const DliCall& call);
  Result<Outcome> Gn(const DliCall& call);
  Result<Outcome> Gnp(const DliCall& call);
  /// ISRT of one literal call (no `limits`, one empty row) or of a
  /// parameter batch, through the insert path.
  Result<Outcome> Isrt(const DliCall& call,
                       const std::vector<std::vector<abdm::Value>>& rows,
                       const std::optional<abdl::BatchLimits>& limits);
  Result<Outcome> Repl(const DliCall& call);
  Result<Outcome> Dlet();

  Result<kds::Response> Issue(abdl::Request request);

  /// Fetches segments of `segment` matching `quals`, restricted to the
  /// given parent keys when non-empty; sorted by key.
  Result<std::vector<abdm::Record>> FetchLevel(
      const hierarchical::Segment& segment,
      const std::vector<abdm::Predicate>& quals,
      const std::vector<std::string>& parent_keys);

  /// Loads `records` as the iteration buffer for `segment`.
  Outcome TakeFirst(std::string segment, std::vector<abdm::Record> records);

  /// Makes the record at buffer_cursor_ current.
  void SetPositionFromBuffer();

  /// Deletes `key` of `root` and its dependent subtree set-at-a-time: one
  /// key RETRIEVE per non-leaf level, then one transaction of key-set
  /// DELETEs. Returns the number of segments deleted.
  Result<size_t> DeleteSubtree(const hierarchical::Segment& root,
                               const std::string& key);

  /// The record-construction half of ISRT: validates the field list,
  /// resolves the parent key, and leaves the key for the kernel. `row`
  /// supplies the values bound to `?` markers in qualification order.
  Result<abdm::Record> BuildIsrtRecord(const hierarchical::Segment& segment,
                                       const Ssa& ssa,
                                       const std::vector<abdm::Value>& row);

  const hierarchical::Schema* schema_;
  kc::KernelExecutor* executor_;
  TranslationCache* cache_ = nullptr;
  RequestTrace trace_;
  InsertPath inserts_;

  std::optional<Position> position_;
  std::optional<Position> anchor_;  ///< parent anchor for GNP/ISRT.
  std::string buffer_segment_;
  std::vector<abdm::Record> buffer_;
  int buffer_cursor_ = -1;
};

}  // namespace mlds::kms

#endif  // MLDS_KMS_DLI_MACHINE_H_
