#ifndef MLDS_KFS_FORMATTER_H_
#define MLDS_KFS_FORMATTER_H_

#include <string>
#include <vector>

#include "abdm/record.h"
#include "common/result.h"
#include "kc/executor.h"
#include "kds/engine.h"
#include "kds/plan.h"
#include "kms/daplex_machine.h"
#include "kms/dli_machine.h"
#include "kms/dml_machine.h"
#include "kms/sql_machine.h"
#include "network/schema.h"

namespace mlds::kfs {

/// The Kernel Formatting Subsystem: reformats KDM (attribute-based)
/// results into UDM (network record) display format for the user
/// (Ch. I.B.1).

/// Formatting options.
struct FormatOptions {
  /// Hide the kernel-internal FILE keyword.
  bool hide_file_keyword = true;
  /// Hide set-membership keywords (show only the record's data items and
  /// database key).
  bool hide_set_keywords = false;
  /// Column separator.
  std::string separator = " | ";
};

/// Formats records as an aligned table. When `record_type` is non-null,
/// columns follow the record type's declaration order (database key
/// first); otherwise columns appear in first-seen keyword order.
std::string FormatTable(const std::vector<abdm::Record>& records,
                        const network::RecordType* record_type = nullptr,
                        const network::Schema* schema = nullptr,
                        const FormatOptions& options = {});

/// Incremental producer of one rendered result body. The wire server
/// pulls chunks as its write buffer drains, so a million-row RETRIEVE
/// renders O(chunk) bytes at a time instead of one giant string.
/// Concatenating every chunk yields exactly the bytes the buffered
/// formatter produces — byte-identity is the contract streaming is
/// tested against.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// True once every byte has been produced.
  virtual bool done() const = 0;

  /// Produces the next chunk, at most ~`max_bytes` long (one line may
  /// overshoot so progress is always made). Empty only when done().
  virtual std::string Next(size_t max_bytes) = 0;

  /// Exact size of the full rendering, known up front.
  virtual size_t total_bytes() const = 0;
};

/// ChunkSource over an already-rendered body: bounds the *receiver's*
/// frame sizes (and the sender's write buffer) when a formatter has no
/// incremental form.
class StringChunkSource : public ChunkSource {
 public:
  explicit StringChunkSource(std::string body) : body_(std::move(body)) {}

  bool done() const override { return pos_ == body_.size(); }
  std::string Next(size_t max_bytes) override;
  size_t total_bytes() const override { return body_.size(); }

 private:
  std::string body_;
  size_t pos_ = 0;
};

/// Incremental form of FormatTable: one pass over the records computes
/// the column layout (widths only — no cell strings are kept), then
/// rows render on demand, whole lines at a time. Every line of an
/// aligned table has the same length, so total_bytes() is exact.
/// FormatTable itself drains one of these, which is what makes the
/// streamed and buffered renderings byte-identical by construction.
class TableChunkSource : public ChunkSource {
 public:
  /// Owns the records (the streaming path: the response's record set is
  /// moved in and freed as rendering completes).
  TableChunkSource(std::vector<abdm::Record> records,
                   const network::RecordType* record_type = nullptr,
                   const network::Schema* schema = nullptr,
                   FormatOptions options = {});
  /// Borrows the records (the buffered FormatTable path).
  TableChunkSource(const std::vector<abdm::Record>* records,
                   const network::RecordType* record_type,
                   const network::Schema* schema, FormatOptions options);

  bool done() const override;
  std::string Next(size_t max_bytes) override;
  size_t total_bytes() const override { return total_bytes_; }

 private:
  void ComputeLayout();
  void AppendRowLine(const abdm::Record& record, std::string* out);
  /// Each column's slot in `record` (RecordLayout::kNoSlot if absent),
  /// worked out once per run of records sharing a layout.
  const std::vector<size_t>& ColumnSlots(const abdm::Record& record);

  std::vector<abdm::Record> owned_;
  const std::vector<abdm::Record>* records_;
  const network::RecordType* record_type_;
  const network::Schema* schema_;
  FormatOptions options_;

  std::vector<std::string> columns_;
  std::vector<size_t> widths_;
  size_t line_bytes_ = 0;   ///< every table line has this length.
  size_t total_bytes_ = 0;
  std::vector<size_t> slots_;
  const abdm::RecordLayout* slots_layout_ = nullptr;
  /// 0 = header pending, 1 = rule pending, 2 = emitting rows.
  int phase_ = 0;
  size_t row_ = 0;
};

/// Formats one record as "attr: value" lines.
std::string FormatRecord(const abdm::Record& record,
                         const FormatOptions& options = {});

/// Options for rendering an annotated physical plan (EXPLAIN output).
/// Each language interface picks its own header so the plan tree appears
/// in that language's display conventions; the tree body is shared.
struct PlanFormatOptions {
  /// Title line above the tree, e.g. "QUERY PLAN" (SQL) or
  /// "ABDL REQUEST PLAN" (CODASYL-DML).
  std::string header = "QUERY PLAN";
  /// Indentation unit per tree level.
  std::string indent = "  ";
  /// Show the executor's actual counters next to the planner's
  /// estimates. All explains execute (EXPLAIN-and-run), so this is on by
  /// default; off renders estimates only.
  bool show_actuals = true;
};

/// Pretty-prints an annotated plan tree: a header, a dashed rule, then
/// one line per node with estimated (and optionally actual) row/block
/// counts. Children indent one unit under their parent.
std::string FormatPlan(const kds::PlanNode& plan,
                       const PlanFormatOptions& options = {});

/// Renders the kernel's degraded-mode status: a KERNEL HEALTH header, one
/// line per backend (state, logged entries, quarantine history, last
/// fault), and a trailing partial-results notice when degraded.
std::string FormatHealth(const kc::KernelHealth& health);

/// Renders a response's partial-result warnings, one line per affected
/// backend ("warning: backend 2 quarantined — ..."). Empty string when
/// there are none, so callers can append it unconditionally.
std::string FormatWarnings(
    const std::vector<kds::PartialResultWarning>& warnings);

/// Serializes a KernelHealth to the line-oriented wire form the server's
/// HEALTH reply carries:
///
///   degraded 0|1
///   backend <id> <state> <wal_entries> <quarantine_count>[ <last fault>]
///
/// ParseHealth inverts it, so a remote client reconstructs the exact
/// structure an in-process caller gets from executor()->Health() and can
/// render it with FormatHealth to identical bytes.
std::string SerializeHealth(const kc::KernelHealth& health);
Result<kc::KernelHealth> ParseHealth(std::string_view text);

/// Canonical renderings of the four language machines' outcomes — the
/// exact bytes a language user sees. Every mlds::LanguageInterface
/// renders with these, so the in-process shell (examples/local_shell) and
/// the wire server (and through it tools/mlds_shell) show the same bytes:
/// a remote result is byte-identical to in-process execution.
std::string FormatDmlResult(const kms::DmlResult& result);
std::string FormatSqlOutcome(const kms::SqlMachine::Outcome& outcome);
std::string FormatDaplexOutcome(const kms::DaplexMachine::Outcome& outcome);
std::string FormatDliOutcome(const kms::DliMachine::Outcome& outcome);

}  // namespace mlds::kfs

#endif  // MLDS_KFS_FORMATTER_H_
