#ifndef MLDS_ABDL_PREPARED_H_
#define MLDS_ABDL_PREPARED_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "abdl/request.h"
#include "abdm/record.h"
#include "common/result.h"

namespace mlds::abdl {

/// A compiled INSERT template: the parse-once form the translation cache
/// serves for bulk ingest. The template splits an INSERT's keyword list
/// into constants (attributes whose values appear literally, always
/// including the FILE keyword) and ordered parameter slots (attributes
/// written as `<attr, ?>`). Binding a row of N values — one per slot, in
/// slot order — yields one record without re-parsing; binding a range of
/// rows yields one executable InsertRequest.
///
///   INSERT (<FILE, staff>, <dept, 'sales'>, <name, ?>, <salary, ?>)
///
/// has constants {FILE: staff, dept: 'sales'} and parameters
/// [name, salary]; params_per_row() == 2.
struct PreparedRequest {
  abdm::Record constants;
  std::vector<std::string> parameters;

  size_t params_per_row() const { return parameters.size(); }

  /// Binds one parameter row into a record. The row must carry exactly
  /// params_per_row() values.
  Result<abdm::Record> BindRow(const std::vector<abdm::Value>& row) const;

  /// Binds rows [begin, end) into one INSERT — the chunked form, so a
  /// caller splitting a bulk load at EffectiveBatchSize boundaries binds
  /// each chunk without copying its rows into a fresh vector. Every row
  /// must carry exactly params_per_row() values; an empty range is
  /// rejected.
  Result<InsertRequest> Bind(const std::vector<std::vector<abdm::Value>>& rows,
                             size_t begin, size_t end) const;
};

/// Batch sizing knobs, after the bulk-copy idiom: the caller asks for
/// `batch_size` rows per kernel request, but a request may carry at most
/// `max_parameters` bound values, so wide rows shrink the batch.
struct BatchLimits {
  size_t batch_size = 1024;
  size_t max_parameters = 65535;
};

/// effective_batch_size = min(batch_size, max_parameters / params_per_row),
/// floored at one row so a row wider than max_parameters still ships.
size_t EffectiveBatchSize(const BatchLimits& limits, size_t params_per_row);

/// Parses a parameterized INSERT template (ABDL notation, `?` allowed as
/// any keyword's value). A template with zero `?` slots is legal: it
/// binds rows of zero values (constants-only bulk load).
Result<PreparedRequest> ParsePreparedInsert(std::string_view text);

}  // namespace mlds::abdl

#endif  // MLDS_ABDL_PREPARED_H_
