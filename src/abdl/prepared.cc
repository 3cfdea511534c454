#include "abdl/prepared.h"

#include <algorithm>

namespace mlds::abdl {

Result<abdm::Record> PreparedRequest::BindRow(
    const std::vector<abdm::Value>& row) const {
  if (row.size() != parameters.size()) {
    return Status::InvalidArgument(
        "prepared INSERT takes " + std::to_string(parameters.size()) +
        " parameters, got " + std::to_string(row.size()));
  }
  abdm::Record record = constants;
  for (size_t i = 0; i < parameters.size(); ++i) {
    record.Set(parameters[i], row[i]);
  }
  return record;
}

Result<InsertRequest> PreparedRequest::Bind(
    const std::vector<std::vector<abdm::Value>>& rows, size_t begin,
    size_t end) const {
  end = std::min(end, rows.size());
  if (begin >= end) {
    return Status::InvalidArgument("prepared INSERT batch carries no rows");
  }
  InsertRequest insert;
  insert.records.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    MLDS_ASSIGN_OR_RETURN(abdm::Record record, BindRow(rows[i]));
    insert.records.push_back(std::move(record));
  }
  return insert;
}

size_t EffectiveBatchSize(const BatchLimits& limits, size_t params_per_row) {
  const size_t batch = std::max<size_t>(limits.batch_size, 1);
  if (params_per_row == 0) return batch;
  const size_t by_params =
      std::max<size_t>(limits.max_parameters / params_per_row, 1);
  return std::min(batch, by_params);
}

}  // namespace mlds::abdl
