#include "server/wire.h"

namespace mlds::wire {

namespace {

constexpr std::string_view kMalformed = "malformed wire payload";

Status Malformed(std::string_view what) {
  return Status::ParseError(std::string(kMalformed) + " (" +
                            std::string(what) + ")");
}

}  // namespace

bool IsRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kVerify);
}

std::string EncodeUseRequest(const UseRequest& request) {
  common::PayloadWriter writer;
  writer.PutString(request.language);
  writer.PutString(request.database);
  return writer.Take();
}

Result<UseRequest> DecodeUseRequest(std::string_view payload) {
  common::PayloadReader reader(payload);
  UseRequest request;
  if (!reader.GetString(&request.language) ||
      !reader.GetString(&request.database) || !reader.exhausted()) {
    return Malformed("USE");
  }
  return request;
}

namespace {

// Value tag bytes of the BATCH row encoding.
constexpr uint8_t kValueNull = 0;
constexpr uint8_t kValueInteger = 1;
constexpr uint8_t kValueFloat = 2;
constexpr uint8_t kValueString = 3;

void PutValue(common::PayloadWriter* writer, const abdm::Value& value) {
  if (value.is_integer()) {
    writer->PutU8(kValueInteger);
    writer->PutU64(static_cast<uint64_t>(value.AsInteger()));
  } else if (value.is_float()) {
    writer->PutU8(kValueFloat);
    writer->PutDouble(value.AsFloat());
  } else if (value.is_string()) {
    writer->PutU8(kValueString);
    writer->PutString(value.AsString());
  } else {
    writer->PutU8(kValueNull);
  }
}

bool GetValue(common::PayloadReader* reader, abdm::Value* value) {
  uint8_t tag = 0;
  if (!reader->GetU8(&tag)) return false;
  switch (tag) {
    case kValueNull:
      *value = abdm::Value::Null();
      return true;
    case kValueInteger: {
      uint64_t v = 0;
      if (!reader->GetU64(&v)) return false;
      *value = abdm::Value::Integer(static_cast<int64_t>(v));
      return true;
    }
    case kValueFloat: {
      double v = 0.0;
      if (!reader->GetDouble(&v)) return false;
      *value = abdm::Value::Float(v);
      return true;
    }
    case kValueString: {
      std::string v;
      if (!reader->GetString(&v)) return false;
      *value = abdm::Value::String(std::move(v));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

std::string EncodeBatchRequest(const BatchRequest& request) {
  common::PayloadWriter writer;
  writer.PutString(request.statement);
  writer.PutU32(static_cast<uint32_t>(request.rows.size()));
  for (const std::vector<abdm::Value>& row : request.rows) {
    writer.PutU32(static_cast<uint32_t>(row.size()));
    for (const abdm::Value& value : row) {
      PutValue(&writer, value);
    }
  }
  return writer.Take();
}

Result<BatchRequest> DecodeBatchRequest(std::string_view payload) {
  common::PayloadReader reader(payload);
  BatchRequest request;
  uint32_t row_count = 0;
  if (!reader.GetString(&request.statement) || !reader.GetU32(&row_count)) {
    return Malformed("BATCH");
  }
  // Each row needs >= 4 bytes (its value count); checked before reserving
  // so a hostile count cannot force a huge allocation.
  if (static_cast<uint64_t>(row_count) * 4 > reader.remaining()) {
    return Malformed("BATCH row count");
  }
  request.rows.reserve(row_count);
  for (uint32_t i = 0; i < row_count; ++i) {
    uint32_t value_count = 0;
    if (!reader.GetU32(&value_count)) return Malformed("BATCH row");
    // Each value needs >= 1 byte (its tag).
    if (static_cast<uint64_t>(value_count) > reader.remaining()) {
      return Malformed("BATCH value count");
    }
    std::vector<abdm::Value> row;
    row.reserve(value_count);
    for (uint32_t j = 0; j < value_count; ++j) {
      abdm::Value value;
      if (!GetValue(&reader, &value)) return Malformed("BATCH value");
      row.push_back(std::move(value));
    }
    request.rows.push_back(std::move(row));
  }
  if (!reader.exhausted()) return Malformed("BATCH trailer");
  return request;
}

std::string EncodeExecuteResult(const ExecuteResult& result) {
  common::PayloadWriter writer;
  writer.PutString(result.body);
  writer.PutDouble(result.elapsed_ms);
  writer.PutU32(static_cast<uint32_t>(result.warnings.size()));
  for (const kds::PartialResultWarning& warning : result.warnings) {
    writer.PutU32(static_cast<uint32_t>(warning.backend_id));
    writer.PutString(warning.state);
    writer.PutString(warning.detail);
  }
  return writer.Take();
}

Result<ExecuteResult> DecodeExecuteResult(std::string_view payload) {
  common::PayloadReader reader(payload);
  ExecuteResult result;
  uint32_t warning_count = 0;
  if (!reader.GetString(&result.body) || !reader.GetDouble(&result.elapsed_ms) ||
      !reader.GetU32(&warning_count)) {
    return Malformed("RESULT");
  }
  // Each warning needs >= 12 bytes; checked before reserving so a hostile
  // count cannot force a huge allocation.
  if (static_cast<uint64_t>(warning_count) * 12 > reader.remaining()) {
    return Malformed("RESULT warning count");
  }
  result.warnings.reserve(warning_count);
  for (uint32_t i = 0; i < warning_count; ++i) {
    kds::PartialResultWarning warning;
    uint32_t backend_id = 0;
    if (!reader.GetU32(&backend_id) || !reader.GetString(&warning.state) ||
        !reader.GetString(&warning.detail)) {
      return Malformed("RESULT warning");
    }
    warning.backend_id = static_cast<int>(backend_id);
    result.warnings.push_back(std::move(warning));
  }
  if (!reader.exhausted()) return Malformed("RESULT trailer");
  return result;
}

std::string EncodeWireError(const WireError& error) {
  common::PayloadWriter writer;
  writer.PutU8(static_cast<uint8_t>(error.code));
  writer.PutString(error.message);
  return writer.Take();
}

Result<WireError> DecodeWireError(std::string_view payload) {
  common::PayloadReader reader(payload);
  WireError error;
  uint8_t code = 0;
  if (!reader.GetU8(&code) || !reader.GetString(&error.message) ||
      !reader.exhausted()) {
    return Malformed("ERROR");
  }
  if (code > static_cast<uint8_t>(StatusCode::kCorruption) ||
      code == static_cast<uint8_t>(StatusCode::kOk)) {
    // An unknown or OK code in an error frame: keep the message but
    // classify it as internal rather than inventing a category.
    error.code = StatusCode::kInternal;
  } else {
    error.code = static_cast<StatusCode>(code);
  }
  return error;
}

Status DecodeStatus(std::string_view payload) {
  Result<WireError> error = DecodeWireError(payload);
  if (!error.ok()) return error.status();
  return Status(error->code, std::move(error->message));
}

std::string EncodeBusyReply(const BusyReply& busy) {
  common::PayloadWriter writer;
  writer.PutString(busy.scope);
  writer.PutU32(busy.active);
  writer.PutU32(busy.limit);
  return writer.Take();
}

Result<BusyReply> DecodeBusyReply(std::string_view payload) {
  common::PayloadReader reader(payload);
  BusyReply busy;
  if (!reader.GetString(&busy.scope) || !reader.GetU32(&busy.active) ||
      !reader.GetU32(&busy.limit) || !reader.exhausted()) {
    return Malformed("BUSY");
  }
  return busy;
}

namespace {

/// One STATS field: its `.stats` line name and its StatsReply member,
/// exactly one of the three member pointers set. The rows are the wire
/// layout in order; `health` travels last and has no `.stats` line.
struct StatsField {
  std::string_view name;
  uint64_t StatsReply::*u64 = nullptr;
  uint32_t StatsReply::*u32 = nullptr;
  std::string StatsReply::*text = nullptr;
};

constexpr StatsField kStatsFields[] = {
    {"cache.hits", &StatsReply::cache_hits},
    {"cache.misses", &StatsReply::cache_misses},
    {"cache.evictions", &StatsReply::cache_evictions},
    {"cache.epoch", &StatsReply::cache_epoch},
    {"cache.size", &StatsReply::cache_size},
    {"server.sessions_accepted", &StatsReply::sessions_accepted},
    {"server.sessions_rejected", &StatsReply::sessions_rejected},
    {"server.requests_served", &StatsReply::requests_served},
    {"server.requests_rejected", &StatsReply::requests_rejected},
    {"server.bad_frames", &StatsReply::bad_frames},
    {"server.sessions_active", nullptr, &StatsReply::sessions_active},
    {"server.inflight_highwater", &StatsReply::inflight_highwater},
    {"server.write_buffer_highwater_bytes",
     &StatsReply::write_buffer_highwater},
    {"server.results_streamed", &StatsReply::results_streamed},
    {"server.chunks_streamed", &StatsReply::chunks_streamed},
    {"server.backpressure_stalls", &StatsReply::backpressure_stalls},
    {"pool.hits", &StatsReply::pool_hits},
    {"pool.misses", &StatsReply::pool_misses},
    {"pool.evictions", &StatsReply::pool_evictions},
    {"pool.dirty_writebacks", &StatsReply::pool_dirty_writebacks},
    {"integrity.checksum_failures", &StatsReply::integrity_checksum_failures},
    {"integrity.io_errors_injected",
     &StatsReply::integrity_io_errors_injected},
    {"integrity.io_errors_real", &StatsReply::integrity_io_errors_real},
    {"integrity.pages_scrubbed", &StatsReply::integrity_pages_scrubbed},
    {"integrity.files_rebuilt", &StatsReply::integrity_files_rebuilt},
    {"integrity.fsyncs", &StatsReply::integrity_fsyncs},
    {"stats.histogram_builds", &StatsReply::stats_histogram_builds},
    {"stats.replans", &StatsReply::stats_replans},
    {"stats.hash_joins", &StatsReply::stats_hash_joins},
    {"stats.merge_joins", &StatsReply::stats_merge_joins},
    {"", nullptr, nullptr, &StatsReply::health},
};

}  // namespace

std::string EncodeStatsReply(const StatsReply& stats) {
  common::PayloadWriter writer;
  for (const StatsField& field : kStatsFields) {
    if (field.u64 != nullptr) {
      writer.PutU64(stats.*field.u64);
    } else if (field.u32 != nullptr) {
      writer.PutU32(stats.*field.u32);
    } else {
      writer.PutString(stats.*field.text);
    }
  }
  return writer.Take();
}

Result<StatsReply> DecodeStatsReply(std::string_view payload) {
  common::PayloadReader reader(payload);
  StatsReply stats;
  for (const StatsField& field : kStatsFields) {
    const bool ok =
        field.u64 != nullptr   ? reader.GetU64(&(stats.*field.u64))
        : field.u32 != nullptr ? reader.GetU32(&(stats.*field.u32))
                               : reader.GetString(&(stats.*field.text));
    if (!ok) return Malformed("STATS");
  }
  if (!reader.exhausted()) return Malformed("STATS");
  return stats;
}

std::string StatsReply::ToText() const {
  std::string out;
  for (const StatsField& field : kStatsFields) {
    if (field.name.empty()) continue;
    const uint64_t value =
        field.u64 != nullptr ? this->*field.u64 : this->*field.u32;
    out.append(field.name).append(" ").append(std::to_string(value));
    out += '\n';
  }
  return out;
}

std::string EncodeResultChunk(const ResultChunk& chunk) {
  common::PayloadWriter writer;
  writer.PutU32(chunk.seq);
  writer.PutString(chunk.body);
  return writer.Take();
}

Result<ResultChunk> DecodeResultChunk(std::string_view payload) {
  common::PayloadReader reader(payload);
  ResultChunk chunk;
  if (!reader.GetU32(&chunk.seq) || !reader.GetString(&chunk.body) ||
      !reader.exhausted()) {
    return Malformed("RESULT_CHUNK");
  }
  return chunk;
}

}  // namespace mlds::wire
