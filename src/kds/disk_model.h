#ifndef MLDS_KDS_DISK_MODEL_H_
#define MLDS_KDS_DISK_MODEL_H_

#include "kds/io_stats.h"

namespace mlds::kds {

/// Deterministic cost model for one backend's dedicated disk system — the
/// single answer to "how long does this request's I/O keep the disk busy".
///
/// The thesis ran on 1987 lab minicomputers with one disk per backend; we
/// do not have that hardware, so the disk is reproduced as a model: each
/// engine executes real ABDL requests and this model converts the counted
/// physical work into milliseconds. The MBDS controller charges those
/// milliseconds to simulated time; the engine, when its latency scale is
/// set, really waits them (Engine::set_latency_scale). The default
/// constants approximate a late-1980s Winchester disk (~28 ms average
/// positioning, ~2 ms per block transfer), though only the *shape* of the
/// scaling results depends on them, not the particular values.
struct DiskModel {
  /// Positioning (seek + rotational) cost charged once per request that
  /// touches the disk at all.
  double seek_ms = 28.0;
  /// Transfer cost per data block read or written.
  double transfer_ms_per_block = 2.0;
  /// Directory (index) probe cost — the directory is small and assumed
  /// memory-resident after the first access, so probes are cheap.
  double index_probe_ms = 0.2;
  /// CPU cost of examining one record against a query.
  double cpu_ms_per_record = 0.01;

  /// Milliseconds the disk spends executing a request whose physical
  /// work is `io`.
  double CostMs(const IoStats& io) const {
    double ms = 0.0;
    if (io.total_blocks() > 0) ms += seek_ms;
    ms += transfer_ms_per_block * static_cast<double>(io.total_blocks());
    ms += index_probe_ms * static_cast<double>(io.index_probes);
    ms += cpu_ms_per_record * static_cast<double>(io.records_examined);
    return ms;
  }
};

}  // namespace mlds::kds

#endif  // MLDS_KDS_DISK_MODEL_H_
