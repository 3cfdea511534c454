#ifndef MLDS_KDS_SNAPSHOT_H_
#define MLDS_KDS_SNAPSHOT_H_

#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "common/result.h"
#include "kds/engine.h"

namespace mlds::kds {

/// Text snapshot format for a kernel engine's databases:
///
///   MLDS-SNAPSHOT 1
///   FILE course
///   ATTR FILE string 0 1
///   ATTR course string 0 1
///   ...
///   INSERT (<FILE, 'course'>, <course, 'course_1'>, ...)
///   ...
///
/// The data section is literally an ABDL INSERT transaction, so loading a
/// snapshot is: define the files, then execute the inserts — the same
/// load path MLDS uses everywhere else. Records appear in slot order, so
/// save -> load -> save is byte-stable for a compacted engine.

/// Writes every file and record of `engine` to `out`.
Status SaveSnapshot(const Engine& engine, std::ostream& out);

/// The stored kind of `attr` in `descriptor`, nullopt when either is
/// unknown: how the snapshot and WAL readers parse a logged number
/// (abdl::KindOf), so a FLOAT that prints like an integer stays FLOAT.
std::optional<abdm::ValueKind> AttributeKind(
    const abdm::FileDescriptor* descriptor, std::string_view attr);

/// Recreates files and records from a snapshot into `engine`. Files that
/// already exist are rejected (load into a fresh engine).
Status LoadSnapshot(std::istream& in, Engine* engine);

/// Like LoadSnapshot, but applies only the files for which `want` returns
/// true (with their indexes and records); everything else is parsed and
/// validated but skipped. Corruption recovery uses this to rebuild just
/// the quarantined kernel files from the checkpoint snapshot without
/// disturbing the healthy ones.
Status LoadSnapshotFiltered(
    std::istream& in, Engine* engine,
    const std::function<bool(const std::string&)>& want);

}  // namespace mlds::kds

#endif  // MLDS_KDS_SNAPSHOT_H_
