// Low-level durable file IO shared by the snapshot, WAL and manifest writers
// (docs/ARCHITECTURE.md §8, §12).
//
// Extracted from snapshot.cc so every artifact in a durable directory —
// engine snapshots, per-shard snapshots, coordinator manifests — goes through
// the same write-fsync-rename discipline instead of three private copies.

#ifndef SCUBA_PERSIST_FSIO_H_
#define SCUBA_PERSIST_FSIO_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace scuba {

/// Writes `data` to `path` (create/truncate), then fdatasync. IoError with
/// errno text on failure. `length` caps the bytes written (torn-write
/// simulation); npos writes everything.
Status WriteFileDurably(const std::string& path, const std::string& data,
                        size_t length = std::string::npos);

/// Reads the whole file at `path`. IoError "cannot open <what>: <path>" when
/// it cannot be opened (`what` names the artifact, e.g. "manifest"), or with
/// errno text when a read fails.
Result<std::string> ReadFileToString(const std::string& path,
                                     std::string_view what);

/// fsync on a directory, making renames/creations within it durable. EINVAL
/// (a filesystem without directory fsync) is tolerated.
Status SyncDirectory(const std::string& dir);

}  // namespace scuba

#endif  // SCUBA_PERSIST_FSIO_H_
