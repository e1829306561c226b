#ifndef ESD_LIVE_SNAPSHOT_H_
#define ESD_LIVE_SNAPSHOT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/frozen_index.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "util/posix_io.h"

namespace esd::live {

/// One published read epoch: an immutable FrozenEsdIndex plus the update
/// watermark it reflects. Readers pin an epoch with one shared_ptr copy and
/// keep serving from it for as long as they like — publication of a newer
/// epoch never invalidates a pinned one (RCU semantics: old epochs are
/// reclaimed when the last reader drops its pin).
struct EpochSnapshot {
  core::FrozenEsdIndex index;
  uint64_t epoch = 0;        ///< 0 for the boot snapshot, +1 per publish
  uint64_t applied_seq = 0;  ///< last WAL seq folded into `index`
  /// Position in the writer table's change log that `index` reflects: the
  /// next epoch is this one plus the slots logged from here on.
  uint64_t change_log_pos = 0;
  std::chrono::steady_clock::time_point published_at{};

  /// Age of this epoch (now - publish time), the serving-staleness signal.
  double AgeSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         published_at)
        .count();
  }
};

/// The persisted half of a checkpoint: the writer graph plus its update
/// watermark ("ESDS" file: magic + u32 version (2), then u32 scorer id,
/// u64 applied_seq, u32 num_vertices, length-prefixed edge array, trailing
/// u64 FNV-1a checksum, same conventions as index_io, written atomically
/// via tmp-file + rename). A file with any other version fails to load.
struct GraphSnapshotData {
  uint64_t applied_seq = 0;
  graph::VertexId num_vertices = 0;
  std::vector<graph::Edge> edges;
  core::ScorerKind scorer = core::ScorerKind::kEsd;
};

bool SaveGraphSnapshot(const std::string& path, const graph::DynamicGraph& g,
                       uint64_t applied_seq, std::string* error,
                       core::ScorerKind scorer = core::ScorerKind::kEsd);
bool LoadGraphSnapshot(const std::string& path, GraphSnapshotData* out,
                       std::string* error);

/// Called when the post-rename directory fsync of an atomic snapshot write
/// fails. The snapshot data itself is durable (file fsynced before rename);
/// only the rename's directory entry might not survive a power cut, so this
/// is a warning, not a write failure — but it is no longer silent: the
/// esd_snapshot_dir_fsync_failures counter on MetricRegistry::Global() is
/// bumped and this handler (process-wide; tests install their own) runs.
using SnapshotDirFsyncHandler = util::DirFsyncFailureHandler;

/// Installs `handler` (empty = counter-only) and returns the previous one.
SnapshotDirFsyncHandler SetSnapshotDirFsyncHandler(
    SnapshotDirFsyncHandler handler);

}  // namespace esd::live

#endif  // ESD_LIVE_SNAPSHOT_H_
