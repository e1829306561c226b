#ifndef ESD_LIVE_RECOVERY_H_
#define ESD_LIVE_RECOVERY_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "live/wal.h"

namespace esd::live {

/// Where a live index keeps its durable state.
struct RecoveryOptions {
  std::string wal_path;
  std::string snapshot_path;
  /// When true (the default), a torn WAL tail is truncated back to the
  /// last valid record so the log can be reopened for appending.
  bool truncate_torn_tail = true;
  /// Scorer this recovery serves. A snapshot or WAL stamped with a
  /// different scorer id is an unrecoverable mismatch (replaying another
  /// definition's updates would silently produce wrong scores).
  core::ScorerKind expected_scorer = core::ScorerKind::kEsd;
};

/// What Recover() reconstructed.
struct RecoveredState {
  /// True when a snapshot or a replayed WAL record stood in for the
  /// bootstrap graph. Otherwise the durable state is `bootstrap` as given,
  /// and `graph` stays empty: no copy is made.
  bool graph_changed = false;
  graph::Graph graph;          ///< snapshot (or bootstrap) + WAL suffix
  uint64_t applied_seq = 0;    ///< watermark of the recovered graph
  uint64_t snapshot_seq = 0;   ///< watermark of the loaded snapshot (0 if none)
  bool snapshot_loaded = false;
  WalReplayResult wal;         ///< replay outcome, incl. typed tail status
  uint64_t replay_applied = 0; ///< WAL records folded in (seq > snapshot_seq)
  bool wal_truncated = false;  ///< a torn tail was cut back to valid_bytes
};

/// Rebuilds the last durable graph state: load the checkpoint snapshot if
/// one exists (else start from `bootstrap`), then replay the WAL suffix,
/// skipping records already covered by the snapshot's watermark. A changed
/// graph is laid out as CSR in one linear pass (DynamicGraph::Snapshot). Torn WAL
/// tails are tolerated (replay stops at the last valid record; the tail is
/// truncated when options.truncate_torn_tail). Returns false — with *error
/// set — only on unrecoverable states: a corrupt snapshot file, a foreign
/// WAL file, or filesystem errors.
bool Recover(const graph::Graph& bootstrap, const RecoveryOptions& options,
             RecoveredState* state, std::string* error);

}  // namespace esd::live

#endif  // ESD_LIVE_RECOVERY_H_
