#include "live/recovery.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "fault/failpoint.h"
#include "graph/dynamic_graph.h"
#include "live/snapshot.h"
#include "obs/trace.h"

namespace esd::live {

namespace {

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Replays one update onto the bare graph (no index maintenance — recovery
/// rebuilds the index once from the final graph, which is exactly the
/// from-scratch build the parity property compares against).
void ApplyToGraph(graph::DynamicGraph* g, const WalRecord& rec) {
  const graph::VertexId hi = std::max(rec.u, rec.v);
  if (rec.kind == UpdateKind::kInsert) {
    while (g->NumVertices() <= hi) g->AddVertex();
    g->InsertEdge(rec.u, rec.v);
  } else if (hi < g->NumVertices()) {
    g->EraseEdge(rec.u, rec.v);
  }
}

}  // namespace

bool Recover(const graph::Graph& bootstrap, const RecoveryOptions& options,
             RecoveredState* state, std::string* error) {
  ESD_TRACE_SPAN("live.replay");
  *state = RecoveredState{};
  if (const auto hit = ESD_FAILPOINT("recovery.replay")) {
    // Typed and retryable: no partial state escapes (the caller's
    // RecoveredState is freshly reset above), so a later Recover() call
    // starts clean.
    return SetError(error, std::string("recovery replay failed: ") +
                               std::strerror(hit.error_code) + " [injected]");
  }

  // 1. Base state: the checkpoint snapshot if one was persisted, otherwise
  //    the caller's bootstrap graph at watermark 0, copied only once a
  //    record changes it.
  graph::DynamicGraph replayed;
  std::error_code ec;
  if (!options.snapshot_path.empty() &&
      std::filesystem::exists(options.snapshot_path, ec)) {
    GraphSnapshotData snap;
    if (!LoadGraphSnapshot(options.snapshot_path, &snap, error)) {
      return false;  // a snapshot that exists but cannot be read is fatal
    }
    if (snap.scorer != options.expected_scorer) {
      return SetError(
          error,
          "snapshot scorer mismatch: " + options.snapshot_path +
              " belongs to scorer '" +
              std::string(core::ScorerKindName(snap.scorer)) +
              "' but recovery expects '" +
              std::string(core::ScorerKindName(options.expected_scorer)) +
              "'");
    }
    replayed = graph::DynamicGraph(snap.num_vertices);
    for (const graph::Edge& e : snap.edges) replayed.InsertEdge(e.u, e.v);
    state->snapshot_seq = snap.applied_seq;
    state->snapshot_loaded = true;
    state->graph_changed = true;
  }

  // 2. WAL suffix: records at or below the snapshot watermark were already
  //    folded into the snapshot (a crash between "persist snapshot" and
  //    "truncate log" leaves them in the log — skipping by seq makes the
  //    checkpoint protocol idempotent).
  const uint64_t skip_through = state->snapshot_seq;
  if (!options.wal_path.empty()) {
    const bool ok = ReplayWal(
        options.wal_path,
        [&](const WalRecord& rec) {
          if (rec.seq <= skip_through) return;
          if (!state->graph_changed) {
            replayed = graph::DynamicGraph(bootstrap);
            state->graph_changed = true;
          }
          ApplyToGraph(&replayed, rec);
          ++state->replay_applied;
        },
        &state->wal, error);
    if (!ok) return false;
    if (state->wal.scorer != options.expected_scorer &&
        state->wal.valid_bytes >= kWalFileHeaderBytes) {
      // A log that replayed at least its header under another scorer's id
      // must not be adopted; an absent/empty/torn-header log carries no
      // scorer claim and stays usable.
      return SetError(
          error, "wal scorer mismatch: " + options.wal_path +
                     " belongs to scorer '" +
                     std::string(core::ScorerKindName(state->wal.scorer)) +
                     "' but recovery expects '" +
                     std::string(core::ScorerKindName(
                         options.expected_scorer)) +
                     "'");
    }

    // 3. Compact a torn tail so the writer can reopen the log for appends.
    if (options.truncate_torn_tail &&
        state->wal.tail != WalTailStatus::kClean) {
      std::filesystem::resize_file(options.wal_path, state->wal.valid_bytes,
                                   ec);
      if (ec) {
        return SetError(error, "cannot truncate torn wal tail of " +
                                   options.wal_path + ": " + ec.message());
      }
      state->wal_truncated = true;
    }
  }

  if (state->graph_changed) state->graph = replayed.Snapshot();
  state->applied_seq = std::max(state->snapshot_seq, state->wal.last_seq);
  return true;
}

}  // namespace esd::live
