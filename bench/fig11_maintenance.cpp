// Exp-6 / Fig. 11: index maintenance cost. For each dataset, insert 1000
// random new edges and then delete them, reporting the average per-update
// time of the Insertion (Algorithm 4) and Deletion (Algorithm 5)
// algorithms. The paper's findings to reproduce:
//   * update cost grows with graph/index size,
//   * deletions cost more than insertions (the Update procedure),
//   * both are orders of magnitude cheaper than index reconstruction.
//
// A second table carries the same locality to the serving image: the live
// writer's refreeze. For each dataset, batches of 16 random updates (~70%
// inserts, uniform vertex pairs) go through the live writer's maintenance
// state, and each batch's epoch is built twice — by a full Freeze and by
// FrozenEsdIndex::FromDelta from the previous epoch plus the changed
// slots (the patch is copied outside the timed region). One JSON row per
// dataset gives both medians and the changed slots per batch; every delta
// image is checked equal to the full one.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/dynamic_index.h"
#include "core/edge_size_table.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/maintainer.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace {

using namespace esd;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// The refreeze row of one dataset; false if a delta image differed from
/// the full Freeze.
bool RefreezeRow(const gen::Dataset& d) {
  constexpr int kBatches = 30;
  constexpr int kBatch = 16;
  core::Maintainer<core::EdgeSizeTable> writer(
      d.graph, core::EsdScorer(), core::DeletionStrategy::kTargeted);
  core::EdgeSizeTable& table = writer.mutable_table();
  table.EnableChangeLog();
  core::FrozenEsdIndex base = core::Freeze(table);
  uint64_t base_pos = table.ChangeLogEnd();
  const graph::VertexId n = d.graph.NumVertices();
  util::Rng rng(0xF11);
  std::vector<double> full_ms, delta_ms;
  uint64_t changed = 0;
  std::vector<graph::EdgeId> slots;
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      const auto u = static_cast<graph::VertexId>(rng.NextBounded(n));
      auto v = static_cast<graph::VertexId>(rng.NextBounded(n - 1));
      if (v >= u) ++v;
      if (rng.NextBool(0.7)) {
        writer.InsertEdge(u, v);
      } else {
        writer.DeleteEdge(u, v);
      }
    }
    slots.clear();
    if (!table.ChangedSince(base_pos, &slots)) return false;
    const core::SlotPatch patch = core::CopySlots(table, slots);
    changed += patch.ids.size();
    core::FrozenEsdIndex delta, full;
    delta_ms.push_back(bench::TimeOnce([&] {
                         delta = core::FrozenEsdIndex::FromDelta(base, patch);
                       }) *
                       1e3);
    full_ms.push_back(
        bench::TimeOnce([&] { full = core::Freeze(table); }) * 1e3);
    if (!(delta == full)) return false;
    table.TrimChangeLog(base_pos);
    base = std::move(delta);
    base_pos = table.ChangeLogEnd();
  }
  const double full_med = Median(full_ms), delta_med = Median(delta_ms);
  const double per_batch = static_cast<double>(changed) / kBatches;
  std::printf("%-15s %16.3f %16.3f %8.1fx %16.1f\n", d.name.c_str(),
              full_med, delta_med, full_med / delta_med, per_batch);
  char fields[160];
  std::snprintf(fields, sizeof(fields),
                "\"full_freeze_ms\":%.4f,\"delta_ms\":%.4f,"
                "\"changed_slots_per_batch\":%.2f",
                full_med, delta_med, per_batch);
  bench::EmitJson("fig11_maintenance", "live", d.name, "refreeze", delta_med,
                  base.MemoryBytes(), fields);
  return true;
}

}  // namespace

int main() {
  using namespace esd;

  const size_t kUpdates = 1000;
  std::printf("%-15s %14s %14s %16s %12s\n", "dataset", "insert (ms)",
              "delete (ms)", "rebuild (ms)", "touched/op");
  for (const gen::Dataset& d : bench::LoadAll()) {
    core::DynamicEsdIndex dyn(d.graph, core::DeletionStrategy::kTargeted);
    util::Rng rng(0xF16);

    // The paper's protocol: randomly select 1000 existing edges; delete
    // them, then insert them back.
    std::vector<graph::Edge> picked;
    {
      util::FlatSet<uint64_t> chosen(kUpdates);
      while (picked.size() < kUpdates) {
        graph::EdgeId e = static_cast<graph::EdgeId>(
            rng.NextBounded(d.graph.NumEdges()));
        if (chosen.Insert(e)) picked.push_back(d.graph.EdgeAt(e));
      }
    }

    uint64_t touched = 0;
    util::Timer timer;
    for (const graph::Edge& e : picked) {
      dyn.DeleteEdge(e.u, e.v);
      touched += dyn.LastUpdateTouchedEdges();
    }
    double delete_ms = timer.ElapsedMillis() / kUpdates;

    timer.Reset();
    for (const graph::Edge& e : picked) {
      dyn.InsertEdge(e.u, e.v);
      touched += dyn.LastUpdateTouchedEdges();
    }
    double insert_ms = timer.ElapsedMillis() / kUpdates;

    double rebuild_ms =
        bench::TimeOnce([&] { core::BuildIndex(d.graph); }) * 1e3;
    std::printf("%-15s %14.4f %14.4f %16.1f %12.1f\n", d.name.c_str(),
                insert_ms, delete_ms, rebuild_ms,
                static_cast<double>(touched) / (2 * kUpdates));
  }
  std::printf(
      "\n(\"touched/op\" = edges whose index entries one update rewrites —\n"
      " the locality that Observations 2 and 3 promise.)\n");

  std::printf("\nRefreeze of one 16-update batch (medians)\n");
  std::printf("%-15s %16s %16s %9s %16s\n", "dataset", "Freeze (ms)",
              "delta (ms)", "speedup", "changed slots");
  for (const gen::Dataset& d : bench::LoadAll()) {
    if (!RefreezeRow(d)) {
      std::fprintf(stderr, "%s: delta epoch differs from Freeze\n",
                   d.name.c_str());
      return 1;
    }
  }
  if (!bench::WriteBenchArtifact("fig11_maintenance")) return 1;
  return 0;
}
