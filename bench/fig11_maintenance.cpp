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
// dataset gives both medians, the changed slots and the slot chunks the
// delta rebuilt (rather than shared with its base) per batch, and the
// final image's size; every delta image is checked equal to the full one.
//
// A third table times the live writer's boot: the whole LiveEsdIndex::Open
// on an empty WAL directory, split by its phases. `recover` reads the
// (empty) durable state, `build` is the ESDIndex+ build of every C_e and
// M_e, `handover` adopts them into the maintenance state (with the graph
// copy), and `freeze` publishes the boot epoch. The row also counts the
// heap allocations of one Open, and gives M_e's bytes per member: the
// slot pool's buffer and run table over its members.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/dynamic_index.h"
#include "core/edge_size_table.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/maintainer.h"
#include "live/live_index.h"
#include "obs/metrics.h"
#include "util/alloc_count.h"
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
  uint64_t rebuilt = 0;
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
    rebuilt += delta.NumChunks() - delta.ChunksSharedWith(base);
    table.TrimChangeLog(base_pos);
    base = std::move(delta);
    base_pos = table.ChangeLogEnd();
  }
  const double full_med = Median(full_ms), delta_med = Median(delta_ms);
  const double per_batch = static_cast<double>(changed) / kBatches;
  const double chunks_per_batch = static_cast<double>(rebuilt) / kBatches;
  const double image_mb = static_cast<double>(base.MemoryBytes()) / 1e6;
  std::printf("%-15s %16.3f %16.3f %8.1fx %16.1f %10.1f/%-5zu %10.2f\n",
              d.name.c_str(), full_med, delta_med, full_med / delta_med,
              per_batch, chunks_per_batch, base.NumChunks(), image_mb);
  char fields[256];
  std::snprintf(fields, sizeof(fields),
                "\"full_freeze_ms\":%.4f,\"delta_ms\":%.4f,"
                "\"changed_slots_per_batch\":%.2f,\"image_mb\":%.3f,"
                "\"chunks_rebuilt_per_batch\":%.2f",
                full_med, delta_med, per_batch, image_mb, chunks_per_batch);
  bench::EmitJson("fig11_maintenance", "live", d.name, "refreeze", delta_med,
                  base.MemoryBytes(), fields);
  return true;
}

/// The boot row of one dataset: medians of 5 runs of LiveEsdIndex::Open,
/// each on a fresh WAL directory; false if an Open failed.
bool BootRow(const gen::Dataset& d) {
  constexpr int kRuns = 5;
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("esd-fig11-boot-" + std::to_string(getpid()));
  std::vector<double> boot_ms, recover_ms, build_ms, handover_ms, freeze_ms;
  uint64_t allocs = 0;
  for (int r = 0; r < kRuns; ++r) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    obs::MetricRegistry registry;
    live::LiveOptions options;
    options.wal_path = (dir / "wal.bin").string();
    options.registry = &registry;
    std::string error;
    std::unique_ptr<live::LiveEsdIndex> index;
    const uint64_t before = util::AllocCount();
    boot_ms.push_back(bench::TimeOnce([&] {
                        index = live::LiveEsdIndex::Open(d.graph, options,
                                                         &error);
                      }) *
                      1e3);
    allocs = util::AllocCount() - before;
    if (index == nullptr) {
      std::fprintf(stderr, "%s: open failed: %s\n", d.name.c_str(),
                   error.c_str());
      return false;
    }
    auto phase_ms = [&registry](const char* phase) {
      return registry.GaugeValue(std::string("esd_phase_live_open_") + phase +
                                 "_seconds") *
             1e3;
    };
    recover_ms.push_back(phase_ms("recover"));
    build_ms.push_back(phase_ms("build"));
    handover_ms.push_back(phase_ms("handover"));
    freeze_ms.push_back(phase_ms("freeze"));
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  const core::Maintainer<core::EdgeSizeTable> writer(
      d.graph, core::EsdScorer(), core::DeletionStrategy::kTargeted);
  const util::KeyedDsuPool& dsus = writer.EdgeDsus();
  const size_t members = dsus.TotalMembers();
  const double per_member =
      members == 0 ? 0
                   : static_cast<double>(dsus.MemoryBytes()) /
                         static_cast<double>(members);
  const double boot = Median(boot_ms);
  std::printf("%-15s %10.2f %10.2f %10.2f %10.2f %10.2f %10llu %12zu %10.2f\n",
              d.name.c_str(), boot, Median(recover_ms), Median(build_ms),
              Median(handover_ms), Median(freeze_ms),
              static_cast<unsigned long long>(allocs), members, per_member);
  char fields[320];
  std::snprintf(fields, sizeof(fields),
                "\"boot_ms\":%.4f,\"recover_ms\":%.4f,\"build_ms\":%.4f,"
                "\"handover_ms\":%.4f,\"freeze_ms\":%.4f,"
                "\"allocs_per_boot\":%llu,\"me_bytes_per_member\":%.3f",
                boot, Median(recover_ms), Median(build_ms), Median(handover_ms),
                Median(freeze_ms), static_cast<unsigned long long>(allocs),
                per_member);
  bench::EmitJson("fig11_maintenance", "live", d.name, "boot", boot,
                  dsus.MemoryBytes(), fields);
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
  std::printf("%-15s %16s %16s %9s %16s %16s %10s\n", "dataset",
              "Freeze (ms)", "delta (ms)", "speedup", "changed slots",
              "chunks rebuilt", "image (MB)");
  for (const gen::Dataset& d : bench::LoadAll()) {
    if (!RefreezeRow(d)) {
      std::fprintf(stderr, "%s: delta epoch differs from Freeze\n",
                   d.name.c_str());
      return 1;
    }
  }

  std::printf("\nLive writer boot: LiveEsdIndex::Open by phase (medians, ms)\n");
  std::printf("%-15s %10s %10s %10s %10s %10s %10s %12s %10s\n", "dataset",
              "boot", "recover", "build", "hand-over", "freeze", "allocs",
              "M_e members", "B/member");
  for (const gen::Dataset& d : bench::LoadAll()) {
    if (!BootRow(d)) return 1;
  }
  if (!bench::WriteBenchArtifact("fig11_maintenance")) return 1;
  return 0;
}
