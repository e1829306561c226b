// Exp-2 / Fig. 6: (a) index size vs graph size on all five datasets;
// (b) construction time of ESDIndex (Algorithm 2, BFS-based) vs ESDIndex+
// (Algorithm 3, 4-clique based). The paper's findings to reproduce:
//   * the index is a small constant factor (4-8x) of the graph size,
//   * ESDIndex+ is 2-10x faster than ESDIndex, with the gap largest on
//     small-degeneracy graphs.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "core/edge_dsu_arena.h"
#include "core/index_builder.h"
#include "graph/core_decomposition.h"
#include "graph/orientation.h"

int main() {
  using namespace esd;

  std::printf("Fig 6(a) — index size vs graph size\n");
  std::printf("%-15s %12s %12s %10s %12s\n", "dataset", "graph (MB)",
              "index (MB)", "ratio", "entries");
  std::vector<gen::Dataset> datasets = bench::LoadAll();
  for (const gen::Dataset& d : datasets) {
    core::EsdIndex index = core::BuildIndex(d.graph);
    // Graph payload: CSR adjacency (2m vertex ids + 2m edge ids) + offsets.
    double graph_mb =
        (2.0 * d.graph.NumEdges() * 8 + d.graph.NumVertices() * 8 +
         d.graph.NumEdges() * 8) /
        1e6;
    double index_mb = static_cast<double>(index.MemoryBytes()) / 1e6;
    std::printf("%-15s %12.2f %12.2f %9.2fx %12llu\n", d.name.c_str(),
                graph_mb, index_mb, index_mb / graph_mb,
                static_cast<unsigned long long>(index.NumEntries()));
  }

  std::printf("\nFig 6(b) — construction time\n");
  std::printf("%-15s %6s %16s %16s %9s %13s\n", "dataset", "delta",
              "ESDIndex (ms)", "ESDIndex+ (ms)", "speedup", "arena");
  for (const gen::Dataset& d : datasets) {
    uint32_t delta = graph::ComputeCores(d.graph).degeneracy;
    // Bracketing the per-phase gauges isolates each builder's breakdown
    // (the gauges on the global registry are cumulative).
    const std::vector<double> at_start = bench::SnapBuildPhaseSeconds();
    double t_basic =
        bench::TimeOnce([&] { core::BuildIndexBasic(d.graph); });
    const std::vector<double> after_basic = bench::SnapBuildPhaseSeconds();
    double t_clique =
        bench::TimeOnce([&] { core::BuildIndex(d.graph); });
    const std::vector<double> after_clique = bench::SnapBuildPhaseSeconds();
    // The memory side of ESDIndex+: the arena's tables per triangle (its
    // members, parents, triangle slots and the triangles' v→w edges, which
    // the 4-clique stage reads, are 40 B of that).
    const graph::DegreeOrderedDag dag(d.graph);
    const core::EdgeDsuArena arena(dag);
    const double arena_bytes_per_triangle =
        static_cast<double>(arena.MemoryBytes()) /
        static_cast<double>(std::max<size_t>(1, arena.NumTriangles()));
    std::printf("%-15s %6u %16.1f %16.1f %8.2fx %9.1f B/tri\n",
                d.name.c_str(), delta, t_basic * 1e3, t_clique * 1e3,
                t_basic / t_clique, arena_bytes_per_triangle);
    bench::EmitJson("fig6_index_construction", "basic", d.name, "build",
                    t_basic * 1e3, 0,
                    bench::PhaseJsonFields(at_start, after_basic));
    std::string fields = bench::PhaseJsonFields(after_basic, after_clique);
    char arena_field[64];
    std::snprintf(arena_field, sizeof(arena_field),
                  "\"arena_bytes_per_triangle\":%.3f",
                  arena_bytes_per_triangle);
    if (!fields.empty()) fields += ',';
    fields += arena_field;
    bench::EmitJson("fig6_index_construction", "clique", d.name, "build",
                    t_clique * 1e3, 0, fields);
  }
  bench::MaybeWriteTrace("fig6_index_construction");
  if (!bench::WriteBenchArtifact("fig6_index_construction")) return 1;
  return 0;
}
