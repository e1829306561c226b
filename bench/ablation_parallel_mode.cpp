// Ablation: vertex-parallel vs edge-parallel 4-clique enumeration
// (Section IV-E). The paper rejects vertex-parallelism because per-vertex
// clique work follows the (skewed) out-degree distribution, leaving most
// threads idle behind one hub. A single-core container cannot show the
// wall-clock gap, so this bench *measures the skew itself*: the share of
// total 4-clique work concentrated in the heaviest work units under each
// decomposition, plus wall-clock at whatever parallelism the host has.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/edge_dsu_arena.h"
#include "core/index_builder.h"
#include "graph/orientation.h"

int main() {
  using namespace esd;

  const unsigned threads =
      std::max(2u, std::thread::hardware_concurrency());
  std::printf("work-skew of the 4-clique enumeration (Sec. IV-E)\n\n");
  std::printf("%-15s %14s | %16s %16s | %16s %16s\n", "dataset", "work units",
              "vtx top-1% share", "arc top-1% share", "vtx-par (ms)",
              "edge-par (ms)");
  for (const gen::Dataset& d : bench::LoadAll()) {
    graph::DegreeOrderedDag dag(d.graph);
    const core::EdgeDsuArena arena(dag);
    // Work model of EdgeDsuArena::ForEach4CliqueOfVertex. A call stamps
    // N+(u): d+(u) slots. Closing arc (u,v) stamps L(v) = upper(u→v) and
    // walks L(w1) = upper(u→w1) for each w1 in it: |L(v)| +
    // Σ_{w1∈L(v)} |L(w1)| slots. A vertex's unit is its stamps plus all its
    // arcs; an arc's unit is its closing plus its share of u's stamps (a
    // run holding all of u's arcs stamps once).
    std::vector<uint64_t> per_vertex(d.graph.NumVertices(), 0);
    std::vector<uint64_t> per_arc;
    per_arc.reserve(d.graph.NumEdges());
    uint64_t total = 0;
    std::vector<uint32_t> arc_of(d.graph.NumVertices(), 0);
    for (graph::VertexId u = 0; u < d.graph.NumVertices(); ++u) {
      auto nu = dag.OutNeighbors(u);
      auto eu = dag.OutEdges(u);
      if (nu.empty()) continue;
      for (size_t i = 0; i < nu.size(); ++i) {
        arc_of[nu[i]] = static_cast<uint32_t>(i);
      }
      per_vertex[u] = nu.size();
      for (graph::EdgeId uv : eu) {
        auto lv = arena.Members(uv).first(arena.UpperSize(uv));
        uint64_t closing = lv.size();
        for (graph::VertexId w1 : lv) {
          closing += arena.UpperSize(eu[arc_of[w1]]);
        }
        per_arc.push_back(closing + 1);
        per_vertex[u] += closing;
      }
      total += per_vertex[u];
    }
    auto top_share = [total](std::vector<uint64_t> work) {
      if (total == 0 || work.empty()) return 0.0;
      std::sort(work.begin(), work.end(), std::greater<>());
      size_t top = std::max<size_t>(1, work.size() / 100);
      uint64_t sum = 0;
      for (size_t i = 0; i < top; ++i) sum += work[i];
      return 100.0 * static_cast<double>(sum) / static_cast<double>(total);
    };
    util::ThreadPool pool(threads);
    auto time_mode = [&](core::ParallelMode mode) {
      return bench::TimeOnce(
          [&] { core::CliqueComponentSizes(d.graph, &pool, nullptr, mode); });
    };
    double vtx_time = time_mode(core::ParallelMode::kVertexParallel);
    double edge_time = time_mode(core::ParallelMode::kEdgeParallel);
    std::printf("%-15s %14llu | %15.1f%% %15.1f%% | %16.1f %16.1f\n",
                d.name.c_str(), static_cast<unsigned long long>(total),
                top_share(per_vertex), top_share(per_arc), vtx_time * 1e3,
                edge_time * 1e3);
  }
  std::printf(
      "\nReading: on skewed graphs (wikitalk-s) the heaviest 1%% of\n"
      "vertices own several times more clique work than the heaviest 1%% of\n"
      "arcs — the imbalance that makes the paper pick edge-parallel\n"
      "decomposition. On the flatter social graphs the degree ordering\n"
      "already evens out per-vertex work, so both decompositions balance.\n");
  return 0;
}
