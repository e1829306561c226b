// Exp-6 / Fig. 11: index maintenance cost. For each dataset, insert 1000
// random new edges and then delete them, reporting the average per-update
// time of the Insertion (Algorithm 4) and Deletion (Algorithm 5)
// algorithms. The paper's findings to reproduce:
//   * update cost grows with graph/index size,
//   * deletions cost more than insertions (the Update procedure),
//   * both are orders of magnitude cheaper than index reconstruction.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/dynamic_index.h"
#include "core/index_builder.h"
#include "util/flat_map.h"
#include "util/rng.h"

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
  return 0;
}
