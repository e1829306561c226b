// Streaming maintenance (Section V): keep the ESDIndex current while edges
// arrive and disappear, and compare the incremental cost against rebuilding
// from scratch after every update.
//
// Run: build/examples/dynamic_stream

#include <cstdio>
#include <vector>

#include "core/dynamic_index.h"
#include "core/index_builder.h"
#include "gen/holme_kim.h"
#include "util/rng.h"
#include "util/timer.h"

int main() {
  using namespace esd;

  graph::Graph g = gen::HolmeKim(4000, 6, 0.4, /*seed=*/99);
  std::printf("base graph: n=%u m=%u\n", g.NumVertices(), g.NumEdges());

  util::Timer timer;
  core::DynamicEsdIndex dyn(g, core::DeletionStrategy::kTargeted);
  std::printf("initial index build: %.1f ms (%llu entries)\n\n",
              timer.ElapsedMillis(),
              static_cast<unsigned long long>(dyn.Index().NumEntries()));

  util::Rng rng(4242);
  const int kUpdates = 200;
  double insert_ms = 0, delete_ms = 0;
  size_t touched = 0;
  std::vector<graph::Edge> inserted;
  timer.Reset();
  for (int i = 0; i < kUpdates; ++i) {
    graph::VertexId u, v;
    do {
      u = static_cast<graph::VertexId>(rng.NextBounded(g.NumVertices()));
      v = static_cast<graph::VertexId>(rng.NextBounded(g.NumVertices()));
    } while (u == v || dyn.CurrentGraph().HasEdge(u, v));
    util::Timer one;
    dyn.InsertEdge(u, v);
    insert_ms += one.ElapsedMillis();
    touched += dyn.LastUpdateTouchedEdges();
    inserted.push_back(graph::MakeEdge(u, v));
  }
  std::printf("%d insertions: avg %.3f ms, avg %.1f edges touched\n",
              kUpdates, insert_ms / kUpdates,
              static_cast<double>(touched) / kUpdates);

  touched = 0;
  for (const graph::Edge& e : inserted) {
    util::Timer one;
    dyn.DeleteEdge(e.u, e.v);
    delete_ms += one.ElapsedMillis();
    touched += dyn.LastUpdateTouchedEdges();
  }
  std::printf("%d deletions:  avg %.3f ms, avg %.1f edges touched\n",
              kUpdates, delete_ms / kUpdates,
              static_cast<double>(touched) / kUpdates);

  // The alternative: rebuild the whole index once.
  timer.Reset();
  core::EsdIndex rebuilt = core::BuildIndex(g);
  double rebuild_ms = timer.ElapsedMillis();
  std::printf("\nfull rebuild: %.1f ms -> incremental updates are %.0fx\n",
              rebuild_ms,
              rebuild_ms / ((insert_ms + delete_ms) / (2.0 * kUpdates)));

  // Sanity: after inserting and deleting the same edges, queries agree with
  // a fresh build.
  auto a = dyn.Query(5, 2);
  auto b = rebuilt.Query(5, 2);
  std::printf("\ntop-5 (tau=2) after churn, maintained vs rebuilt:\n");
  for (size_t i = 0; i < a.size(); ++i) {
    std::printf("  score %u vs %u\n", a[i].score, b[i].score);
  }
  return 0;
}
