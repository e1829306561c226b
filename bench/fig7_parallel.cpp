// Exp-3 / Fig. 7: speedup of the parallel index construction (PESDIndex+)
// with t = 1..20 threads on pokec-s and livejournal-s.
//
// NOTE: the reproduction container exposes a single hardware core, so the
// measured speedup saturates near 1 regardless of t — the sweep still
// exercises the full parallel code path (striped-lock unions, edge-parallel
// enumeration) at t >= 2 and reports whatever parallelism the host offers.
// t = 1 is the sequential ESDIndex+ (no pool, no locks), so the speedup
// column is against Algorithm 3 itself. On a multi-core machine this bench
// reproduces the paper's near-linear curve.

#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "core/index_builder.h"

int main() {
  using namespace esd;

  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());
  for (const char* name : {"pokec-s", "livejournal-s"}) {
    gen::Dataset d = bench::Load(name);
    std::printf("== %s (n=%u, m=%u)\n", name, d.graph.NumVertices(),
                d.graph.NumEdges());
    std::printf("%8s %12s %9s\n", "threads", "time (ms)", "speedup");
    double t1 = 0;
    for (unsigned t : {1u, 2u, 4u, 8u, 16u, 20u}) {
      double secs = bench::TimeOnce(
          [&] { core::BuildIndex(d.graph, core::EsdScorer(), t); });
      if (t == 1) t1 = secs;
      std::printf("%8u %12.1f %8.2fx\n", t, secs * 1e3, t1 / secs);
    }
    std::printf("\n");
  }
  return 0;
}
