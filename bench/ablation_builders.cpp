// Ablation: three index-construction strategies.
//   ESDIndex       — Algorithm 2 as published (plain ego BFS: every member's
//                    full adjacency is scanned);
//   ESDIndex-opt   — our improved BFS baseline (output-sensitive probing,
//                    min{d(w), |N(uv)|} per member) — beyond the paper;
//   ESDIndex+      — Algorithm 3 (4-clique enumeration + disjoint sets).
// (PESDIndex+ at one thread is Algorithm 3 itself: a 1-thread build takes
// the same lock-free path, so it has no column of its own.)
// The paper compares only the first and third; the -opt row quantifies how
// much of ESDIndex+'s published advantage is reproducible against a
// stronger baseline.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/index_builder.h"

int main() {
  using namespace esd;

  std::printf("%-15s %12s %14s %12s\n", "dataset", "Alg2 (ms)",
              "Alg2-opt (ms)", "Alg3 (ms)");
  for (const gen::Dataset& d : bench::LoadAll()) {
    double basic = bench::TimeOnce([&] { core::BuildIndexBasic(d.graph); });
    double fast = bench::TimeOnce([&] {
      core::BuildIndexBasic(d.graph, graph::EgoProbe::kShorterSide);
    });
    double clique = bench::TimeOnce([&] { core::BuildIndex(d.graph); });
    std::printf("%-15s %12.1f %14.1f %12.1f\n", d.name.c_str(), basic * 1e3,
                fast * 1e3, clique * 1e3);
  }
  std::printf(
      "\nReading: Alg3 vs Alg2 reproduces the paper's Exp-2 ordering; the\n"
      "opt column shows a subset-probing BFS narrows (and at this scale can\n"
      "close) the gap — a finding about baselines, not about Alg3.\n");
  return 0;
}
