// Exp-4 / Fig. 8: query engines on all five datasets, varying k (tau=3)
// and varying tau (k=100). The paper's findings to reproduce:
//   * IndexSearch answers in well under a millisecond,
//   * it beats OnlineBFS+ by >= 4 orders of magnitude,
//   * IndexSearch runtime is flat in tau (the index is tau-independent).
// Beyond the paper, the frozen serving image runs as a third column so its
// flat CSR scan can be compared against the treap traversal.
//
// Usage: fig8_query [engine...]   (any of: online treap frozen; default all)
// Machine-readable: one {"bench":...} JSON line per measurement.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/online_topk.h"

int main(int argc, char** argv) {
  using namespace esd;
  using core::OnlineTopK;
  using core::UpperBoundRule;

  const std::vector<std::string> filter(argv + 1, argv + argc);
  auto enabled = [&filter](const char* engine) {
    return filter.empty() ||
           std::find(filter.begin(), filter.end(), engine) != filter.end();
  };
  const bool use_online = enabled("online");
  const bool use_treap = enabled("treap");
  const bool use_frozen = enabled("frozen");
  if (!use_online && !use_treap && !use_frozen) {
    std::fprintf(stderr, "usage: fig8_query [online|treap|frozen ...]\n");
    return 2;
  }

  const uint32_t kDefault = 100, tauDefault = 3;

  for (const gen::Dataset& d : bench::LoadAll()) {
    core::EsdIndex index;
    core::FrozenEsdIndex frozen;
    if (use_treap || use_frozen) index = core::BuildIndex(d.graph);
    if (use_frozen) frozen = core::Freeze(index);
    std::printf("== %s (n=%u, m=%u)\n", d.name.c_str(),
                d.graph.NumVertices(), d.graph.NumEdges());

    auto header = [&] {
      if (use_online) std::printf(" %18s", "OnlineBFS+ (ms)");
      if (use_treap) std::printf(" %14s", "treap (ms)");
      if (use_frozen) std::printf(" %14s", "frozen (ms)");
      if (use_online && use_treap) std::printf(" %12s", "speedup");
      std::printf("\n");
    };
    auto row = [&](uint32_t k, uint32_t tau, const std::string& op) {
      double online = 0, treap = 0, froz = 0;
      if (use_online) {
        online = bench::TimeOnce([&] {
          OnlineTopK(d.graph, k, tau, UpperBoundRule::kCommonNeighbor);
        });
      }
      if (use_treap) {
        treap = bench::TimeMean([&] { index.Query(k, tau); });
      }
      if (use_frozen) {
        froz = bench::TimeMean([&] { frozen.Query(k, tau); });
      }
      if (use_online) std::printf(" %18.2f", online * 1e3);
      if (use_treap) std::printf(" %14.4f", treap * 1e3);
      if (use_frozen) std::printf(" %14.4f", froz * 1e3);
      if (use_online && use_treap) std::printf(" %11.0fx", online / treap);
      std::printf("\n");
      if (use_online) {
        bench::EmitJson("fig8_query", "online", d.name, op, online * 1e3, 0);
      }
      if (use_treap) {
        bench::EmitJson("fig8_query", "treap", d.name, op, treap * 1e3,
                        index.MemoryBytes());
      }
      if (use_frozen) {
        bench::EmitJson("fig8_query", "frozen", d.name, op, froz * 1e3,
                        frozen.MemoryBytes());
      }
    };

    std::printf("-- vary k (tau=%u)\n", tauDefault);
    std::printf("%6s", "k");
    header();
    for (uint32_t k : {1u, 10u, 50u, 100u, 150u, 200u}) {
      std::printf("%6u", k);
      row(k, tauDefault, "topk_k" + std::to_string(k));
    }

    std::printf("-- vary tau (k=%u)\n", kDefault);
    std::printf("%6s", "tau");
    header();
    for (uint32_t tau = 1; tau <= 6; ++tau) {
      std::printf("%6u", tau);
      row(kDefault, tau, "topk_tau" + std::to_string(tau));
    }
    std::printf("\n");
  }
  if (!bench::WriteBenchArtifact("fig8_query")) return 1;
  return 0;
}
