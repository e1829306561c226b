// Extension experiment (beyond the paper's tables): the top-k *vertex*
// structural diversity problem of Huang et al. [2] / Chang et al. [4],
// solved with this library's machinery — dequeue-twice online search vs a
// VSD index with the same H(c) design as the ESDIndex. Demonstrates that
// the paper's indexing idea generalizes from edges to vertices, with the
// same orders-of-magnitude query gap.

#include <cstdio>

#include "baselines/vertex_diversity.h"
#include "baselines/vertex_diversity_index.h"
#include "bench/bench_common.h"
#include "util/timer.h"

int main() {
  using namespace esd;

  const uint32_t k = 100, tau = 2;
  std::printf("top-%u vertex structural diversity (tau=%u)\n\n", k, tau);
  std::printf("%-15s %14s %16s %16s %12s\n", "dataset", "build (ms)",
              "online (ms)", "index query(ms)", "speedup");
  bool all_agree = true;
  for (const gen::Dataset& d : bench::LoadAll()) {
    util::Timer t;
    baselines::VsdIndex index(d.graph);
    double build = t.ElapsedMillis();
    double online = bench::TimeOnce([&] {
      baselines::OnlineVertexTopK(d.graph, k, tau);
    });
    double query = bench::TimeMean([&] { index.Query(k, tau); });
    // Agreement check (scores only; ties arbitrary).
    auto a = baselines::OnlineVertexTopK(d.graph, k, tau);
    auto b = index.Query(k, tau);
    bool agree = a.size() == b.size();
    for (size_t i = 0; agree && i < a.size(); ++i) {
      agree = a[i].score == b[i].score;
    }
    all_agree = all_agree && agree;
    std::printf("%-15s %14.1f %16.2f %16.4f %11.0fx %s\n", d.name.c_str(),
                build, online * 1e3, query * 1e3, online / query,
                agree ? "" : "  [DISAGREE]");
    char fields[128];
    std::snprintf(fields, sizeof(fields),
                  "\"build_ms\":%.3f,\"online_ms\":%.3f,\"query_ms\":%.6f",
                  build, online * 1e3, query * 1e3);
    bench::EmitJson("ext_vertex_diversity", "vsd_index", d.name, "query",
                    query * 1e3, 0, fields);
  }
  if (!all_agree) {
    std::fprintf(stderr, "ext_vertex_diversity: index disagrees with the "
                         "online search\n");
    return 1;
  }
  if (!bench::WriteBenchArtifact("ext_vertex_diversity")) return 1;
  return 0;
}
