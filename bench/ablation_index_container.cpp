// Ablation: what the paper's choice of a self-balancing BST for each H(c)
// list buys over flat storage.
//
// Part 1 (whole-engine, run first): treap-backed EsdIndex vs its frozen
// CSR-slab image serving the same top-k workload on real datasets —
// latency and resident bytes, as a table plus {"bench":...} JSON lines.
//
// Part 2 (google-benchmark micro): container-level top-k scan and point
// insert/erase (the maintenance workload): the treap's O(log n) vs the
// vector's O(n) memmove — the reason Section V's maintenance needs a tree.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "util/rng.h"
#include "util/treap.h"

namespace {

using Entry = esd::core::EsdIndex::Entry;
using Less = esd::core::ListOrder;
using Treap = esd::util::Treap<Entry, Less>;

std::vector<Entry> MakeEntries(size_t n, uint64_t seed) {
  esd::util::Rng rng(seed);
  std::vector<Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(Entry{static_cast<uint32_t>(rng.NextBounded(64)),
                            static_cast<uint32_t>(i)});
  }
  std::sort(entries.begin(), entries.end(), Less());
  return entries;
}

void BM_TreapTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Treap treap;
  treap.BuildFromSorted(MakeEntries(n, 1));
  for (auto _ : state) {
    uint32_t sum = 0;
    size_t left = 100;
    treap.ForEachInOrder([&](const Entry& e) {
      sum += e.score;
      return --left > 0;
    });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_TreapTopK)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_VectorTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Entry> vec = MakeEntries(n, 1);
  for (auto _ : state) {
    uint32_t sum = 0;
    for (size_t i = 0; i < std::min<size_t>(100, vec.size()); ++i) {
      sum += vec[i].score;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_VectorTopK)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TreapChurn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Treap treap;
  treap.BuildFromSorted(MakeEntries(n, 1));
  esd::util::Rng rng(2);
  for (auto _ : state) {
    Entry e{static_cast<uint32_t>(rng.NextBounded(64)),
            static_cast<uint32_t>(rng.NextBounded(n))};
    treap.Erase(e);  // may miss: fine, erase+insert mix either way
    treap.Insert(e);
  }
}
BENCHMARK(BM_TreapChurn)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_VectorChurn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Entry> vec = MakeEntries(n, 1);
  esd::util::Rng rng(2);
  Less less;
  for (auto _ : state) {
    Entry e{static_cast<uint32_t>(rng.NextBounded(64)),
            static_cast<uint32_t>(rng.NextBounded(n))};
    auto it = std::lower_bound(vec.begin(), vec.end(), e, less);
    if (it != vec.end() && it->score == e.score && it->e == e.e) {
      vec.erase(it);
    }
    it = std::lower_bound(vec.begin(), vec.end(), e, less);
    if (it == vec.end() || it->score != e.score || it->e != e.e) {
      vec.insert(it, e);
    }
  }
}
BENCHMARK(BM_VectorChurn)->Arg(1000)->Arg(10000)->Arg(100000);

// Whole-engine comparison: the same 4-clique build feeds both engines, so
// any latency/memory gap is purely the serving container.
void CompareEngines() {
  const uint32_t k = 100, tau = 3;
  std::printf("== engine comparison: Query(k=%u, tau=%u)\n", k, tau);
  std::printf("%-12s %14s %14s %12s %12s\n", "dataset", "treap (ms)",
              "frozen (ms)", "treap MiB", "frozen MiB");
  for (const std::string& ds : esd::gen::StandardDatasetNames()) {
    const char* name = ds.c_str();
    esd::gen::Dataset d = esd::bench::Load(ds);
    esd::core::EsdIndex treap = esd::core::BuildIndex(d.graph);
    esd::core::FrozenEsdIndex frozen = esd::core::Freeze(treap);
    double treap_ms =
        esd::bench::TimeMean([&] { treap.Query(k, tau); }) * 1e3;
    double frozen_ms =
        esd::bench::TimeMean([&] { frozen.Query(k, tau); }) * 1e3;
    std::printf("%-12s %14.4f %14.4f %12.2f %12.2f\n", name, treap_ms,
                frozen_ms, treap.MemoryBytes() / (1024.0 * 1024.0),
                frozen.MemoryBytes() / (1024.0 * 1024.0));
    esd::bench::EmitJson("ablation_index_container", "treap", name,
                         "topk_k100_tau3", treap_ms, treap.MemoryBytes());
    esd::bench::EmitJson("ablation_index_container", "frozen", name,
                         "topk_k100_tau3", frozen_ms, frozen.MemoryBytes());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  CompareEngines();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!esd::bench::WriteBenchArtifact("ablation_index_container")) return 1;
  return 0;
}
