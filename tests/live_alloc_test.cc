// Allocation budget of the live writer. Its per-edge state lives in flat
// pools (C_e and M_e in util::RunPool, edge ids beside the neighbours of
// graph::DynamicGraph), so:
//   * a Maintainer<EdgeSizeTable> boot allocates one row per vertex of its
//     graph copy plus a constant, whatever the number of edges;
//   * LiveEsdIndex::Open allocates at most n plus a constant;
//   * a warm ApplyBatch allocates nothing per edge it touches.
//
// The executable links esd_alloc_count, whose operator new counts every
// allocation, so it is kept apart from the other suites. Sanitizer builds
// keep their own allocator and count nothing: the tests skip there.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/edge_size_table.h"
#include "core/maintainer.h"
#include "core/scorer.h"
#include "gen/holme_kim.h"
#include "graph/graph.h"
#include "live/live_index.h"
#include "obs/metrics.h"
#include "util/alloc_count.h"
#include "util/rng.h"

namespace esd {
namespace {

using Writer = core::Maintainer<core::EdgeSizeTable>;

// Allocations beyond one per vertex that a writer boot may make: the
// build's arena and DAG tables, the pools, the table's arrays and the graph
// copy's row table, each a few vectors whatever the graph's size (40 to 60
// on the graphs below in a Release build).
constexpr uint64_t kBootConstant = 128;

// The same for LiveEsdIndex::Open, which also publishes the boot epoch,
// starts the refreeze pool and registers its metrics (about 145 below).
constexpr uint64_t kOpenConstant = 3 * kBootConstant;

/// Heap allocations made by fn().
template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
  const uint64_t before = util::AllocCount();
  fn();
  return util::AllocCount() - before;
}

/// A WAL directory of its own, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("esd_live_alloc_" + tag + "_" + std::to_string(getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string Path(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

TEST(LiveAllocTest, WriterBootDoesNotGrowWithEdges) {
  if (!util::AllocCountingEnabled()) {
    GTEST_SKIP() << "the sanitizer owns operator new; allocations not counted";
  }
  // The same vertices, four times the edges.
  const graph::Graph sparse = gen::HolmeKim(2000, 3, 0.5, 41);
  const graph::Graph dense = gen::HolmeKim(2000, 12, 0.5, 41);
  ASSERT_GT(dense.NumEdges(), 3 * sparse.NumEdges());
  for (const graph::Graph* g : {&sparse, &dense}) {
    const uint64_t allocs = CountAllocs([g] {
      Writer writer(*g, core::EsdScorer(), core::DeletionStrategy::kTargeted);
    });
    EXPECT_LE(allocs, g->NumVertices() + kBootConstant)
        << "m=" << g->NumEdges() << ": " << allocs << " allocations";
  }
}

TEST(LiveAllocTest, OpenMakesAtMostOnePerVertexPlusAConstant) {
  if (!util::AllocCountingEnabled()) {
    GTEST_SKIP() << "the sanitizer owns operator new; allocations not counted";
  }
  const graph::Graph g = gen::HolmeKim(2000, 8, 0.5, 43);
  ScratchDir dir("open");
  obs::MetricRegistry registry;
  live::LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.registry = &registry;
  std::string error;
  std::unique_ptr<live::LiveEsdIndex> index;
  const uint64_t allocs = CountAllocs(
      [&] { index = live::LiveEsdIndex::Open(g, options, &error); });
  ASSERT_NE(index, nullptr) << error;
  EXPECT_LE(allocs, g.NumVertices() + kOpenConstant)
      << allocs << " allocations for n=" << g.NumVertices()
      << " m=" << g.NumEdges();
}

TEST(LiveAllocTest, WarmApplyBatchAllocatesNothingPerTouchedEdge) {
  if (!util::AllocCountingEnabled()) {
    GTEST_SKIP() << "the sanitizer owns operator new; allocations not counted";
  }
  const graph::Graph g = gen::HolmeKim(1500, 8, 0.6, 47);
  ScratchDir dir("apply");
  obs::MetricRegistry registry;
  live::LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.registry = &registry;
  options.refreeze_every = 0;  // no background epochs inside the count
  std::string error;
  auto index = live::LiveEsdIndex::Open(g, options, &error);
  ASSERT_NE(index, nullptr) << error;

  // Rounds of deleting 64 existing edges in batches of 16 and inserting
  // them back: each update touches every edge of its ego-network.
  util::Rng rng(0xA110C);
  std::vector<graph::Edge> picked;
  for (int i = 0; i < 64; ++i) {
    picked.push_back(g.EdgeAt(
        static_cast<graph::EdgeId>(rng.NextBounded(g.NumEdges()))));
  }
  std::vector<live::LiveUpdate> deletes, inserts;
  for (const graph::Edge& e : picked) {
    deletes.push_back({live::UpdateKind::kDelete, e.u, e.v});
    inserts.push_back({live::UpdateKind::kInsert, e.u, e.v});
  }
  auto round = [&] {
    for (const auto* updates : {&deletes, &inserts}) {
      for (size_t b = 0; b < updates->size(); b += 16) {
        const std::span<const live::LiveUpdate> batch(updates->data() + b,
                                                      16);
        ASSERT_EQ(index->ApplyBatch(batch, &error), batch.size()) << error;
      }
    }
  };
  for (int warm = 0; warm < 3; ++warm) round();

  obs::Counter& touched_total = obs::MetricRegistry::Global().GetCounter(
      "esd_dynamic_touched_edges_total",
      "Edges whose index entries were touched by updates (locality)");
  const uint64_t touched0 = touched_total.Value();
  const uint64_t allocs = CountAllocs(round);
  const uint64_t touched = touched_total.Value() - touched0;
  const uint64_t batches = 2 * picked.size() / 16;
  EXPECT_GT(touched, 20 * batches);
  // Pool growth and compaction may allocate now and then, never per edge.
  EXPECT_LE(allocs, batches) << allocs << " allocations for " << touched
                             << " touched edges";
}

}  // namespace
}  // namespace esd
