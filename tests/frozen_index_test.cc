// FrozenEsdIndex: the read-optimized serving layer must be observationally
// identical to the treap index it images — on every query, for every
// (k, tau), including the documented zero-padding order — and must
// round-trip losslessly through Freeze/Thaw and the index file format.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/binary_format.h"
#include "core/edge_size_table.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/index_io.h"
#include "core/naive_topk.h"
#include "core/query_engine.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace esd {
namespace {

using core::EsdIndex;
using core::FrozenEsdIndex;
using core::IndexIoResult;
using core::IndexIoStatus;
using core::TopKResult;
using test::U32Bytes;
using test::U64Bytes;

constexpr core::ScorerKind kEsd = core::ScorerKind::kEsd;

/// ~50 small random graphs: half ER (sparse to dense), half BA (hubby).
std::vector<graph::Graph> RandomGraphs() {
  std::vector<graph::Graph> out;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    uint32_t n = 8 + static_cast<uint32_t>(seed) * 2;
    out.push_back(gen::ErdosRenyiGnm(n, 2 + seed * n / 4, seed));
  }
  for (uint64_t seed = 0; seed < 25; ++seed) {
    uint32_t attach = 1 + static_cast<uint32_t>(seed % 4);
    out.push_back(gen::BarabasiAlbert(10 + static_cast<uint32_t>(seed),
                                      attach, 1000 + seed));
  }
  return out;
}

/// Exhaustive observational equality between the treap index and its frozen
/// image: every read of the EsdQueryEngine interface, over every relevant
/// tau and a spread of k / min_score / limit values.
void ExpectEngineParity(const EsdIndex& index, const FrozenEsdIndex& frozen) {
  const uint32_t m = static_cast<uint32_t>(index.NumRegisteredEdges());
  ASSERT_EQ(frozen.NumRegisteredEdges(), index.NumRegisteredEdges());
  ASSERT_EQ(frozen.EdgeSlotCount(), index.EdgeSlotCount());
  EXPECT_EQ(frozen.DistinctSizes(), index.DistinctSizes());

  std::vector<uint32_t> sizes = index.DistinctSizes();
  const uint32_t max_size = sizes.empty() ? 0 : sizes.back();
  for (uint32_t tau = 0; tau <= max_size + 2; ++tau) {
    for (uint32_t k : {0u, 1u, 3u, m / 2, m, m + 4}) {
      EXPECT_EQ(frozen.Query(k, tau), index.Query(k, tau))
          << "k=" << k << " tau=" << tau;
      EXPECT_EQ(frozen.Query(k, tau, false), index.Query(k, tau, false))
          << "k=" << k << " tau=" << tau << " (no padding)";
    }
    for (graph::EdgeId e = 0; e < index.EdgeSlotCount(); ++e) {
      if (!index.IsLive(e)) continue;
      EXPECT_EQ(frozen.ScoreOf(e, tau), index.ScoreOf(e, tau))
          << "e=" << e << " tau=" << tau;
    }
  }
}

TEST(FrozenIndexTest, ParityOnRandomGraphs) {
  for (const graph::Graph& g : RandomGraphs()) {
    EsdIndex index = core::BuildIndex(g);
    FrozenEsdIndex frozen = core::Freeze(index);
    ExpectEngineParity(index, frozen);
  }
}

TEST(FrozenIndexTest, FreezeThawFreezeIsIdentity) {
  for (const graph::Graph& g : RandomGraphs()) {
    EsdIndex index = core::BuildIndex(g);
    FrozenEsdIndex frozen = core::Freeze(index);
    EsdIndex thawed = core::Thaw(frozen);
    test::ExpectIndexesEqual(index, thawed);
    EXPECT_TRUE(core::Freeze(thawed) == frozen);
  }
}

TEST(FrozenIndexTest, BuilderFrozenPathsMatchFreeze) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    graph::Graph g = gen::ErdosRenyiGnm(40, 160, seed);
    FrozenEsdIndex want = core::Freeze(core::BuildIndex(g));
    EXPECT_TRUE(core::BuildFrozenIndex(g) == want);
    EXPECT_TRUE(core::BuildFrozenIndex(g, core::EsdScorer(), 4) == want);
    util::ThreadPool pool(3);
    EXPECT_TRUE(FrozenEsdIndex::FromSizePool(
                    g.Edges(),
                    core::CliqueComponentSizes(
                        g, &pool, nullptr,
                        core::ParallelMode::kVertexParallel)) == want);
  }
}

TEST(FrozenIndexTest, FreedSlotsRoundTrip) {
  graph::Graph g = gen::BarabasiAlbert(40, 3, 5);
  EsdIndex index = core::BuildIndex(g);
  // Free a few slots, as the dynamic maintenance path would.
  for (graph::EdgeId e : {2u, 7u, 20u}) {
    index.SetEdgeSizes(e, {});
    index.UnregisterEdge(e);
  }
  FrozenEsdIndex frozen = core::Freeze(index);
  EXPECT_EQ(frozen.NumRegisteredEdges(), index.NumRegisteredEdges());
  for (graph::EdgeId e = 0; e < index.EdgeSlotCount(); ++e) {
    EXPECT_EQ(frozen.IsLive(e), index.IsLive(e));
  }
  ExpectEngineParity(index, frozen);

  // Thaw reproduces the exact slot layout, and re-freezing is an identity.
  EsdIndex thawed = core::Thaw(frozen);
  test::ExpectIndexesEqual(index, thawed);
  for (graph::EdgeId e = 0; e < index.EdgeSlotCount(); ++e) {
    EXPECT_EQ(thawed.IsLive(e), index.IsLive(e));
  }
  EXPECT_TRUE(core::Freeze(thawed) == frozen);

  // The thawed table hands the freed ids out in the original's order.
  for (uint32_t i = 0; i < 4; ++i) {
    const graph::Edge uv{100 + i, 200 + i};
    EXPECT_EQ(thawed.RegisterEdge(uv), index.RegisterEdge(uv)) << i;
  }
}

TEST(FrozenIndexTest, PaddingOrderIsAscendingEdgeId) {
  // A star has zero structural diversity everywhere at tau >= 2, so a
  // padded query is all padding: the documented order is ascending edge id.
  graph::Graph g;
  graph::GraphBuilder b;
  for (uint32_t i = 1; i <= 6; ++i) b.AddEdge(0, i);
  g = b.Build();
  EsdIndex index = core::BuildIndex(g);
  FrozenEsdIndex frozen = core::Freeze(index);
  TopKResult got = frozen.Query(4, 3);
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].score, 0u);
    EXPECT_EQ(got[i].edge, index.EdgeAt(static_cast<graph::EdgeId>(i)));
  }
  EXPECT_EQ(got, index.Query(4, 3));
}

TEST(FrozenIndexTest, QueriesAgainstNaiveGroundTruth) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    graph::Graph g = gen::ErdosRenyiGnm(30, 120, seed);
    FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
    for (uint32_t tau : {2u, 3u}) {
      EXPECT_EQ(core::Scores(frozen.Query(10, tau)),
                test::NaiveTopScores(g, 10, tau));
    }
  }
}

TEST(FrozenIndexTest, EmptyAndDefaultImages) {
  FrozenEsdIndex def;
  EXPECT_EQ(def.Query(5, 2), TopKResult{});
  EXPECT_EQ(def.MemoryBytes(), 0u);

  FrozenEsdIndex empty =
      FrozenEsdIndex::FromSizePool({}, core::EdgeSizePool{{0}, {}});
  EXPECT_EQ(empty.Query(5, 2), TopKResult{});
  EXPECT_EQ(empty.EdgeSlotCount(), 0u);

  // Even a default image (whose offset tables are empty rather than the
  // canonical single zero) serializes to a loadable file, and loading
  // normalizes it to the canonical empty image.
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(def, buf, &error)) << error;
  FrozenEsdIndex back;
  const IndexIoResult res = core::DeserializeFrozenIndex(buf, &back, kEsd);
  ASSERT_TRUE(res) << res.message;
  EXPECT_TRUE(back == empty);
}

TEST(FrozenIndexTest, AdoptRejectsMalformedParts) {
  graph::Graph g = gen::ErdosRenyiGnm(20, 60, 9);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  auto parts_of = [&frozen] {
    FrozenEsdIndex::Parts p;
    p.edges.assign(frozen.Edges().begin(), frozen.Edges().end());
    p.live.assign(frozen.LiveMask().begin(), frozen.LiveMask().end());
    p.size_offsets.assign(frozen.SizeOffsets().begin(),
                          frozen.SizeOffsets().end());
    p.size_pool.assign(frozen.SizePool().begin(), frozen.SizePool().end());
    p.sizes.assign(frozen.Sizes().begin(), frozen.Sizes().end());
    p.offsets.assign(frozen.SlabOffsets().begin(),
                     frozen.SlabOffsets().end());
    p.entries.assign(frozen.Entries().begin(), frozen.Entries().end());
    return p;
  };
  {
    FrozenEsdIndex out;
    std::string error;
    ASSERT_TRUE(FrozenEsdIndex::Adopt(parts_of(), &out, &error)) << error;
    EXPECT_TRUE(out == frozen);
  }
  auto expect_rejected = [](FrozenEsdIndex::Parts p) {
    FrozenEsdIndex out;
    std::string error;
    EXPECT_FALSE(FrozenEsdIndex::Adopt(std::move(p), &out, &error));
    EXPECT_FALSE(error.empty());
  };
  {
    auto p = parts_of();
    p.live.pop_back();  // live mask shorter than the edge table
    expect_rejected(std::move(p));
  }
  {
    auto p = parts_of();
    p.offsets.back() += 1;  // slab offsets no longer cover entries exactly
    expect_rejected(std::move(p));
  }
  {
    auto p = parts_of();
    ASSERT_FALSE(p.entries.empty());
    p.entries[0].score += 1;  // score contradicts the stored multiset
    expect_rejected(std::move(p));
  }
  {
    auto p = parts_of();
    ASSERT_FALSE(p.sizes.empty());
    p.sizes.pop_back();  // C no longer matches the pool's distinct sizes
    expect_rejected(std::move(p));
  }
  {
    // Size offsets that descend only at the end: the pool is cut one value
    // into the second-to-last multiset, so that multiset's range runs past
    // the pool. A fresh vector keeps capacity == size for ASan.
    auto p = parts_of();
    size_t e = p.size_offsets.size() - 2;
    while (p.size_offsets[e] == p.size_offsets[e + 1]) --e;
    ASSERT_GT(p.size_offsets[e], 0u);
    const uint64_t cut = p.size_offsets[e] - 1;
    p.size_pool = decltype(p.size_pool)(p.size_pool.begin(),
                                        p.size_pool.begin() + cut);
    p.size_offsets.back() = cut;
    expect_rejected(std::move(p));
  }
  {
    // Slab offsets that descend only at the end: entries are cut one into
    // the second-to-last slab, so that slab's range runs past them.
    auto p = parts_of();
    ASSERT_GE(p.offsets.size(), 3u);
    const uint64_t cut = p.offsets[p.offsets.size() - 2] - 1;
    p.entries =
        decltype(p.entries)(p.entries.begin(), p.entries.begin() + cut);
    p.offsets.back() = cut;
    expect_rejected(std::move(p));
  }
}

// ---- Delta builder -----------------------------------------------------------

/// A table loaded from `g`'s ESD multisets, logging from the start.
core::EdgeSizeTable TableOf(const graph::Graph& g) {
  core::EdgeSizeTable table;
  table.BulkLoad(g.Edges(), core::CliqueComponentSizes(g));
  table.EnableChangeLog();
  return table;
}

/// The delta of `base` by every slot `table` logged since `pos`.
FrozenEsdIndex DeltaSince(const FrozenEsdIndex& base,
                          const core::EdgeSizeTable& table, uint64_t pos) {
  std::vector<graph::EdgeId> slots;
  EXPECT_TRUE(table.ChangedSince(pos, &slots));
  return FrozenEsdIndex::FromDelta(base, core::CopySlots(table, slots));
}

TEST(FrozenDeltaTest, EachKindOfChangeMatchesFreeze) {
  core::EdgeSizeTable table = TableOf(gen::BarabasiAlbert(40, 3, 5));
  FrozenEsdIndex base = core::Freeze(table);
  const std::vector<uint32_t> c_old = base.DistinctSizes();
  ASSERT_GE(c_old.size(), 2u);
  const uint32_t top = c_old.back();
  // Applies `change` to the table, then checks the delta against Freeze
  // and makes it the next base.
  auto step = [&](const char* what, auto change) {
    const uint64_t pos = table.ChangeLogEnd();
    change();
    const FrozenEsdIndex delta = DeltaSince(base, table, pos);
    EXPECT_TRUE(delta == core::Freeze(table)) << what;
    table.TrimChangeLog(pos);
    base = delta;
  };

  step("empty patch", [] {});
  EXPECT_TRUE(base == core::Freeze(table));
  step("a size enters C", [&] {
    table.SetEdgeSizes(3, std::vector<uint32_t>{1, top + 5});
  });
  EXPECT_EQ(base.DistinctSizes().back(), top + 5);
  step("a size leaves C", [&] { table.SetEdgeSizes(3, std::vector<uint32_t>{2}); });
  EXPECT_EQ(base.DistinctSizes().back(), top);
  step("the top size leaves C", [&] {
    for (graph::EdgeId e = 0; e < table.EdgeSlotCount(); ++e) {
      const std::span<const uint32_t> now = table.EdgeSizes(e);
      if (now.empty() || now.back() != top) continue;
      table.SetEdgeSizes(
          e, std::vector<uint32_t>(
                 now.begin(), std::lower_bound(now.begin(), now.end(), top)));
    }
  });
  EXPECT_LT(base.DistinctSizes().back(), top);
  step("slots grow", [&] {
    for (graph::VertexId v = 50; v < 54; ++v) {
      const graph::EdgeId e = table.RegisterEdge(graph::MakeEdge(v, v + 1));
      table.SetEdgeSizes(e, std::vector<uint32_t>{1, 1, v - 48});
    }
  });
  step("slots freed", [&] {
    for (graph::EdgeId e : {0u, 7u, 8u}) {
      table.SetEdgeSizes(e, {});
      table.UnregisterEdge(e);
    }
  });
  EXPECT_FALSE(base.IsLive(7));
  step("freed slots reused", [&] {
    const graph::EdgeId e = table.RegisterEdge(graph::MakeEdge(60, 61));
    EXPECT_LT(e, 9u);
    table.SetEdgeSizes(e, std::vector<uint32_t>{4, 4});
  });
  EXPECT_EQ(base.NumRegisteredEdges(), table.NumRegisteredEdges());
}

TEST(FrozenDeltaTest, AllSlotsPatchIsFromSizePool) {
  for (const graph::Graph& g : RandomGraphs()) {
    const core::EdgeSizeTable table = TableOf(g);
    std::vector<graph::EdgeId> all(table.EdgeSlotCount());
    for (graph::EdgeId e = 0; e < all.size(); ++e) all[e] = e;
    const FrozenEsdIndex want = FrozenEsdIndex::FromSizePool(
        g.Edges(), core::CliqueComponentSizes(g));
    EXPECT_TRUE(FrozenEsdIndex::FromDelta(FrozenEsdIndex(),
                                          core::CopySlots(table, all)) ==
                want);
    EXPECT_TRUE(FrozenEsdIndex::FromDelta(want, core::CopySlots(table, all)) ==
                want);
  }
}

// Chains of deltas over random edits (arbitrary multisets, so sizes enter
// and leave C, scores tie, and slots are freed, reused and appended) stay
// equal to a full Freeze at every link.
TEST(FrozenDeltaTest, RandomDeltaChainsMatchFreeze) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    core::EdgeSizeTable table = TableOf(gen::ErdosRenyiGnm(24, 60, seed));
    auto random_sizes = [&] {
      std::vector<uint32_t> sizes(rng.NextBounded(5));
      for (uint32_t& c : sizes) c = 1 + static_cast<uint32_t>(rng.NextBounded(12));
      std::sort(sizes.begin(), sizes.end());
      return sizes;
    };
    FrozenEsdIndex base = core::Freeze(table);
    for (int round = 0; round < 40; ++round) {
      const uint64_t pos = table.ChangeLogEnd();
      for (uint64_t op = rng.NextBounded(6); op-- > 0;) {
        const auto e =
            static_cast<graph::EdgeId>(rng.NextBounded(table.EdgeSlotCount()));
        const uint64_t kind = rng.NextBounded(4);
        if (kind == 0) {
          const auto u = static_cast<graph::VertexId>(rng.NextBounded(40));
          const graph::EdgeId added =
              table.RegisterEdge(graph::MakeEdge(u, u + 1));
          table.SetEdgeSizes(added, random_sizes());
        } else if (!table.IsLive(e)) {
          continue;
        } else if (kind == 1) {
          table.SetEdgeSizes(e, {});
          table.UnregisterEdge(e);
        } else {
          table.SetEdgeSizes(e, random_sizes());
        }
      }
      const FrozenEsdIndex delta = DeltaSince(base, table, pos);
      ASSERT_TRUE(delta == core::Freeze(table))
          << "seed " << seed << " round " << round;
      table.TrimChangeLog(pos);
      base = delta;
    }
  }
}

TEST(EdgeSizeTableTest, ChangeLogIsOptInTrimmedAndBounded) {
  const graph::Graph g = gen::BarabasiAlbert(20, 2, 3);
  core::EdgeSizeTable table;
  table.BulkLoad(g.Edges(), core::CliqueComponentSizes(g));
  std::vector<graph::EdgeId> slots;
  table.SetEdgeSizes(1, std::vector<uint32_t>{9});
  EXPECT_FALSE(table.ChangedSince(0, &slots)) << "off by default";
  EXPECT_EQ(table.ChangeLogEnd(), 0u);

  table.EnableChangeLog();
  table.SetEdgeSizes(1, std::vector<uint32_t>{9});  // unchanged: not logged
  EXPECT_EQ(table.ChangeLogEnd(), 0u);
  table.SetEdgeSizes(4, std::vector<uint32_t>{7});
  table.SetEdgeSizes(2, std::vector<uint32_t>{7});
  table.SetEdgeSizes(4, std::vector<uint32_t>{8});
  ASSERT_TRUE(table.ChangedSince(0, &slots));
  EXPECT_EQ(slots, (std::vector<graph::EdgeId>{4, 2, 4}));
  slots.clear();
  ASSERT_TRUE(table.ChangedSince(2, &slots));
  EXPECT_EQ(slots, (std::vector<graph::EdgeId>{4}));

  table.TrimChangeLog(2);
  slots.clear();
  EXPECT_FALSE(table.ChangedSince(1, &slots));
  ASSERT_TRUE(table.ChangedSince(2, &slots));
  EXPECT_EQ(slots, (std::vector<graph::EdgeId>{4}));

  // More writes than slots drop the log: old positions read unavailable.
  const uint64_t before = table.ChangeLogEnd();
  for (size_t i = 0; i <= table.EdgeSlotCount(); ++i) {
    table.SetEdgeSizes(0, std::vector<uint32_t>{static_cast<uint32_t>(i + 1)});
  }
  EXPECT_FALSE(table.ChangedSince(before, &slots));
  const uint64_t after = table.ChangeLogEnd();
  slots.clear();
  EXPECT_TRUE(table.ChangedSince(after, &slots));
  EXPECT_TRUE(slots.empty());

  // A bulk load rewrites every slot: no position before it can patch.
  table.BulkLoad(g.Edges(), core::CliqueComponentSizes(g));
  EXPECT_FALSE(table.ChangedSince(after, &slots));
}

TEST(IndexIoV2Test, FrozenRoundTripV2) {
  for (uint64_t seed : {4u, 8u}) {
    graph::Graph g = gen::BarabasiAlbert(40, 3, seed);
    FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
    std::stringstream buf;
    std::string error;
    ASSERT_TRUE(core::SerializeFrozenIndex(frozen, buf, &error)) << error;
    FrozenEsdIndex back;
    const IndexIoResult res = core::DeserializeFrozenIndex(buf, &back, kEsd);
    ASSERT_TRUE(res) << res.message;
    EXPECT_TRUE(back == frozen);
  }
}

TEST(IndexIoV2Test, V2FileLoadsIntoBothEngines) {
  graph::Graph g = gen::ErdosRenyiGnm(35, 140, 7);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(frozen, buf, &error)) << error;

  FrozenEsdIndex as_frozen;
  const IndexIoResult res = core::DeserializeFrozenIndex(buf, &as_frozen, kEsd);
  ASSERT_TRUE(res) << res.message;
  // The treap engine loads the same file by thawing it.
  const EsdIndex as_treap = core::Thaw(as_frozen);

  EXPECT_TRUE(as_frozen == frozen);
  test::ExpectIndexesEqual(as_treap, core::Thaw(frozen));
  ExpectEngineParity(as_treap, as_frozen);
}

// A save that fails partway (here: at the file-size limit) must leave the
// previous index at the path whole: the file is replaced by one rename of
// a fully written, fsynced temp file, never truncated in place.
TEST(IndexIoV2Test, FailedSaveKeepsPreviousIndex) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("esd_failed_save_" + std::to_string(::getpid()) + ".esdx"))
          .string();
  const FrozenEsdIndex old_index =
      core::BuildFrozenIndex(gen::ErdosRenyiGnm(60, 300, 3));
  const FrozenEsdIndex new_index =
      core::BuildFrozenIndex(gen::ErdosRenyiGnm(300, 3000, 4));
  std::string error;
  ASSERT_TRUE(core::SaveFrozenIndex(old_index, path, &error)) << error;
  std::stringstream image;
  ASSERT_TRUE(core::SerializeFrozenIndex(new_index, image, &error)) << error;
  const rlim_t limit = image.str().size() / 2;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Writes past the limit fail with EFBIG instead of raising SIGXFSZ.
    ::signal(SIGXFSZ, SIG_IGN);
    const rlimit fsize = {limit, limit};
    if (::setrlimit(RLIMIT_FSIZE, &fsize) != 0) ::_exit(3);
    ::_exit(core::SaveFrozenIndex(new_index, path, nullptr) ? 1 : 0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the save over the size limit succeeded";

  FrozenEsdIndex loaded;
  const IndexIoResult res = core::LoadFrozenIndex(path, &loaded, kEsd);
  ASSERT_TRUE(res) << res.message;
  EXPECT_TRUE(loaded == old_index);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(IndexIoV2Test, CorruptV2Rejected) {
  graph::Graph g = gen::ErdosRenyiGnm(25, 80, 13);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(frozen, buf, &error)) << error;
  const std::string good = buf.str();
  auto load = [](const std::string& bytes) {
    std::stringstream in(bytes);
    FrozenEsdIndex out;
    return core::DeserializeFrozenIndex(in, &out, kEsd).status;
  };

  std::string bad = good;
  bad[0] = 'X';  // bad magic
  EXPECT_EQ(load(bad), IndexIoStatus::kFormatError);
  bad = good;
  bad[4] = 99;  // unsupported version
  EXPECT_EQ(load(bad), IndexIoStatus::kFormatError);
  bad = good;
  bad[bad.size() / 2] ^= 0x20;  // the checksum (or Adopt) must catch it
  EXPECT_EQ(load(bad), IndexIoStatus::kFormatError);
  EXPECT_EQ(load(good.substr(0, good.size() - 9)),
            IndexIoStatus::kFormatError);  // truncation
}

/// Byte offsets (into a serialized frozen stream) of each array's u64
/// element count, derived from the actual array lengths: 4 magic + 4
/// version + 4 scorer id, then per array an 8-byte count followed by the
/// payload.
std::vector<size_t> V2CountOffsets(const FrozenEsdIndex& frozen) {
  std::vector<size_t> offsets;
  size_t pos = 12;
  const size_t payload_bytes[] = {
      frozen.Edges().size() * sizeof(graph::Edge),
      frozen.LiveMask().size() * sizeof(uint8_t),
      std::max<size_t>(frozen.SizeOffsets().size(), 1) * sizeof(uint64_t),
      frozen.SizePool().size() * sizeof(uint32_t),
      frozen.Sizes().size() * sizeof(uint32_t),
      std::max<size_t>(frozen.SlabOffsets().size(), 1) * sizeof(uint64_t),
      frozen.Entries().size() * sizeof(FrozenEsdIndex::Entry),
  };
  for (size_t bytes : payload_bytes) {
    offsets.push_back(pos);
    pos += sizeof(uint64_t) + bytes;
  }
  return offsets;
}

TEST(IndexIoV2Test, OversizedCountsRejectedWithoutAllocation) {
  // A corrupt or hostile file may claim any 64-bit element count; the
  // loader must reject it with a parse error before trusting it with an
  // allocation. Fuzz every array's count slot with a spread of oversized
  // values (the driver acceptance case: no multi-GB resize, no n*sizeof(T)
  // overflow — just a clean error).
  graph::Graph g = gen::ErdosRenyiGnm(12, 30, 21);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(frozen, buf, &error)) << error;
  const std::string good = buf.str();

  const uint64_t hostile_counts[] = {
      uint64_t{1} << 61,                      // ~exabyte resize request
      std::numeric_limits<uint64_t>::max(),   // n * sizeof(T) overflows
      static_cast<uint64_t>(good.size()) + 1  // just past the real stream
  };
  for (size_t offset : V2CountOffsets(frozen)) {
    for (uint64_t n : hostile_counts) {
      std::string bad = good;
      std::memcpy(bad.data() + offset, &n, sizeof(n));
      std::stringstream in(bad);
      FrozenEsdIndex out;
      const IndexIoResult res = core::DeserializeFrozenIndex(in, &out, kEsd);
      EXPECT_EQ(res.status, IndexIoStatus::kFormatError)
          << "offset=" << offset << " n=" << n;
      EXPECT_NE(res.message.find("exceeds remaining bytes"), std::string::npos)
          << "offset=" << offset << " n=" << n << " error=" << res.message;
    }
  }
}

TEST(IndexIoV2Test, TruncatedBlockRejected) {
  // Cut the stream mid-payload (not merely at the tail): the length prefix
  // promises more elements than the stream holds.
  graph::Graph g = gen::ErdosRenyiGnm(12, 30, 22);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  ASSERT_FALSE(frozen.Edges().empty());
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(frozen, buf, &error)) << error;
  const std::string good = buf.str();

  // End inside the first element of the edges array: header (8) + scorer
  // (4) + count (8) + half an edge.
  for (size_t keep : {size_t{20}, size_t{20 + sizeof(graph::Edge) / 2},
                      good.size() / 2}) {
    std::stringstream in(good.substr(0, keep));
    FrozenEsdIndex out;
    const IndexIoResult res = core::DeserializeFrozenIndex(in, &out, kEsd);
    EXPECT_EQ(res.status, IndexIoStatus::kFormatError) << keep;
    EXPECT_FALSE(res.message.empty());
  }
}

/// Well-formed streams of the retired versions, each as its writer laid it
/// out: 1 = per-slot records, 2 = frozen arrays, 3 = scorer id + records.
std::vector<std::pair<uint32_t, std::string>> RetiredVersionStreams(
    const EsdIndex& index) {
  auto records = [&index](bool with_scorer) {
    std::ostringstream out(std::ios::binary);
    out << "ESDX" << U32Bytes(with_scorer ? 3 : 1);
    core::BinaryWriter w(out);
    if (with_scorer) w.Put(static_cast<uint32_t>(index.Scorer()));
    w.Put(static_cast<uint64_t>(index.EdgeSlotCount()));
    for (graph::EdgeId e = 0; e < index.EdgeSlotCount(); ++e) {
      const graph::Edge edge = index.EdgeAt(e);
      const std::span<const uint32_t> sizes = index.EdgeSizes(e);
      w.Put(edge.u);
      w.Put(edge.v);
      w.Put(static_cast<uint8_t>(index.IsLive(e) ? 1 : 0));
      w.Put(static_cast<uint32_t>(sizes.size()));
      for (uint32_t size : sizes) w.Put(size);
    }
    const uint64_t checksum = w.checksum();
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    return std::move(out).str();
  };
  // Version 2 is today's stream without the scorer id.
  std::stringstream current;
  std::string error;
  EXPECT_TRUE(
      core::SerializeFrozenIndex(core::Freeze(index), current, &error));
  const std::string v4 = current.str();
  const std::string arrays = v4.substr(12, v4.size() - 12 - 8);
  const std::string v2 = "ESDX" + U32Bytes(2) + arrays +
                         U64Bytes(core::Fnv1a(arrays.data(), arrays.size()));
  return {{1, records(false)}, {2, v2}, {3, records(true)}};
}

// One index format: versions 1-3 are refused typed, by the frozen load and
// by the treap engine's load path (file -> Thaw), which never gets an image
// to thaw.
TEST(IndexIoFormatTest, RetiredVersionsRefusedByFrozenAndThawLoads) {
  graph::Graph g = gen::ErdosRenyiGnm(30, 90, 5);
  const EsdIndex built = core::BuildIndex(g);
  const std::string path = ::testing::TempDir() + "/esd_retired_index.bin";
  for (const auto& [version, bytes] : RetiredVersionStreams(built)) {
    const std::string named = "version " + std::to_string(version);
    std::stringstream in(bytes);
    FrozenEsdIndex out;
    const IndexIoResult res = core::DeserializeFrozenIndex(in, &out, kEsd);
    EXPECT_EQ(res.status, IndexIoStatus::kFormatError) << named;
    EXPECT_NE(res.message.find(named), std::string::npos) << res.message;

    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file << bytes;
    }
    FrozenEsdIndex loaded;
    const IndexIoResult file_res = core::LoadFrozenIndex(path, &loaded, kEsd);
    EXPECT_EQ(file_res.status, IndexIoStatus::kFormatError) << named;
    EXPECT_NE(file_res.message.find(named), std::string::npos)
        << file_res.message;
    EXPECT_TRUE(loaded == FrozenEsdIndex{}) << named;
    EXPECT_EQ(core::Thaw(loaded).EdgeSlotCount(), 0u) << named;
  }
  std::remove(path.c_str());
}

// The surviving header, byte for byte: magic, version 4, scorer id.
TEST(IndexIoFormatTest, HeaderBytesArePinned) {
  graph::Graph g = gen::ErdosRenyiGnm(12, 30, 3);
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(core::BuildFrozenIndex(g), buf,
                                         &error))
      << error;
  EXPECT_EQ(buf.str().substr(0, 12),
            "ESDX" + U32Bytes(4) +
                U32Bytes(static_cast<uint32_t>(core::ScorerKind::kEsd)));
}

TEST(QueryEngineTest, FactoryCoversAllEnginesWithEqualAnswers) {
  graph::Graph g = gen::ErdosRenyiGnm(30, 110, 17);
  TopKResult want;  // treap's answer is the reference
  for (const std::string& name : core::QueryEngineNames()) {
    std::string error;
    std::unique_ptr<core::EsdQueryEngine> engine =
        core::BuildQueryEngine(g, name, core::EsdScorer(), &error);
    ASSERT_NE(engine, nullptr) << error;
    EXPECT_EQ(engine->EngineName(), name);
    TopKResult got = engine->Query(8, 2);
    if (name == "treap") want = got;
    if (name == "treap" || name == "frozen" || name == "dynamic") {
      // Index-backed engines agree exactly, padding included.
      EXPECT_EQ(got, want) << name;
    } else {
      // Online engines may break score ties differently; the score vector
      // is still the same.
      EXPECT_EQ(core::Scores(got), core::Scores(want)) << name;
    }
  }
  std::string error;
  EXPECT_EQ(core::BuildQueryEngine(g, "no-such-engine", core::EsdScorer(),
                                   &error), nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace esd
