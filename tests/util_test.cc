#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "tests/dsu_oracle.h"
#include "util/binary_heap.h"
#include "util/dsu.h"
#include "util/flag_parse.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/run_pool.h"
#include "util/spinlock.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/treap.h"

namespace esd::util {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextBoundedRoughlyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(19);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextInRange(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolRate) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(hits, 15000, 700);
}

TEST(RngTest, SplitIndependentStreams) {
  Rng a(31);
  Rng b = a.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, Mix64Distinct) {
  std::set<uint64_t> out;
  for (uint64_t i = 0; i < 1000; ++i) out.insert(Mix64(i));
  EXPECT_EQ(out.size(), 1000u);
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

TEST(TimerTest, MonotoneAndResettable) {
  Timer t;
  double a = t.ElapsedSeconds();
  double b = t.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

TEST(TimerTest, UnitConversions) {
  Timer t;
  double s = t.ElapsedSeconds();
  EXPECT_GE(t.ElapsedMillis(), s * 1e3 * 0.5);
  EXPECT_GE(t.ElapsedSeconds(), s);
}

// ---------------------------------------------------------------------------
// FlatMap / FlatSet
// ---------------------------------------------------------------------------

TEST(FlatMapTest, InsertFindBasic) {
  FlatMap<uint32_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(5), nullptr);
  auto [p, inserted] = m.Insert(5, 50);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*p, 50);
  EXPECT_EQ(m.size(), 1u);
  auto [p2, inserted2] = m.Insert(5, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*p2, 50);
}

TEST(FlatMapTest, OperatorBracketDefaultConstructs) {
  FlatMap<uint32_t, int> m;
  EXPECT_EQ(m[7], 0);
  m[7] = 42;
  EXPECT_EQ(m[7], 42);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, EraseBasic) {
  FlatMap<uint32_t, int> m;
  m.Insert(1, 10);
  m.Insert(2, 20);
  EXPECT_TRUE(m.Erase(1));
  EXPECT_FALSE(m.Erase(1));
  EXPECT_EQ(m.Find(1), nullptr);
  ASSERT_NE(m.Find(2), nullptr);
  EXPECT_EQ(*m.Find(2), 20);
}

TEST(FlatMapTest, ClearKeepsWorking) {
  FlatMap<uint32_t, int> m;
  for (uint32_t i = 0; i < 100; ++i) m.Insert(i, static_cast<int>(i));
  m.Clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(10), nullptr);
  m.Insert(10, 1);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, GrowthPreservesContents) {
  FlatMap<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 5000; ++i) m.Insert(i * 7919, i);
  EXPECT_EQ(m.size(), 5000u);
  for (uint64_t i = 0; i < 5000; ++i) {
    auto* p = m.Find(i * 7919);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
}

TEST(FlatMapTest, RandomizedAgainstStdMap) {
  Rng rng(101);
  FlatMap<uint32_t, uint32_t> m;
  std::unordered_map<uint32_t, uint32_t> ref;
  for (int step = 0; step < 20000; ++step) {
    uint32_t key = static_cast<uint32_t>(rng.NextBounded(500));
    switch (rng.NextBounded(3)) {
      case 0: {
        uint32_t val = static_cast<uint32_t>(rng.Next());
        bool inserted = m.Insert(key, val).second;
        bool ref_inserted = ref.emplace(key, val).second;
        EXPECT_EQ(inserted, ref_inserted);
        break;
      }
      case 1: {
        EXPECT_EQ(m.Erase(key), ref.erase(key) > 0);
        break;
      }
      default: {
        auto* p = m.Find(key);
        auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(p, nullptr);
        } else {
          ASSERT_NE(p, nullptr);
          EXPECT_EQ(*p, it->second);
        }
      }
    }
    EXPECT_EQ(m.size(), ref.size());
  }
}

TEST(FlatMapTest, ForEachVisitsAll) {
  FlatMap<uint32_t, uint32_t> m;
  for (uint32_t i = 0; i < 100; ++i) m.Insert(i, i * 2);
  uint64_t key_sum = 0, val_sum = 0;
  m.ForEach([&](uint32_t k, uint32_t v) {
    key_sum += k;
    val_sum += v;
  });
  EXPECT_EQ(key_sum, 99u * 100 / 2);
  EXPECT_EQ(val_sum, 99u * 100);
}

TEST(FlatSetTest, BasicOps) {
  FlatSet<uint64_t> s;
  EXPECT_TRUE(s.Insert(10));
  EXPECT_FALSE(s.Insert(10));
  EXPECT_TRUE(s.Contains(10));
  EXPECT_FALSE(s.Contains(11));
  EXPECT_TRUE(s.Erase(10));
  EXPECT_FALSE(s.Erase(10));
  EXPECT_TRUE(s.empty());
}

// ---------------------------------------------------------------------------
// Dsu
// ---------------------------------------------------------------------------

TEST(DsuTest, SingletonsInitially) {
  test::Dsu d(5);
  EXPECT_EQ(d.NumComponents(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(d.Find(i), i);
    EXPECT_EQ(d.ComponentSize(i), 1u);
  }
}

TEST(DsuTest, UnionMergesAndCounts) {
  test::Dsu d(4);
  EXPECT_TRUE(d.Union(0, 1));
  EXPECT_FALSE(d.Union(1, 0));
  EXPECT_TRUE(d.Union(2, 3));
  EXPECT_EQ(d.NumComponents(), 2u);
  EXPECT_TRUE(d.Union(0, 3));
  EXPECT_EQ(d.NumComponents(), 1u);
  EXPECT_EQ(d.ComponentSize(2), 4u);
  EXPECT_TRUE(d.Same(0, 2));
}

TEST(DsuTest, RandomizedAgainstNaive) {
  Rng rng(55);
  constexpr uint32_t kN = 200;
  test::Dsu d(kN);
  std::vector<uint32_t> label(kN);
  std::iota(label.begin(), label.end(), 0);
  auto naive_union = [&label](uint32_t a, uint32_t b) {
    uint32_t la = label[a], lb = label[b];
    if (la == lb) return;
    for (auto& l : label) {
      if (l == lb) l = la;
    }
  };
  for (int i = 0; i < 500; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.NextBounded(kN));
    uint32_t b = static_cast<uint32_t>(rng.NextBounded(kN));
    d.Union(a, b);
    naive_union(a, b);
    uint32_t x = static_cast<uint32_t>(rng.NextBounded(kN));
    uint32_t y = static_cast<uint32_t>(rng.NextBounded(kN));
    EXPECT_EQ(d.Same(x, y), label[x] == label[y]);
    EXPECT_EQ(d.ComponentSize(x),
              static_cast<uint32_t>(
                  std::count(label.begin(), label.end(), label[x])));
  }
}

// ---------------------------------------------------------------------------
// RunPool
// ---------------------------------------------------------------------------

// Seeded rewrite, grow, shrink and delete sequences against one
// std::vector per run. Every run must read back its model after every
// write, the live count must match, the dead entries must stay within the
// compaction bound, and compaction must actually fire.
TEST(RunPoolTest, RandomRewritesMatchPerRunVectors) {
  Rng rng(0x9001);
  std::vector<std::vector<uint32_t>> model(40);
  std::vector<uint64_t> offsets{0};
  std::vector<uint32_t> values;
  for (auto& run : model) {
    run.resize(rng.NextBounded(6));
    for (uint32_t& x : run) x = static_cast<uint32_t>(rng.NextBounded(1000));
    values.insert(values.end(), run.begin(), run.end());
    offsets.push_back(values.size());
  }
  RunPool<uint32_t> pool;
  pool.Adopt(std::span<const uint64_t>(offsets), values);
  std::vector<uint32_t> fresh;
  for (int step = 0; step < 4000; ++step) {
    const size_t r = rng.NextBounded(model.size());
    const size_t was = model[r].size();
    size_t n = was;
    switch (rng.NextBounded(5)) {
      case 0:  // rewrite, same length
        break;
      case 1:  // grow
        n = was + 1 + rng.NextBounded(8);
        break;
      case 2:  // shrink
        n = was == 0 ? 0 : rng.NextBounded(was);
        break;
      case 3:  // delete
        n = 0;
        break;
      case 4:  // a new run
        pool.AddRun();
        model.emplace_back();
        continue;
    }
    fresh.resize(n);
    for (uint32_t& x : fresh) x = static_cast<uint32_t>(rng.NextBounded(1000));
    if (rng.NextBool(0.5)) {
      pool.Assign(r, fresh);
    } else {
      // Resize keeps the run's prefix; the tail is then written in place.
      const std::span<uint32_t> run = pool.Resize(r, n);
      for (size_t i = 0; i < std::min(was, n); ++i) {
        ASSERT_EQ(run[i], model[r][i]) << "step " << step;
      }
      std::copy(fresh.begin(), fresh.end(), run.begin());
    }
    model[r] = fresh;
    size_t live = 0;
    ASSERT_EQ(pool.NumRuns(), model.size());
    for (size_t i = 0; i < model.size(); ++i) {
      const std::span<const uint32_t> got = pool.Run(i);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), model[i].begin(),
                             model[i].end()))
          << "run " << i << " at step " << step;
      live += model[i].size();
    }
    ASSERT_EQ(pool.LiveEntries(), live);
    ASSERT_LE(pool.DeadEntries(), live + model.size());
  }
  EXPECT_GT(pool.Compactions(), 0u);
}

// ---------------------------------------------------------------------------
// KeyedDsu
// ---------------------------------------------------------------------------

TEST(KeyedDsuTest, AddFindUnion) {
  KeyedDsuPool pool(1);
  KeyedDsu d = pool[0];
  EXPECT_TRUE(d.AddMember(100));
  EXPECT_TRUE(d.AddMember(7));
  EXPECT_FALSE(d.AddMember(100));
  EXPECT_EQ(d.NumMembers(), 2u);
  EXPECT_EQ(d.NumComponents(), 2u);
  EXPECT_TRUE(d.Union(100, 7));
  EXPECT_FALSE(d.Union(7, 100));
  EXPECT_EQ(d.NumComponents(), 1u);
  EXPECT_EQ(d.ComponentSize(7), 2u);
  EXPECT_TRUE(d.Same(100, 7));
}

TEST(KeyedDsuTest, ComponentSizesSorted) {
  KeyedDsuPool pool(1);
  KeyedDsu d = pool[0];
  for (uint32_t v : {1u, 2u, 3u, 4u, 5u, 6u}) d.AddMember(v);
  d.Union(1, 2);
  d.Union(2, 3);
  d.Union(4, 5);
  std::vector<uint32_t> sizes = {99};
  d.ComponentSizes(&sizes);
  EXPECT_EQ(sizes, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(KeyedDsuTest, RemoveSingletonRules) {
  KeyedDsuPool pool(1);
  KeyedDsu d = pool[0];
  d.AddMember(1);
  d.AddMember(2);
  d.Union(1, 2);
  EXPECT_FALSE(d.RemoveSingleton(1));  // in a size-2 component
  EXPECT_FALSE(d.RemoveSingleton(99));  // not a member
  d.AddMember(3);
  EXPECT_TRUE(d.RemoveSingleton(3));
  EXPECT_FALSE(d.Contains(3));
  EXPECT_EQ(d.NumMembers(), 2u);
}

TEST(KeyedDsuTest, ComponentMembersAndRemoveComponent) {
  KeyedDsuPool pool(1);
  KeyedDsu d = pool[0];
  for (uint32_t v : {10u, 20u, 30u, 40u}) d.AddMember(v);
  d.Union(10, 20);
  d.Union(20, 30);
  std::vector<uint32_t> members = {99};
  d.ComponentMembers(30, &members);
  EXPECT_EQ(members, (std::vector<uint32_t>{10, 20, 30}));
  d.RemoveComponent(10);
  EXPECT_FALSE(d.Contains(10));
  EXPECT_FALSE(d.Contains(20));
  EXPECT_FALSE(d.Contains(30));
  EXPECT_TRUE(d.Contains(40));
  EXPECT_EQ(d.NumComponents(), 1u);
  EXPECT_EQ(d.NumMembers(), 1u);
}

TEST(KeyedDsuTest, ResurrectAfterRemove) {
  KeyedDsuPool pool(1);
  KeyedDsu d = pool[0];
  d.AddMember(5);
  EXPECT_TRUE(d.RemoveSingleton(5));
  EXPECT_TRUE(d.AddMember(5));
  EXPECT_TRUE(d.Contains(5));
  EXPECT_EQ(d.ComponentSize(5), 1u);
}

TEST(KeyedDsuTest, RandomizedUnionsMatchDsu) {
  Rng rng(77);
  constexpr uint32_t kN = 150;
  KeyedDsuPool pool(1);
  KeyedDsu keyed = pool[0];
  test::Dsu flat(kN);
  // Keys are sparse: vertex i maps to i * 1000003.
  auto key = [](uint32_t i) { return i * 1000003u; };
  for (uint32_t i = 0; i < kN; ++i) keyed.AddMember(key(i));
  for (int step = 0; step < 400; ++step) {
    uint32_t a = static_cast<uint32_t>(rng.NextBounded(kN));
    uint32_t b = static_cast<uint32_t>(rng.NextBounded(kN));
    EXPECT_EQ(keyed.Union(key(a), key(b)), flat.Union(a, b));
    EXPECT_EQ(keyed.NumComponents(), flat.NumComponents());
    uint32_t x = static_cast<uint32_t>(rng.NextBounded(kN));
    EXPECT_EQ(keyed.ComponentSize(key(x)), flat.ComponentSize(x));
  }
}

// Cycles `vertices` distinct vertices through one KeyedDsu, at most
// `max_live` members at a time: batches of one to three enter by AddMember
// or AddMembers, each is united with a random member, and whole components
// leave by RemoveSingleton or RemoveComponent. The partition is checked
// against a label model after every batch. Vertex ids are scattered, so
// members enter and leave the middle of the slot run. Returns the largest
// MemoryBytes() of the one-structure pool seen.
size_t ChurnAgainstModel(uint32_t vertices, size_t max_live, uint64_t seed) {
  Rng rng(seed);
  KeyedDsuPool pool(1);
  KeyedDsu d = pool[0];
  std::map<uint32_t, uint32_t> label;  // member -> component label
  auto component = [&label](uint32_t l) {
    std::vector<uint32_t> out;
    for (const auto& [v, lv] : label) {
      if (lv == l) out.push_back(v);
    }
    return out;
  };
  auto any_member = [&] {
    auto it = label.begin();
    std::advance(it, rng.NextBounded(label.size()));
    return it->first;
  };
  size_t peak = 0;
  std::vector<uint32_t> batch;
  for (uint32_t i = 0; i < vertices;) {
    batch.clear();
    for (uint64_t k = 1 + rng.NextBounded(3); k > 0 && i < vertices; --k) {
      batch.push_back(static_cast<uint32_t>((uint64_t{i++} * 7919) % 1000003));
    }
    std::sort(batch.begin(), batch.end());
    while (label.size() + batch.size() > max_live) {
      const uint32_t w = any_member();
      const std::vector<uint32_t> comp = component(label[w]);
      if (comp.size() == 1) {
        EXPECT_TRUE(d.RemoveSingleton(w));
      } else {
        EXPECT_FALSE(d.RemoveSingleton(w));
        d.RemoveComponent(w);
      }
      for (uint32_t x : comp) label.erase(x);
    }
    if (batch.size() == 1) {
      EXPECT_TRUE(d.AddMember(batch[0]));
    } else {
      d.AddMembers(batch);
    }
    for (uint32_t v : batch) {
      EXPECT_FALSE(d.AddMember(v));
      label[v] = v;
    }
    for (uint32_t v : batch) {
      const uint32_t w = any_member();
      EXPECT_EQ(d.Union(v, w), label[v] != label[w]);
      const uint32_t from = label[w], to = label[v];
      for (auto& [x, l] : label) {
        if (l == from) l = to;
      }
    }
    EXPECT_EQ(d.NumMembers(), label.size());
    for (const auto& [x, l] : label) {
      EXPECT_TRUE(d.Contains(x));
      EXPECT_EQ(d.ComponentSize(x), component(l).size());
      EXPECT_EQ(label.at(d.Find(x)), l);
    }
    std::vector<uint32_t> members;
    d.ComponentMembers(batch[0], &members);
    EXPECT_EQ(members, component(label[batch[0]]));
    peak = std::max(peak, pool.MemoryBytes());
  }
  return peak;
}

// Memory follows the members present, however many distinct vertices have
// passed through: a removed member's slot is dead until the pool compacts,
// which it does once the dead slots outnumber the live ones and the run.
// With at most 4 members live, the buffer holds under 16 slots (up to 4
// live, 5 dead and one 4-slot relocation), and its capacity at most twice
// that.
TEST(KeyedDsuTest, ChurnMemoryFollowsLiveMembers) {
  const size_t peak = ChurnAgainstModel(10000, 4, 17);
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak, 32 * sizeof(KeyedDsu::Slot) + 16);
}

TEST(KeyedDsuTest, RandomChurnMatchesModel) {
  ChurnAgainstModel(2000, 48, 29);
}

// ---------------------------------------------------------------------------
// Treap
// ---------------------------------------------------------------------------

TEST(TreapTest, InsertEraseContains) {
  Treap<int> t;
  EXPECT_TRUE(t.Insert(3));
  EXPECT_TRUE(t.Insert(1));
  EXPECT_TRUE(t.Insert(2));
  EXPECT_FALSE(t.Insert(2));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.Contains(2));
  EXPECT_TRUE(t.Erase(2));
  EXPECT_FALSE(t.Erase(2));
  EXPECT_FALSE(t.Contains(2));
  EXPECT_EQ(t.size(), 2u);
}

TEST(TreapTest, InOrderTraversalSorted) {
  Treap<int> t;
  Rng rng(5);
  std::set<int> ref;
  for (int i = 0; i < 500; ++i) {
    int x = static_cast<int>(rng.NextBounded(10000));
    t.Insert(x);
    ref.insert(x);
  }
  std::vector<int> got;
  t.ForEachInOrder([&](int x) {
    got.push_back(x);
    return true;
  });
  EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin(), ref.end()));
}

TEST(TreapTest, TopKStopsEarly) {
  Treap<int> t;
  for (int i = 0; i < 100; ++i) t.Insert(i);
  // The first k keys in order, as the H(c) top-k scan takes them.
  auto first = [&t](size_t k, bool* finished) {
    std::vector<int> out;
    *finished = t.ForEachInOrder([&](int x) {
      if (out.size() >= k) return false;
      out.push_back(x);
      return true;
    });
    return out;
  };
  bool finished = true;
  EXPECT_EQ(first(5, &finished), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(finished);
  EXPECT_EQ(first(1000, &finished).size(), 100u);
  EXPECT_TRUE(finished);
  EXPECT_TRUE(first(0, &finished).empty());
  EXPECT_FALSE(finished);
}

TEST(TreapTest, BuildFromSortedMatchesInserts) {
  std::vector<int> keys(1000);
  std::iota(keys.begin(), keys.end(), 0);
  Treap<int> bulk;
  bulk.BuildFromSorted(keys);
  EXPECT_EQ(bulk.size(), keys.size());
  EXPECT_TRUE(bulk.ValidateStructure());
  std::vector<int> got;
  bulk.ForEachInOrder([&](int x) {
    got.push_back(x);
    return true;
  });
  EXPECT_EQ(got, keys);
  // Mutations after bulk build behave.
  EXPECT_TRUE(bulk.Erase(500));
  EXPECT_TRUE(bulk.Insert(500));
  EXPECT_TRUE(bulk.Contains(500));
}

TEST(TreapTest, CopyIsIndependent) {
  Treap<int> a;
  for (int i = 0; i < 50; ++i) a.Insert(i);
  Treap<int> b = a;  // clone, as used by index maintenance
  b.Erase(10);
  b.Insert(1000);
  EXPECT_TRUE(a.Contains(10));
  EXPECT_FALSE(a.Contains(1000));
  EXPECT_EQ(a.size(), 50u);
  EXPECT_EQ(b.size(), 50u);
}

TEST(TreapTest, RandomizedAgainstStdSet) {
  Rng rng(999);
  Treap<uint32_t> t;
  std::set<uint32_t> ref;
  for (int step = 0; step < 20000; ++step) {
    uint32_t x = static_cast<uint32_t>(rng.NextBounded(300));
    switch (rng.NextBounded(4)) {
      case 0:
        EXPECT_EQ(t.Insert(x), ref.insert(x).second);
        break;
      case 1:
        EXPECT_EQ(t.Erase(x), ref.erase(x) > 0);
        break;
      case 2:
        EXPECT_EQ(t.Contains(x), ref.count(x) > 0);
        break;
      default: {
        // The first i keys in order, stopping early as a top-k scan does.
        const size_t i = rng.NextBounded(ref.size() + 1);
        std::vector<uint32_t> prefix;
        const bool finished = t.ForEachInOrder([&](uint32_t key) {
          if (prefix.size() >= i) return false;
          prefix.push_back(key);
          return true;
        });
        EXPECT_EQ(finished, i >= ref.size());
        EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), ref.begin(),
                               std::next(ref.begin(), static_cast<long>(i))));
      }
    }
    EXPECT_EQ(t.size(), ref.size());
  }
  EXPECT_TRUE(t.ValidateStructure());
}

struct ScoreKey {
  uint32_t score;
  uint32_t edge;
};
struct ScoreKeyLess {
  bool operator()(const ScoreKey& a, const ScoreKey& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.edge < b.edge;
  }
};

TEST(TreapTest, CustomComparatorDescendingScore) {
  Treap<ScoreKey, ScoreKeyLess> t;
  t.Insert({5, 1});
  t.Insert({7, 2});
  t.Insert({5, 0});
  std::vector<uint32_t> edges;
  t.ForEachInOrder([&](const ScoreKey& k) {
    edges.push_back(k.edge);
    return true;
  });
  EXPECT_EQ(edges, (std::vector<uint32_t>{2, 0, 1}));
}

// ---------------------------------------------------------------------------
// BinaryHeap
// ---------------------------------------------------------------------------

TEST(BinaryHeapTest, PopsInPriorityOrder) {
  BinaryHeap<int> h;
  h.Push(1, 10);
  h.Push(2, 30);
  h.Push(3, 20);
  EXPECT_EQ(h.Pop().value, 2);
  EXPECT_EQ(h.Pop().value, 3);
  EXPECT_EQ(h.Pop().value, 1);
  EXPECT_TRUE(h.empty());
}

TEST(BinaryHeapTest, TopDoesNotPop) {
  BinaryHeap<int> h;
  h.Push(5, 1);
  EXPECT_EQ(h.Top().value, 5);
  EXPECT_EQ(h.size(), 1u);
}

TEST(BinaryHeapTest, RandomizedAgainstStdPriorityQueue) {
  Rng rng(404);
  BinaryHeap<uint64_t, int64_t> h;
  std::priority_queue<std::pair<int64_t, uint64_t>> ref;
  for (int step = 0; step < 20000; ++step) {
    if (ref.empty() || rng.NextBool(0.55)) {
      int64_t prio = static_cast<int64_t>(rng.NextBounded(1000));
      uint64_t val = rng.Next();
      h.Push(val, prio);
      ref.emplace(prio, val);
    } else {
      auto entry = h.Pop();
      // Priorities must match; values may differ on ties.
      EXPECT_EQ(entry.priority, ref.top().first);
      ref.pop();
    }
    EXPECT_EQ(h.size(), ref.size());
  }
}

// ---------------------------------------------------------------------------
// ThreadPool / SpinLock
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRangeOnce) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.ParallelFor(0, hits.size(), 7, [&](uint64_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 10; ++round) {
    pool.ParallelFor(0, 100, 3, [&](uint64_t i) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 10u * (99 * 100 / 2));
}

TEST(ThreadPoolTest, ChunkedSeesWholeRange) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  pool.ParallelForChunked(10, 1010, 64, [&](uint64_t lo, uint64_t hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 1000u);
}

TEST(SpinLockTest, MutualExclusionUnderContention) {
  ThreadPool pool(4);
  SpinLock lock;
  int64_t counter = 0;  // deliberately non-atomic; protected by the lock
  pool.ParallelFor(0, 20000, 16, [&](uint64_t) {
    SpinLockGuard guard(lock);
    ++counter;
  });
  EXPECT_EQ(counter, 20000);
}

TEST(StripedLocksTest, PowerOfTwoStripesAndStableMapping) {
  StripedLocks locks(100);
  EXPECT_EQ(locks.num_stripes(), 128u);
  EXPECT_EQ(&locks.ForKey(42), &locks.ForKey(42));
}

TEST(ThreadPoolPostTest, TasksRunAndDrainBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.Post([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains everything still queued
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolPostTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  bool ran = false;
  pool.Post([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // no worker exists; Post must have run it inline
}

TEST(ThreadPoolPostTest, PostedTasksInterleaveWithParallelFor) {
  ThreadPool pool(4);
  std::atomic<int> tasks{0};
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 5; ++i) {
      pool.Post([&tasks] { tasks.fetch_add(1); });
    }
    pool.ParallelFor(0, 1000, 16, [&sum](uint64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  // ParallelFor must still cover every index despite competing tasks.
  EXPECT_EQ(sum.load(), 20ull * (999ull * 1000ull / 2));
  // Give queued tasks their guaranteed drain point: the destructor.
  // (Checked implicitly; here we just wait for the count.)
  while (tasks.load() < 100) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(tasks.load(), 100);
}

// The binaries' numeric flags: a sign, trailing junk, a non-number or
// overflow is refused instead of wrapping or reading as a prefix.
TEST(FlagParseTest, RejectsSignsJunkAndOverflow) {
  uint32_t k = 7;
  EXPECT_TRUE(ParseFlagValue("3", &k));
  EXPECT_EQ(k, 3u);
  EXPECT_TRUE(ParseFlagValue("4294967295", &k));
  EXPECT_EQ(k, 4294967295u);
  for (const char* bad : {"-1", "3x", "abc", "", "+3", " 3", "4294967296"}) {
    EXPECT_FALSE(ParseFlagValue(bad, &k)) << '"' << bad << '"';
  }
  uint16_t port = 0;
  EXPECT_FALSE(ParseFlagValue("70000", &port));

  double scale = 0;
  EXPECT_TRUE(ParseFlagValue("0.05", &scale));
  EXPECT_DOUBLE_EQ(scale, 0.05);
  for (const char* bad : {"abc", "", "0", "-0.5", "0.5x", "inf", "nan"}) {
    EXPECT_FALSE(ParseFlagValue(bad, &scale)) << '"' << bad << '"';
  }

  std::string name;
  EXPECT_TRUE(ParseFlagValue("youtube-s", &name));
  EXPECT_EQ(name, "youtube-s");
}

}  // namespace
}  // namespace esd::util
