#include "core/edge_dsu_arena.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <numeric>

#include "cliques/triangle.h"

namespace esd::core {

using graph::DegreeOrderedDag;
using graph::EdgeId;
using graph::VertexId;
using util::ForRange;

EdgeDsuArena::EdgeDsuArena(const DegreeOrderedDag& dag,
                           util::ThreadPool* pool) {
  const EdgeId m = dag.NumEdges();
  const VertexId n = dag.NumVertices();
  offsets_.assign(m + 1, 0);

  // Each chunk of the vertex range lists with its own n-sized scratch, so
  // the parallel listing runs in a few chunks per thread.
  const unsigned threads = pool == nullptr ? 1 : pool->num_threads();
  const uint64_t grain = std::max<uint64_t>(64, n / (16 * threads));
  auto list = [&](auto&& fn) {
    ForRange(pool, n, grain, [&](uint64_t lo, uint64_t hi) {
      cliques::TriangleScratch scratch(dag);
      for (uint64_t u = lo; u < hi; ++u) {
        cliques::ForEachTriangleOfVertex(dag, static_cast<VertexId>(u),
                                         &scratch, fn);
      }
    });
  };
  // offsets_[e + 1] is edge e's cursor throughout the fill; `bump` advances
  // it and returns the old value. Threads of the parallel fill may bump the
  // same edge, so they go through an atomic_ref.
  auto fill = [&](auto bump) {
    // Count pass: |N(uv)| per edge is its triangle support.
    list([&](const cliques::Triangle& t) {
      bump(t.uv);
      bump(t.uw);
      bump(t.vw);
    });
    // Shifted exclusive prefix sum: offsets_[e + 1] becomes the start of
    // e's slice, so the scatter's bumps leave it at the end of e's slice —
    // the start of e + 1's. No separate cursor array is needed.
    uint64_t total = 0;
    for (EdgeId e = 0; e < m; ++e) {
      const uint64_t support = offsets_[e + 1];
      offsets_[e + 1] = total;
      total += support;
    }
    members_.resize(total);
    // Scatter pass: each triangle's third vertex joins each edge's slice.
    list([&](const cliques::Triangle& t) {
      members_[bump(t.uv)] = t.w;
      members_[bump(t.uw)] = t.v;
      members_[bump(t.vw)] = t.u;
    });
  };
  if (pool != nullptr) {
    fill([this](EdgeId e) {
      return std::atomic_ref<uint64_t>(offsets_[e + 1])
          .fetch_add(1, std::memory_order_relaxed);
    });
  } else {
    fill([this](EdgeId e) { return offsets_[e + 1]++; });
  }

  // Sort each slice so SlotOf can binary-search it; every slot starts as
  // its own singleton component.
  parent_.resize(members_.size());
  count_.assign(members_.size(), 1);
  ForRange(pool, m, 512, [this](uint64_t lo, uint64_t hi) {
    for (uint64_t e = lo; e < hi; ++e) {
      std::sort(members_.begin() + offsets_[e],
                members_.begin() + offsets_[e + 1]);
      std::iota(parent_.begin() + offsets_[e],
                parent_.begin() + offsets_[e + 1],
                static_cast<uint32_t>(offsets_[e]));
    }
  });
}

uint32_t EdgeDsuArena::SlotOf(EdgeId e, VertexId w) const {
  auto slice = Members(e);
  auto it = std::lower_bound(slice.begin(), slice.end(), w);
  assert(it != slice.end() && *it == w);
  return static_cast<uint32_t>(offsets_[e] + (it - slice.begin()));
}

uint32_t EdgeDsuArena::FindSlot(uint32_t s) {
  while (parent_[s] != s) {
    parent_[s] = parent_[parent_[s]];  // path halving
    s = parent_[s];
  }
  return s;
}

void EdgeDsuArena::Union(EdgeId e, VertexId a, VertexId b) {
  uint32_t ra = FindSlot(SlotOf(e, a));
  uint32_t rb = FindSlot(SlotOf(e, b));
  if (ra == rb) return;
  if (count_[ra] < count_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  count_[ra] += count_[rb];
}

uint32_t EdgeDsuArena::NumComponents(EdgeId e) const {
  uint32_t roots = 0;
  for (uint64_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
    roots += parent_[s] == s ? 1 : 0;
  }
  return roots;
}

void EdgeDsuArena::WriteComponentSizes(EdgeId e, uint32_t* out) const {
  uint32_t* end = out;
  for (uint64_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
    if (parent_[s] == s) *end++ = count_[s];
  }
  std::sort(out, end);
}

std::vector<uint32_t> EdgeDsuArena::ComponentSizes(EdgeId e) const {
  std::vector<uint32_t> sizes(NumComponents(e));
  WriteComponentSizes(e, sizes.data());
  return sizes;
}

EdgeSizePool EdgeDsuArena::ComponentSizePool(util::ThreadPool* pool) const {
  const EdgeId m = static_cast<EdgeId>(NumEdges());
  EdgeSizePool out;
  out.offsets.assign(m + 1, 0);
  ForRange(pool, m, 512, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t e = lo; e < hi; ++e) {
      out.offsets[e + 1] = NumComponents(static_cast<EdgeId>(e));
    }
  });
  for (EdgeId e = 0; e < m; ++e) out.offsets[e + 1] += out.offsets[e];
  out.values.resize(out.offsets[m]);
  ForRange(pool, m, 512, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t e = lo; e < hi; ++e) {
      WriteComponentSizes(static_cast<EdgeId>(e),
                          out.values.data() + out.offsets[e]);
    }
  });
  return out;
}

util::KeyedDsu EdgeDsuArena::ToKeyedDsu(EdgeId e) {
  util::KeyedDsu out;
  auto slice = Members(e);
  out.Reserve(slice.size());
  for (VertexId w : slice) out.AddMember(w);
  for (uint64_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
    uint32_t root = FindSlot(static_cast<uint32_t>(s));
    if (root != s) out.Union(members_[s], members_[root]);
  }
  return out;
}

}  // namespace esd::core
