#include "core/edge_dsu_arena.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "cliques/triangle.h"

namespace esd::core {

using graph::DegreeOrderedDag;
using graph::EdgeId;
using graph::VertexId;
using util::ForRange;

void EdgeDsuArena::CheckSlotCount(uint64_t total) {
  if (total > kMaxSlots) {
    throw std::length_error(
        "EdgeDsuArena: " + std::to_string(total) +
        " common-neighbour memberships exceed the 31-bit slot width");
  }
}

EdgeDsuArena::EdgeDsuArena(const DegreeOrderedDag& dag,
                           util::ThreadPool* pool) {
  const EdgeId m = dag.NumEdges();
  const VertexId n = dag.NumVertices();
  offsets_.assign(m + 1, 0);
  upper_.assign(m, 0);
  first_.assign(m, 0);

  // The vertex range splits into chunks: one serially, a few per thread on
  // a pool. Chunk c lists its vertices once, in order, into its own region
  // of the triangle table, and the sweep later walks the same chunk's
  // triangles. Triangle ids follow chunk order, which is u-major order.
  const unsigned threads = pool == nullptr ? 1 : pool->num_threads();
  const uint64_t grain =
      pool == nullptr ? std::max<uint64_t>(1, n)
                      : std::max<uint64_t>(64, n / (16 * threads));
  const uint64_t num_chunks = (uint64_t{n} + grain - 1) / grain;
  auto chunk_range = [&](uint64_t c) {
    return std::pair<VertexId, VertexId>(
        static_cast<VertexId>(c * grain),
        static_cast<VertexId>(std::min<uint64_t>(n, (c + 1) * grain)));
  };
  // Only lower sections are written from several chunks: the upper and
  // middle sections of a→b, and their counts, belong to a's. On a pool the
  // lower bumps go through an atomic_ref.
  auto atomic_add = [](uint32_t& x, int32_t d) {
    return std::atomic_ref<uint32_t>(x).fetch_add(static_cast<uint32_t>(d),
                                                  std::memory_order_relaxed);
  };

  // The listing. first_[e] holds e's middle count until the prefix sum,
  // offsets_[e + 1] its lower count. Each triangle's record is (index of v
  // in N+(u), index of w in N+(u), edge v→w). Chunk c writes its records
  // into its own region of the triangle table, sized by a bound on its
  // triangles, Σ_u C(d+(u), 2); the table is page-mapped, so only the
  // pages written are paged in. A region stops one record past what the
  // slot width holds; a chunk that fills it records no more, and the check
  // below refuses the build. No triangle id exists before it.
  constexpr uint64_t kMaxTriangles = kMaxSlots / 3;
  std::vector<uint64_t> region(num_chunks + 1, 0);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    const auto [lo, hi] = chunk_range(c);
    uint64_t bound = 0;
    for (VertexId u = lo; u < hi; ++u) {
      const uint64_t d = dag.OutDegree(u);
      bound += d * (d - 1) / 2;  // 0 for d = 0: unsigned wrap times 0
    }
    region[c + 1] = region[c] + std::min(bound, kMaxTriangles + 1);
  }
  tri_.resize(region[num_chunks]);
  std::vector<uint64_t> listed(num_chunks, 0);
  ForRange(pool, num_chunks, 1, [&](uint64_t c_lo, uint64_t c_hi) {
    cliques::TriangleScratch scratch(dag);
    for (uint64_t c = c_lo; c < c_hi; ++c) {
      const auto [lo, hi] = chunk_range(c);
      TriangleSlots* out = tri_.data() + region[c];
      const uint64_t cap = region[c + 1] - region[c];
      uint64_t k = 0;
      for (VertexId u = lo; u < hi; ++u) {
        cliques::ForEachTriangleOfVertex(
            dag, u, &scratch, [&](const cliques::Triangle& t) {
              if (k == cap) return;
              out[k++] = {t.vi, t.wi, t.vw};
              ++upper_[t.uv];
              ++first_[t.uw];
              if (pool != nullptr) {
                atomic_add(offsets_[t.vw + 1], 1);
              } else {
                ++offsets_[t.vw + 1];
              }
            });
      }
      listed[c] = k;
    }
  });
  uint64_t num_triangles = 0;
  for (uint64_t k : listed) num_triangles += k;
  // Before any slot-sized table exists.
  CheckSlotCount(3 * num_triangles);
  // Close the gaps between the regions, in chunk order. A lone chunk's
  // records are already in place.
  for (uint64_t c = 0, end = 0; c < num_chunks; end += listed[c++]) {
    if (region[c] == end) continue;
    std::memmove(tri_.data() + end, tri_.data() + region[c],
                 listed[c] * sizeof(TriangleSlots));
  }
  tri_.resize(num_triangles);

  // Prefix sum. first_[e] becomes e's lower-section cursor: its start for
  // the serial sweep, which writes upwards, and its end for the pooled
  // sweep, which writes downwards and so leaves the cursor at the start.
  uint64_t total = 0;
  for (EdgeId e = 0; e < m; ++e) {
    const uint64_t start = total;
    const uint64_t lower_start = start + upper_[e] + first_[e];
    total = lower_start + offsets_[e + 1];
    first_[e] = static_cast<uint32_t>(pool != nullptr ? total : lower_start);
    offsets_[e + 1] = static_cast<uint32_t>(total);
  }
  assert(total == 3 * num_triangles);
  // Triangle ids: u's triangles start at base[u].
  std::vector<uint32_t> base(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    uint32_t t = base[u];
    for (EdgeId e : dag.OutEdges(u)) t += upper_[e];
    base[u + 1] = t;
  }

  members_.resize(total);
  parent_.assign(total, kRoot | 1);
  tri_vw_.resize(num_triangles);

  // The sweep turns each record into the triangle's slots in place. Each
  // section receives its vertices in ascending id: triangle (u, v, w) puts
  // w in upper(u→v), in N+(v) order; v in middle(u→w), in N+(u) order; u
  // in lower(v→w), in listing order. The middle cursor of edge u→w is
  // keyed by w's index in N+(u).
  ForRange(pool, num_chunks, 1, [&](uint64_t c_lo, uint64_t c_hi) {
    std::vector<uint32_t> mid(dag.MaxOutDegree(), 0);
    for (uint64_t c = c_lo; c < c_hi; ++c) {
      const auto [lo, hi] = chunk_range(c);
      for (VertexId u = lo; u < hi; ++u) {
        auto nu = dag.OutNeighbors(u);
        auto eu = dag.OutEdges(u);
        uint32_t upper_slot = 0;
        uint32_t upper_index = UINT32_MAX;
        for (uint32_t id = base[u]; id < base[u + 1]; ++id) {
          const TriangleSlots r = tri_[id];  // (v's index, w's index, v→w)
          const EdgeId uv = eu[r.uv], uw = eu[r.uw], vw = r.vw;
          if (r.uv != upper_index) {
            upper_index = r.uv;
            upper_slot = offsets_[uv];
          }
          TriangleSlots& s = tri_[id];
          s.uv = upper_slot++;
          s.uw = offsets_[uw] + upper_[uw] + mid[r.uw]++;
          if (pool != nullptr) {
            s.vw = atomic_add(first_[vw], -1) - 1;
            parent_[s.vw] = id;  // parked for the repair below
          } else {
            s.vw = first_[vw]++;
          }
          tri_vw_[id] = vw;
          members_[s.uv] = nu[r.uw];
          members_[s.uw] = nu[r.uv];
          members_[s.vw] = u;
        }
        std::fill_n(mid.begin(), nu.size(), 0);
      }
    }
  });

  // The pooled sweep's lower sections hold their vertices in thread
  // order. Sorting each by vertex id sorts it by triangle id (both are the
  // listing vertex's order), and the parked ids say whose slot moved.
  if (pool != nullptr) {
    ForRange(pool, m, 512, [this](uint64_t lo, uint64_t hi) {
      std::vector<std::pair<VertexId, uint32_t>> lower;
      for (uint64_t e = lo; e < hi; ++e) {
        const uint32_t begin = first_[e], end = offsets_[e + 1];
        lower.clear();
        for (uint32_t s = begin; s < end; ++s) {
          lower.emplace_back(members_[s], parent_[s]);
        }
        std::sort(lower.begin(), lower.end());
        for (uint32_t s = begin; s < end; ++s) {
          members_[s] = lower[s - begin].first;
          tri_[lower[s - begin].second].vw = s;
          parent_[s] = kRoot | 1;
        }
      }
    });
  }
  // first_[e] of arc e = a→b: a's triangle base plus the upper sections of
  // a's earlier arcs.
  ForRange(pool, n, grain, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t u = lo; u < hi; ++u) {
      uint32_t t = base[u];
      for (EdgeId e : dag.OutEdges(static_cast<VertexId>(u))) {
        first_[e] = t;
        t += upper_[e];
      }
    }
  });
}

uint32_t EdgeDsuArena::UpperTriangle(EdgeId e, VertexId w,
                                     uint32_t* cursor) const {
  const VertexId* upper = members_.data() + offsets_[e];
  const uint32_t size = upper_[e];
  // Gallop while upper[i] <= w, then binary-search the last step.
  uint32_t i = *cursor;
  uint32_t step = 1;
  while (i + step < size && upper[i + step] <= w) {
    i += step;
    step <<= 1;
  }
  const VertexId* end = upper + std::min<uint64_t>(uint64_t{i} + step, size);
  const auto r = static_cast<uint32_t>(std::lower_bound(upper + i, end, w) -
                                       upper);
  assert(r < size && upper[r] == w);
  *cursor = r;
  return first_[e] + r;
}

void EdgeDsuArena::Union(uint32_t a, uint32_t b) {
  util::DsuUnion(parent_, a, b);
}

uint32_t EdgeDsuArena::NumComponents(EdgeId e) const {
  uint32_t roots = 0;
  for (uint32_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
    roots += (parent_[s] & kRoot) != 0 ? 1 : 0;
  }
  return roots;
}

void EdgeDsuArena::WriteComponentSizes(EdgeId e, uint32_t* out) const {
  uint32_t* end = out;
  for (uint32_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
    if ((parent_[s] & kRoot) != 0) *end++ = parent_[s] & ~kRoot;
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

EdgeSizePool EdgeDsuArena::ExportDsus(util::KeyedDsuPool* out,
                                      util::ThreadPool* pool) {
  using Slot = util::KeyedDsu::Slot;
  constexpr VertexId kNone = UINT32_MAX;
  constexpr uint64_t kGrain = 512;
  const uint64_t m = NumEdges();
  std::vector<Slot> slots(members_.size());
  // Each range's component sizes, in edge order. A range starts at a
  // multiple of the grain (the one unpooled range at 0), which keys it.
  EdgeSizePool sizes;
  sizes.offsets.assign(m + 1, 0);
  std::vector<std::vector<uint32_t>> found(
      pool != nullptr ? std::max<uint64_t>(1, (m + kGrain - 1) / kGrain) : 1);
  ForRange(pool, m, kGrain, [&](uint64_t e_lo, uint64_t e_hi) {
    std::vector<uint32_t> pos;  // arena slot - lo -> position in the run
    std::vector<uint32_t>& values = found[e_lo / kGrain];
    values.reserve(e_hi - e_lo);
    for (uint64_t e = e_lo; e < e_hi; ++e) {
      // The middle and lower sections are each ascending, so the first
      // descent after the upper section (if any) is where the lower one
      // starts.
      const uint32_t lo = offsets_[e], mid = lo + upper_[e];
      const uint32_t hi = offsets_[e + 1];
      uint32_t lower = mid;
      while (lower + 1 < hi && members_[lower] < members_[lower + 1]) ++lower;
      lower = std::min(lower + 1, hi);
      // Merge the three sections by vertex. A word holds its root's arena
      // slot for now.
      pos.resize(hi - lo);
      Slot* run = slots.data() + lo;
      uint32_t a = lo, b = mid, c = lower;
      for (uint32_t k = 0; k < hi - lo; ++k) {
        const VertexId x = a < mid ? members_[a] : kNone;
        const VertexId y = b < lower ? members_[b] : kNone;
        const VertexId z = c < hi ? members_[c] : kNone;
        const uint32_t s = x < y && x < z ? a++ : y < z ? b++ : c++;
        pos[s - lo] = k;
        const uint32_t root = util::DsuFind(parent_, s);
        run[k] = {members_[s], root == s ? parent_[s] : root};
      }
      // Each root's arena slot becomes its position in member order, and
      // each root's size joins C_e.
      const size_t first = values.size();
      for (uint32_t k = 0; k < hi - lo; ++k) {
        if ((run[k].parent & kRoot) == 0) {
          run[k].parent = pos[run[k].parent - lo];
        } else {
          values.push_back(run[k].parent & ~kRoot);
        }
      }
      std::sort(values.begin() + first, values.end());
      sizes.offsets[e + 1] = values.size() - first;
    }
  });
  out->Adopt(std::span<const uint32_t>(offsets_), std::move(slots));
  for (uint64_t e = 0; e < m; ++e) sizes.offsets[e + 1] += sizes.offsets[e];
  if (found.size() == 1) {
    sizes.values = std::move(found[0]);
  } else {
    sizes.values.reserve(sizes.offsets[m]);
    for (const std::vector<uint32_t>& values : found) {
      sizes.values.insert(sizes.values.end(), values.begin(), values.end());
    }
  }
  return sizes;
}

size_t EdgeDsuArena::MemoryBytes() const {
  return offsets_.capacity() * sizeof(uint32_t) +
         upper_.capacity() * sizeof(uint32_t) +
         first_.capacity() * sizeof(uint32_t) +
         members_.capacity() * sizeof(VertexId) +
         parent_.capacity() * sizeof(uint32_t) +
         tri_.size() * sizeof(TriangleSlots) +
         tri_vw_.capacity() * sizeof(EdgeId);
}

}  // namespace esd::core
