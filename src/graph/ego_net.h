#ifndef ESD_GRAPH_EGO_NET_H_
#define ESD_GRAPH_EGO_NET_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace esd::graph {

/// How EgoScratch finds a member's neighbours inside the member set S.
enum class EgoProbe : uint8_t {
  /// Scan each member's full adjacency and keep the marked vertices: the
  /// paper's BFS cost, O(Σ_{w∈S} d(w)) (Algorithm 1 line 13, Algorithm 2).
  kScanNeighbors,
  /// For a member with d(w) > |S|, search the later members of S in N(w)
  /// instead (galloping), so a member costs O(min{d(w), |S| log d(w)}) — an
  /// improvement over the paper.
  kShorterSide,
};

/// The subgraph induced by a sorted vertex set S — for an edge ego-network,
/// S = N(uv) (Definition 1) — relabelled to local ids 0..|S|-1 in S's order.
/// Its edges are held as an upper-triangular local CSR (row i lists the
/// neighbours j > i, ascending), and its connected components are labelled
/// by a disjoint-set pass over those edges.
///
/// Membership is a vertex-indexed generation stamp, so starting a new build
/// costs O(|S|), not O(n); every buffer persists across builds, so a warm
/// scratch builds without heap traffic. The graph may change between builds
/// (a DynamicGraph that gained vertices, or another graph entirely). Not
/// reentrant: one instance per thread or per single-threaded owner.
class EgoScratch {
 public:
  /// Builds G[S] for `members` (sorted, duplicate-free; must not alias
  /// Members()). G is a Graph or a DynamicGraph.
  template <typename G>
  void Build(const G& g, std::span<const VertexId> members,
             EgoProbe probe = EgoProbe::kScanNeighbors) {
    members_.assign(members.begin(), members.end());
    Induce(g, probe);
  }

  /// Builds the edge ego-network G_{N(uv)}.
  template <typename G>
  void BuildCommon(const G& g, VertexId u, VertexId v,
                   EgoProbe probe = EgoProbe::kScanNeighbors) {
    IntersectSorted(g.Neighbors(u), g.Neighbors(v), &members_);
    Induce(g, probe);
  }

  /// S, ascending; local id i is Members()[i].
  std::span<const VertexId> Members() const { return members_; }
  uint32_t NumMembers() const {
    return static_cast<uint32_t>(members_.size());
  }

  /// Number of edges of G[S].
  uint64_t NumEdges() const { return upper_.size(); }

  /// Calls fn(i, j) for every edge of G[S] as local ids i < j, in
  /// lexicographic order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (uint32_t i = 0; i < NumMembers(); ++i) {
      for (uint64_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
        fn(i, upper_[k]);
      }
    }
  }

  /// Component of local vertex i. Components are numbered in order of their
  /// smallest member.
  uint32_t Label(uint32_t i) const { return label_[i]; }

  /// Size of each component, indexed by label.
  std::span<const uint32_t> ComponentSizes() const { return sizes_; }

  /// Component sizes, ascending (the paper's C_uv for an edge ego-network).
  std::vector<uint32_t> SortedComponentSizes() const {
    std::vector<uint32_t> sizes(sizes_.begin(), sizes_.end());
    std::sort(sizes.begin(), sizes.end());
    return sizes;
  }

  /// Number of components with at least `tau` members.
  uint32_t ComponentsAtLeast(uint32_t tau) const {
    return static_cast<uint32_t>(std::count_if(
        sizes_.begin(), sizes_.end(), [tau](uint32_t s) { return s >= tau; }));
  }

 private:
  struct Mark {
    uint32_t stamp = 0;  // == stamp_ iff the vertex is in S
    uint32_t local = 0;
  };

  template <typename G>
  void Induce(const G& g, EgoProbe probe) {
    const uint32_t k = NumMembers();
    if (mark_.size() < g.NumVertices()) mark_.resize(g.NumVertices());
    if (++stamp_ == 0) {  // wrapped: no old stamp may survive
      std::fill(mark_.begin(), mark_.end(), Mark{});
      stamp_ = 1;
    }
    for (uint32_t i = 0; i < k; ++i) mark_[members_[i]] = Mark{stamp_, i};
    upper_.clear();
    offsets_.assign(1, 0);
    for (uint32_t i = 0; i < k; ++i) {
      const std::span<const VertexId> nbrs = g.Neighbors(members_[i]);
      if (probe == EgoProbe::kShorterSide && nbrs.size() > k) {
        auto it = nbrs.begin();
        for (uint32_t j = i + 1; j < k && it != nbrs.end(); ++j) {
          // Gallop: members ascend, so each search starts at the last hit.
          const size_t rest = static_cast<size_t>(nbrs.end() - it);
          size_t step = 1;
          while (step < rest && it[step] < members_[j]) step *= 2;
          it = std::lower_bound(it + step / 2, it + std::min(step + 1, rest),
                                members_[j]);
          if (it != nbrs.end() && *it == members_[j]) upper_.push_back(j);
        }
      } else {
        for (VertexId w : nbrs) {
          const Mark m = mark_[w];
          if (m.stamp == stamp_ && m.local > i) upper_.push_back(m.local);
        }
      }
      offsets_.push_back(upper_.size());
    }
    LabelComponents();
  }

  // Union-find over local ids that always keeps the smaller id as the root,
  // so each root is its component's smallest member.
  uint32_t Find(uint32_t i) {
    while (parent_[i] != i) i = parent_[i] = parent_[parent_[i]];
    return i;
  }

  void LabelComponents() {
    const uint32_t k = NumMembers();
    parent_.resize(k);
    for (uint32_t i = 0; i < k; ++i) parent_[i] = i;
    ForEachEdge([this](uint32_t i, uint32_t j) {
      const uint32_t a = Find(i), b = Find(j);
      parent_[std::max(a, b)] = std::min(a, b);
    });
    label_.resize(k);
    sizes_.clear();
    for (uint32_t i = 0; i < k; ++i) {
      const uint32_t root = Find(i);
      if (root == i) {
        label_[i] = static_cast<uint32_t>(sizes_.size());
        sizes_.push_back(0);
      } else {
        label_[i] = label_[root];
      }
      ++sizes_[label_[i]];
    }
  }

  std::vector<Mark> mark_;  // vertex-indexed
  uint32_t stamp_ = 0;
  std::vector<VertexId> members_;
  std::vector<uint64_t> offsets_;  // |S| + 1, into upper_
  std::vector<uint32_t> upper_;    // row i: local neighbours j > i
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> label_;
  std::vector<uint32_t> sizes_;
};

/// This thread's scratch, for free functions and scorer hooks (the parallel
/// builders call those from pool threads). A caller must be done with it
/// before calling anything else that uses it.
inline EgoScratch& ThreadEgoScratch() {
  thread_local EgoScratch scratch;
  return scratch;
}

}  // namespace esd::graph

#endif  // ESD_GRAPH_EGO_NET_H_
