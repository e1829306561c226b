#ifndef ESD_CORE_SCORER_H_
#define ESD_CORE_SCORER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/graph.h"

namespace esd::util {
class ThreadPool;
}  // namespace esd::util

namespace esd::core {

/// Identifies a per-edge diversity definition. The raw value is what gets
/// stamped into every on-disk artifact (index files, WAL header, graph
/// snapshots), so the enumerators are stable wire constants — never renumber.
enum class ScorerKind : uint32_t {
  /// The paper's edge structural diversity: values are the sizes of the
  /// connected components of the edge ego-network G_{N(uv)}.
  kEsd = 1,
  /// Truss-cohesion structural diversity: one value per ego-network
  /// component, its k-truss cohesion (max trussness of its edges; 1 for an
  /// edgeless component), so score_tau counts the components that are at
  /// least tau-cohesive.
  kTruss = 2,
  /// Ego-betweenness: b(uv) = s(s-1)/2 - |E(G_{N(uv)})| with s = |N(uv)|,
  /// the number of non-adjacent common-neighbor pairs the tie bridges.
  /// Encoded as b copies of b so score_tau(e) = b when tau <= b, else 0.
  kEgoBetweenness = 3,
};

/// Per-edge value multisets packed as CSR: slot e's multiset (ascending) is
/// values[offsets[e] .. offsets[e+1]). The bulk hook's output and the
/// layout FrozenEsdIndex stores, so a build hands it over without one
/// vector per edge.
struct EdgeSizePool {
  std::vector<uint64_t> offsets;  // slots + 1, offsets[0] = 0
  std::vector<uint32_t> values;

  /// Packs values_of(e), a sorted range, for every slot e < slots.
  template <typename ValuesOf>
  static EdgeSizePool Pack(size_t slots, ValuesOf&& values_of) {
    EdgeSizePool out;
    out.offsets.assign(slots + 1, 0);
    for (size_t e = 0; e < slots; ++e) {
      out.offsets[e + 1] = out.offsets[e] + values_of(e).size();
    }
    out.values.reserve(out.offsets.back());
    for (size_t e = 0; e < slots; ++e) {
      const auto& values = values_of(e);
      out.values.insert(out.values.end(), values.begin(), values.end());
    }
    return out;
  }
};

/// A pluggable per-edge score definition over the generic index substrate.
///
/// Every engine in this repo (treap H-lists, frozen CSR slabs, dynamic
/// maintenance, the live/WAL stack) operates on one invariant shape: each
/// edge e carries a sorted-ascending multiset of uint32 values C_e, and
/// score_tau(e) = |{ c in C_e : c >= tau }|. The Theorem-4 H-list
/// consistency that makes the index answer top-k queries holds for ANY
/// multiset, so a scorer only has to define what C_e is:
///   * a bulk build hook (all edges of a static graph, on an optional
///     thread pool),
///   * a single-edge recompute hook (used by dynamic maintenance, whose
///     affected-edge enumeration — the edge, its wedge edges (u,w)/(v,w),
///     and pair edges inside N(uv) — is valid for any scorer whose value
///     depends only on the edge's ego subgraph), and
///   * a stable id/name for dispatch and on-disk stamping.
class DiversityScorer {
 public:
  virtual ~DiversityScorer() = default;

  /// Stable wire id of this scorer.
  virtual ScorerKind Kind() const = 0;

  /// Stable short name ("esd", "truss", "egobw") — the key used by
  /// `esd_cli --scorer`, the engine factory, and bench JSON.
  virtual std::string_view Name() const = 0;

  /// Value multisets (each sorted ascending) for every edge of `g`,
  /// indexed by EdgeId — the one bulk-build hook every builder calls. If
  /// `pool` is non-null the work runs on it; the result does not depend on
  /// the thread count. Default: one EdgeValues call per edge, over the
  /// pool's chunks.
  virtual EdgeSizePool BuildAllEdgeValues(
      const graph::Graph& g, util::ThreadPool* pool = nullptr) const;

  /// Value multiset (sorted ascending) of edge {u, v}.
  virtual std::vector<uint32_t> EdgeValues(const graph::Graph& g,
                                           graph::VertexId u,
                                           graph::VertexId v) const = 0;

  /// Same, over a mutable graph (the dynamic-maintenance recompute path).
  virtual std::vector<uint32_t> EdgeValues(const graph::DynamicGraph& g,
                                           graph::VertexId u,
                                           graph::VertexId v) const = 0;

 protected:
  DiversityScorer() = default;
  DiversityScorer(const DiversityScorer&) = default;
  DiversityScorer& operator=(const DiversityScorer&) = default;
};

/// The three built-in scorers (stateless process-lifetime singletons).
const DiversityScorer& EsdScorer();
const DiversityScorer& TrussScorer();
const DiversityScorer& EgoBetweennessScorer();

/// Scorer registered under `name`, or nullptr if unknown.
const DiversityScorer* FindScorer(std::string_view name);

/// Scorer for a (valid) kind.
const DiversityScorer& ScorerForKind(ScorerKind kind);

/// True if `raw` is the wire value of a known ScorerKind.
bool ValidScorerKind(uint32_t raw);

/// Stable name of `kind` ("esd", "truss", "egobw").
std::string_view ScorerKindName(ScorerKind kind);

/// Names accepted by FindScorer, in presentation order.
std::vector<std::string> ScorerNames();

}  // namespace esd::core

#endif  // ESD_CORE_SCORER_H_
