#ifndef ESD_CORE_INDEX_BUILDER_H_
#define ESD_CORE_INDEX_BUILDER_H_

#include <vector>

#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/scorer.h"
#include "graph/ego_net.h"
#include "graph/graph.h"
#include "util/dsu.h"

namespace esd::core {

/// Basic index construction (Algorithm 2, "ESDIndex"): one BFS over every
/// edge ego-network. With the default probe this is the paper's
/// O((d_max + log m) α m) worst case — each 4-clique is effectively
/// traversed six times, once per edge. kShorterSide is the improved BFS
/// baseline (beyond the paper) that the builder ablation bench reports.
EsdIndex BuildIndexBasic(
    const graph::Graph& g,
    graph::EgoProbe probe = graph::EgoProbe::kScanNeighbors);

/// Improved index construction (Algorithm 3, "ESDIndex+"): enumerate every
/// 4-clique exactly once on the degree-ordered DAG and grow the per-edge
/// disjoint sets M_uv (Observation 1). O((α γ(n) + log m) α m).
///
/// If `m_out` is non-null it receives the per-edge disjoint-set structures
/// (indexed by EdgeId), which the dynamic index maintains incrementally.
EsdIndex BuildIndexClique(const graph::Graph& g,
                          std::vector<util::KeyedDsu>* m_out = nullptr);

/// Frozen-output path of the 4-clique builder: the per-edge component-size
/// multisets are emitted straight into the CSR slabs of a FrozenEsdIndex,
/// skipping treap construction entirely. Identical query answers to
/// Freeze(BuildIndexClique(g)) with one fewer intermediate structure.
FrozenEsdIndex BuildFrozenIndex(const graph::Graph& g);

/// The shared core of Algorithm 3: per-edge component-size multisets via one
/// 4-clique enumeration over the degree-ordered DAG (no H build), packed as
/// CSR. Exposed so the ESD scorer's bulk hook and the builders share one
/// implementation. If `m_out` is non-null it receives the per-edge
/// disjoint-set structures.
EdgeSizePool CliqueComponentSizes(
    const graph::Graph& g, std::vector<util::KeyedDsu>* m_out = nullptr);

/// Scorer-parameterized treap build: ESD dispatches to BuildIndexClique,
/// any other scorer bulk-computes its value multisets through the scorer
/// hook. The result is stamped with the scorer's kind.
EsdIndex BuildIndex(const graph::Graph& g, const DiversityScorer& scorer);

/// Scorer-parameterized frozen build (same dispatch as BuildIndex).
FrozenEsdIndex BuildFrozenIndex(const graph::Graph& g,
                                const DiversityScorer& scorer);

}  // namespace esd::core

#endif  // ESD_CORE_INDEX_BUILDER_H_
