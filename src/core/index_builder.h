#ifndef ESD_CORE_INDEX_BUILDER_H_
#define ESD_CORE_INDEX_BUILDER_H_

#include <vector>

#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/scorer.h"
#include "graph/ego_net.h"
#include "graph/graph.h"
#include "util/dsu.h"
#include "util/thread_pool.h"

namespace esd::core {

/// Basic index construction (Algorithm 2, "ESDIndex"): one BFS over every
/// edge ego-network. With the default probe this is the paper's
/// O((d_max + log m) α m) worst case — each 4-clique is effectively
/// traversed six times, once per edge. kShorterSide is the improved BFS
/// baseline (beyond the paper) that the builder ablation bench reports.
EsdIndex BuildIndexBasic(
    const graph::Graph& g,
    graph::EgoProbe probe = graph::EgoProbe::kScanNeighbors);

/// Work distribution of the pooled 4-clique stage (Section IV-E). The
/// paper rejects the "simple solution" of parallelizing over vertices
/// because out-degree (and thus per-vertex clique work) is heavily skewed,
/// and adopts edge-parallelism instead; both are provided so the ablation
/// bench can measure that argument.
enum class ParallelMode {
  kVertexParallel,
  kEdgeParallel,
};

/// Algorithm 3 ("ESDIndex+") minus the H build: enumerate every 4-clique
/// exactly once on the degree-ordered DAG, grow the per-edge disjoint sets
/// M_uv (Observation 1), and read off each edge's component sizes, packed
/// as CSR. O((α γ(n) + log m) α m). The ESD scorer's bulk hook.
///
/// With a pool of two or more threads this is PESDIndex+ (Section IV-E):
/// the arena fill and the extraction split over edges and vertices, and
/// the 4-clique stage runs over chunks of arcs (or vertices, per `mode`)
/// with each union on M_e under a striped spinlock keyed by e. Unions
/// commute, so the result is identical at every thread count. With no
/// pool, or a 1-thread one, the 4-clique stage is one lock-free sweep.
///
/// If `m_out` is non-null it receives the per-edge disjoint-set structures
/// (indexed by EdgeId) in one pass over the arena's slices
/// (EdgeDsuArena::ExportDsus): the M_e that the Maintainer under both the
/// live writer and the dynamic engine maintains incrementally.
EdgeSizePool CliqueComponentSizes(
    const graph::Graph& g, util::ThreadPool* pool = nullptr,
    util::KeyedDsuPool* m_out = nullptr,
    ParallelMode mode = ParallelMode::kEdgeParallel);

/// Treap index of `g` under `scorer`: Thaw of BuildFrozenIndex, so each
/// H(c) treap is built from its slab. The default is the paper's
/// ESDIndex+, and PESDIndex+ with num_threads > 1.
EsdIndex BuildIndex(const graph::Graph& g,
                    const DiversityScorer& scorer = EsdScorer(),
                    unsigned num_threads = 1);

/// Frozen index of `g` under `scorer`: the same bulk hook, with the
/// multisets laid straight into CSR slabs (FrozenEsdIndex::FromSizePool)
/// and no treap built. Equal to Freeze(BuildIndex(g, scorer)).
FrozenEsdIndex BuildFrozenIndex(const graph::Graph& g,
                                const DiversityScorer& scorer = EsdScorer(),
                                unsigned num_threads = 1);

}  // namespace esd::core

#endif  // ESD_CORE_INDEX_BUILDER_H_
