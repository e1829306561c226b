#ifndef ESD_CORE_PARALLEL_BUILDER_H_
#define ESD_CORE_PARALLEL_BUILDER_H_

#include <vector>

#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/scorer.h"
#include "graph/graph.h"
#include "util/dsu.h"

namespace esd::core {

/// Work-distribution strategy for the 4-clique enumeration phase
/// (Section IV-E). The paper rejects the "simple solution" of
/// parallelizing over vertices because out-degree (and thus per-vertex
/// clique work) is heavily skewed, and adopts edge-parallelism instead;
/// both are provided so the ablation bench can measure that argument.
enum class ParallelMode {
  kVertexParallel,
  kEdgeParallel,
};

/// Parallel index construction (Section IV-E, "PESDIndex+").
///
/// Parallelizes the three phases of Algorithm 3:
///   1. per-edge disjoint-set initialization: the arena's triangle-scatter
///      fill, split by vertex with atomic per-edge cursors, then parallel
///      per-slice sorts,
///   2. 4-clique enumeration, parallel over directed edges of the DAG by
///      default (see ParallelMode) — with each union on M_e guarded by a
///      striped spinlock keyed by e,
///   3. component-size extraction per edge.
/// The final H(c) bulk build is sequential (it is a small fraction of the
/// total work).
///
/// With num_threads == 1 this matches BuildIndexClique output exactly; with
/// more threads the resulting index is identical (unions commute).
EsdIndex BuildIndexParallel(const graph::Graph& g, unsigned num_threads,
                            std::vector<util::KeyedDsu>* m_out = nullptr,
                            ParallelMode mode = ParallelMode::kEdgeParallel);

/// Frozen-output path of the parallel builder: same three parallel phases,
/// but the per-edge size multisets are emitted straight into the CSR slabs
/// of a FrozenEsdIndex — no treaps are ever constructed. Produces identical
/// query answers to Freeze(BuildIndexParallel(g, ...)).
FrozenEsdIndex BuildFrozenIndexParallel(
    const graph::Graph& g, unsigned num_threads,
    ParallelMode mode = ParallelMode::kEdgeParallel);

/// Scorer-parameterized parallel builds. ESD dispatches to the clique
/// pipeline above; any other scorer computes its per-edge value multisets
/// in parallel over edges through the scorer's single-edge hook (edges are
/// independent, so no locking is needed). Results are stamped with the
/// scorer's kind.
EsdIndex BuildIndexParallel(const graph::Graph& g,
                            const DiversityScorer& scorer,
                            unsigned num_threads,
                            ParallelMode mode = ParallelMode::kEdgeParallel);
FrozenEsdIndex BuildFrozenIndexParallel(
    const graph::Graph& g, const DiversityScorer& scorer,
    unsigned num_threads, ParallelMode mode = ParallelMode::kEdgeParallel);

}  // namespace esd::core

#endif  // ESD_CORE_PARALLEL_BUILDER_H_
