#ifndef ESD_CORE_SCORE_PROFILE_H_
#define ESD_CORE_SCORE_PROFILE_H_

#include <cstdint>
#include <vector>

#include "core/query_engine.h"

namespace esd::core {

/// Distribution of diversity scores over all edges at a fixed threshold
/// tau — the analytics view the paper's case studies eyeball ("when
/// tau >= 3, the structural diversity scores of most edges in DBLP are no
/// larger than 3"). Computed straight off the engine from one padded Query
/// over every live edge; scorer-generic (works for any EsdQueryEngine, any
/// scorer).
struct ScoreHistogram {
  /// count[s] = number of edges with score exactly s (index 0 included).
  std::vector<uint64_t> count;
  uint64_t total_edges = 0;
  uint32_t max_score = 0;
  double mean = 0.0;
};

/// Builds the histogram for threshold tau >= 1 from
/// Query(UINT32_MAX, tau, /*pad=*/true), which returns every live edge
/// exactly once with its score. O(live edges + max_score) on the index
/// engines; the online adapters score every edge.
ScoreHistogram ComputeScoreHistogram(const EsdQueryEngine& engine,
                                     uint32_t tau);

/// Smallest score s such that at least `fraction` of all edges score <= s.
/// fraction in [0,1] (clamped); fraction 0.0 and empty histograms return 0,
/// fraction 1.0 returns max_score.
uint32_t ScorePercentile(const ScoreHistogram& histogram, double fraction);

}  // namespace esd::core

#endif  // ESD_CORE_SCORE_PROFILE_H_
