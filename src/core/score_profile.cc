#include "core/score_profile.h"

#include <algorithm>
#include <cmath>

namespace esd::core {

ScoreHistogram ComputeScoreHistogram(const EsdQueryEngine& engine,
                                     uint32_t tau) {
  ScoreHistogram out;
  const TopKResult all = engine.Query(UINT32_MAX, tau, /*pad=*/true);
  out.total_edges = all.size();
  // The answer is in descending score order, so its first entry is the max.
  out.max_score = all.empty() ? 0 : all.front().score;
  out.count.assign(out.max_score + 1, 0);
  uint64_t sum = 0;
  for (const ScoredEdge& se : all) {
    ++out.count[se.score];
    sum += se.score;
  }
  out.mean = out.total_edges == 0
                 ? 0.0
                 : static_cast<double>(sum) /
                       static_cast<double>(out.total_edges);
  return out;
}

uint32_t ScorePercentile(const ScoreHistogram& histogram, double fraction) {
  if (histogram.total_edges == 0) return 0;
  fraction = std::clamp(fraction, 0.0, 1.0);
  // Smallest s with #{edges scoring <= s} >= ceil(fraction * total): the
  // truncating cast here used to floor the target, so e.g. fraction 0.5
  // over 3 edges asked for 1 edge instead of 2 and every mid-range
  // percentile came out one bucket low on odd counts.
  const uint64_t need = static_cast<uint64_t>(
      std::ceil(fraction * static_cast<double>(histogram.total_edges)));
  uint64_t seen = 0;
  for (uint32_t s = 0; s < histogram.count.size(); ++s) {
    seen += histogram.count[s];
    if (seen >= need) return s;
  }
  return histogram.max_score;
}

}  // namespace esd::core
