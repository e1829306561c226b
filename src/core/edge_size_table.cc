#include "core/edge_size_table.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

namespace esd::core {

using graph::Edge;
using graph::EdgeId;

EdgeId EdgeSizeTable::RegisterEdge(Edge uv) {
  if (!free_ids_.empty()) {
    EdgeId e = free_ids_.back();
    free_ids_.pop_back();
    edges_[e] = uv;
    live_[e] = 1;
    LogWrite(e);
    return e;
  }
  EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(uv);
  sizes_.AddRun();
  live_.push_back(1);
  LogWrite(e);
  return e;
}

void EdgeSizeTable::UnregisterEdge(EdgeId e) {
  assert(live_[e] && EdgeSizes(e).empty());
  live_[e] = 0;
  free_ids_.push_back(e);
  LogWrite(e);
}

void EdgeSizeTable::SetEdgeSizes(EdgeId e,
                                 std::span<const uint32_t> sorted_sizes) {
  assert(e < edges_.size() && live_[e]);
  assert(std::is_sorted(sorted_sizes.begin(), sorted_sizes.end()));
  const std::span<const uint32_t> was = EdgeSizes(e);
  if (std::equal(was.begin(), was.end(), sorted_sizes.begin(),
                 sorted_sizes.end())) {
    return;
  }
  LogWrite(e);
  sizes_.Assign(e, sorted_sizes);
}

void EdgeSizeTable::BulkLoad(std::vector<Edge> edges, EdgeSizePool sizes,
                             std::vector<uint8_t> live) {
  const size_t n = edges.size();
  // A default-constructed frozen image has no offsets at all.
  assert(sizes.offsets.size() == n + 1 || n == 0);
  assert(live.empty() || live.size() == n);
  edges_ = std::move(edges);
  live_ = live.empty() ? std::vector<uint8_t>(n, 1) : std::move(live);
  sizes_.Adopt(std::span<const uint64_t>(sizes.offsets),
               std::move(sizes.values));
  free_ids_.clear();
  for (EdgeId e = 0; e < n; ++e) {
    assert(live_[e] || EdgeSizes(e).empty());
    if (!live_[e]) free_ids_.push_back(e);
  }
  if (log_enabled_) {
    // Every slot changed: no earlier position can be patched forward.
    log_.clear();
    ++log_end_;
  }
}

void EdgeSizeTable::LogWrite(EdgeId e) {
  if (!log_enabled_) return;
  // Bounded by the slot count: a log that long (no epoch published for a
  // while) is worth no more than a full freeze, so drop it.
  if (log_.size() >= edges_.size()) log_.clear();
  log_.push_back(e);
  ++log_end_;
}

bool EdgeSizeTable::ChangedSince(uint64_t from,
                                 std::vector<EdgeId>* slots) const {
  const uint64_t first = log_end_ - log_.size();
  if (!log_enabled_ || from < first || from > log_end_) return false;
  slots->insert(slots->end(), log_.begin() + (from - first), log_.end());
  return true;
}

void EdgeSizeTable::TrimChangeLog(uint64_t upto) {
  const uint64_t first = log_end_ - log_.size();
  if (upto <= first) return;
  log_.erase(log_.begin(),
             log_.begin() + std::min<uint64_t>(upto - first, log_.size()));
}

}  // namespace esd::core
