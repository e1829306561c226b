#include "core/edge_size_table.h"

#include <algorithm>
#include <cassert>
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
    edge_sizes_[e].clear();
    LogWrite(e);
    return e;
  }
  EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(uv);
  edge_sizes_.emplace_back();
  live_.push_back(1);
  LogWrite(e);
  return e;
}

void EdgeSizeTable::UnregisterEdge(EdgeId e) {
  assert(live_[e] && edge_sizes_[e].empty());
  live_[e] = 0;
  free_ids_.push_back(e);
  LogWrite(e);
}

void EdgeSizeTable::SetEdgeSizes(EdgeId e, std::vector<uint32_t> sorted_sizes) {
  assert(e < edge_sizes_.size() && live_[e]);
  assert(std::is_sorted(sorted_sizes.begin(), sorted_sizes.end()));
  if (log_enabled_ && edge_sizes_[e] != sorted_sizes) LogWrite(e);
  edge_sizes_[e] = std::move(sorted_sizes);
}

void EdgeSizeTable::BulkLoad(
    std::vector<Edge> edges,
    std::vector<std::vector<uint32_t>> sizes_per_edge) {
  assert(edges.size() == sizes_per_edge.size());
  edges_ = std::move(edges);
  edge_sizes_ = std::move(sizes_per_edge);
  live_.assign(edges_.size(), 1);
  free_ids_.clear();
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
