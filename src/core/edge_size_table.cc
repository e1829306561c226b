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
    return e;
  }
  EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(uv);
  edge_sizes_.emplace_back();
  live_.push_back(1);
  return e;
}

void EdgeSizeTable::UnregisterEdge(EdgeId e) {
  assert(live_[e] && edge_sizes_[e].empty());
  live_[e] = 0;
  free_ids_.push_back(e);
}

void EdgeSizeTable::SetEdgeSizes(EdgeId e, std::vector<uint32_t> sorted_sizes) {
  assert(e < edge_sizes_.size() && live_[e]);
  assert(std::is_sorted(sorted_sizes.begin(), sorted_sizes.end()));
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
}

}  // namespace esd::core
