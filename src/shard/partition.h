#ifndef ESD_SHARD_PARTITION_H_
#define ESD_SHARD_PARTITION_H_

#include <cstdint>
#include <functional>

#include "graph/graph.h"

namespace esd::shard {

/// splitmix64 finalizer — the same mixer the fail-point RNG and the graph
/// generators use; full-avalanche, so consecutive vertex ids don't cluster
/// on one shard.
inline uint64_t MixEdgeKey(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The partition function: which shard owns edge (u, v). Stable across
/// processes and runs — it depends only on the normalized endpoint pair
/// and the fleet size. num_shards <= 1 collapses to a single owner.
inline uint32_t ShardOfEdge(graph::Edge e, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  const graph::Edge n = graph::MakeEdge(e.u, e.v);
  const uint64_t key = (static_cast<uint64_t>(n.u) << 32) | n.v;
  return static_cast<uint32_t>(MixEdgeKey(key) % num_shards);
}

/// The ownership mask of one shard, as a predicate over edges.
inline std::function<bool(graph::Edge)> OwnsFilter(uint32_t shard,
                                                   uint32_t num_shards) {
  return [shard, num_shards](graph::Edge e) {
    return ShardOfEdge(e, num_shards) == shard;
  };
}

}  // namespace esd::shard

#endif  // ESD_SHARD_PARTITION_H_
