#ifndef ESD_CORE_FROZEN_INDEX_H_
#define ESD_CORE_FROZEN_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "core/topk_result.h"
#include "graph/graph.h"

namespace esd::core {

class EdgeSizeTable;
class EsdIndex;

/// An entry of a sorted list H(c) (Section IV-A): the score at threshold c
/// of edge `e` (in the vertex index, of vertex `e`). 8 bytes, the slab and
/// the treap node key alike.
struct ListEntry {
  uint32_t score = 0;
  graph::EdgeId e = 0;

  friend bool operator==(const ListEntry&, const ListEntry&) = default;
};

/// The canonical H(c) order: score descending, then id ascending.
struct ListOrder {
  bool operator()(const ListEntry& a, const ListEntry& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.e < b.e;
  }
};

/// Every list H(c) of a set of multisets, laid out flat: C ascending, how
/// many values equal each size (counts[i] for sizes[i]), the slab offsets
/// (|C| + 1, from 0) and the slabs, H(sizes[i]) at
/// entries[offsets[i] .. offsets[i+1]) in canonical order.
struct ListLayout {
  std::vector<uint32_t> sizes;
  std::vector<uint64_t> counts;
  std::vector<uint64_t> offsets;
  std::vector<ListEntry> entries;
};

/// Algorithm 3's H build, the one routine behind every H(c) structure:
/// lays out the lists of the multisets packed as CSR (slot e's, ascending,
/// is values[offsets[e] .. offsets[e+1])). O(pool + entries + |C| + max
/// multiset length): C and its counts come from tallying the values, and
/// each slab is emitted from an id-ordered active set by a stable counting
/// sort on score.
ListLayout LayOutLists(std::span<const uint64_t> offsets,
                       std::span<const uint32_t> values);

/// Some slots of an edge table, copied out with their current contents:
/// what a delta refreeze carries out of the writer lock. `ids` ascend
/// without repeats; patched slot i's multiset is sizes.values[
/// sizes.offsets[i] .. sizes.offsets[i+1]).
struct SlotPatch {
  size_t slot_count = 0;  ///< the table's EdgeSlotCount()
  std::vector<graph::EdgeId> ids;
  std::vector<graph::Edge> edges;
  std::vector<uint8_t> live;
  EdgeSizePool sizes;
};

/// Slots per chunk of a frozen image's per-slot arrays. A delta refreeze
/// rebuilds the chunks that hold a changed slot and shares the rest with
/// its base.
inline constexpr size_t kSlotChunk = 1024;

/// Slots [i * kSlotChunk, i * kSlotChunk + edges.size()) of a frozen image:
/// their endpoints, live flags and multisets. Immutable, and shared by
/// every image (epoch) that holds it. Slot j's multiset is pool[offsets[j]
/// .. offsets[j + 1]); the offsets are relative to the chunk's own pool.
struct SlotChunk {
  std::span<const graph::Edge> edges;
  std::span<const uint8_t> live;
  std::span<const uint32_t> offsets;  // edges.size() + 1, from 0
  std::span<const uint32_t> pool;

  std::span<const uint32_t> Sizes(size_t j) const {
    return pool.subspan(offsets[j], offsets[j + 1] - offsets[j]);
  }
};

/// Read-optimized, immutable image of the ESDIndex (Section IV-A) — the
/// serving layer.
///
/// Where EsdIndex keeps every H(c) list as a treap (the mutation substrate
/// the maintenance algorithms need), FrozenEsdIndex lays the same logical
/// content out flat:
///
///   sizes_    [c_0 < c_1 < ...]            the distinct size set C, sorted
///   counts_   [#c_0, #c_1, ...]            pool values equal to each c_i
///   offsets_  [o_0, o_1, ..., o_|C|]       prefix sums, o_0 = 0
///   entries_  [ ..H(c_0).. | ..H(c_1).. | ... ]   one CSR slab per list
///
/// Slab i holds H(sizes_[i]) as contiguous (score, edge) pairs in the
/// canonical order (score desc, edge id asc). Query(k, tau) is one binary
/// search over sizes_ plus a linear scan of a slab prefix — no pointer
/// chasing, no per-node allocation.
///
/// The per-slot data (endpoints, live flags, size multisets) sits in
/// SlotChunks of kSlotChunk slots, held through shared_ptr: an image built
/// whole (FromSizePool, Adopt) keeps one block per array and its chunks
/// are views into it, while a delta image (FromDelta) shares every chunk
/// its patch left alone with its base. ScoreOf stays O(log), and the
/// structure round-trips losslessly to/from EsdIndex (Freeze / Thaw below)
/// and to the index file, whose arrays are the flat ones of Parts.
class FrozenEsdIndex final : public EsdQueryEngine {
 public:
  using Entry = ListEntry;

  /// The raw arrays of a frozen index — the unit of (de)serialization.
  /// Adopt() validates every structural invariant before accepting one.
  struct Parts {
    ScorerKind scorer = ScorerKind::kEsd;  // which definition the values follow
    std::vector<graph::Edge> edges;      // by edge-id slot
    std::vector<uint8_t> live;           // by slot; 0 = freed
    std::vector<uint64_t> size_offsets;  // per-slot multiset CSR, n+1
    std::vector<uint32_t> size_pool;     // ascending within each slot
    std::vector<uint32_t> sizes;         // distinct sizes C, ascending
    std::vector<uint64_t> offsets;       // slab offsets, |C|+1
    std::vector<Entry> entries;          // slabs, canonical order
  };

  /// The size pool's extent. The values sit in the chunks (SlotChunk::pool);
  /// the image keeps only their total.
  class PoolExtent {
   public:
    explicit PoolExtent(uint64_t size) : size_(size) {}
    uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    uint64_t size_;
  };

  FrozenEsdIndex() = default;

  /// The slab builder: adopts per-slot component-size multisets already
  /// packed as CSR (each ascending; freed slots empty) as the image's size
  /// pool and lays out the H(c) slabs from it with LayOutLists —
  /// BuildFrozenIndex's output path and Freeze. An empty `live` means
  /// every slot is live. Throws std::length_error if one chunk's values
  /// overflow its 32-bit offsets.
  static FrozenEsdIndex FromSizePool(std::vector<graph::Edge> edges,
                                     EdgeSizePool sizes,
                                     std::vector<uint8_t> live = {},
                                     ScorerKind scorer = ScorerKind::kEsd);

  /// The delta builder: the image FromSizePool (and so Freeze) would build
  /// of a table that matches `base` everywhere but the slots in `patch`.
  /// Every slot past the base's must be patched. The chunks that hold no
  /// patched slot are shared with the base; each other chunk is rebuilt in
  /// one allocation. C and its counts are the base's minus the gone
  /// multisets plus the fresh ones. The slab of each size c is the base
  /// slab at lower_bound(C_old, c) minus the patched edges, merged with
  /// their new entries: an unpatched edge holds no value in [c, that
  /// size), so it keeps its membership and its score. O(rebuilt chunks +
  /// entries + |C| · |patch| log) with no per-entry scoring.
  static FrozenEsdIndex FromDelta(const FrozenEsdIndex& base,
                                  const SlotPatch& patch);

  /// Validates `parts` (offset monotonicity, sorted multisets and slabs,
  /// edge ids in range, slab membership/scores consistent with the
  /// multisets, each chunk's values within 32-bit offsets) and adopts them
  /// into *out. On failure returns false, sets *error, and leaves *out
  /// untouched.
  static bool Adopt(Parts parts, FrozenEsdIndex* out, std::string* error);

  /// The image as flat arrays, Adopt's input: Adopt(ToParts()) == *this.
  Parts ToParts() const;

  // ---- EsdQueryEngine ------------------------------------------------------

  /// Top-k query: binary search for the smallest c* >= tau in C, then a
  /// linear scan of the H(c*) slab prefix. Padding follows the documented
  /// deterministic order (ascending edge id over live edges not already
  /// reported), so results match EsdIndex::Query exactly.
  TopKResult Query(uint32_t k, uint32_t tau,
                   bool pad_with_zero_edges = true) const override;

  /// Sentinel for "no slab serves this tau" (tau above every stored size).
  static constexpr size_t kNoSlab = ~size_t{0};

  /// The sizes_ binary search of Query, exposed separately so a batch of
  /// same-tau queries pays it once: index of the slab serving threshold
  /// `tau` (smallest c >= tau), or kNoSlab. Requires tau >= 1.
  size_t FindSlab(uint32_t tau) const;

  /// Query with the binary search already done: serves k entries from slab
  /// `slab` (kNoSlab reads as an empty slab). For slab == FindSlab(tau)
  /// and k, tau >= 1 this returns exactly Query(k, tau,
  /// pad_with_zero_edges).
  TopKResult QueryAtSlab(size_t slab, uint32_t k,
                         bool pad_with_zero_edges = true) const;

  /// The zero-padding phase of QueryAtSlab, exposed separately so callers
  /// that attribute per-stage time (the serving layer, esd_cli --explain)
  /// can run scan and padding under distinct clocks. Requires *inout to be
  /// the unpadded answer QueryAtSlab(slab, k, false) for the same slab and
  /// k; afterwards *inout equals QueryAtSlab(slab, k, true) exactly (same
  /// ascending-edge-id fill, skipping the slab's edges). Allocates only
  /// what the padded entries need.
  void PadQueryResult(size_t slab, uint32_t k, TopKResult* inout) const;

  uint32_t ScoreOf(graph::EdgeId e, uint32_t tau) const override;
  /// Bytes of the image's arrays and chunk table. A chunk shared with
  /// another image counts in both.
  uint64_t MemoryBytes() const override;
  std::string_view EngineName() const override { return "frozen"; }

  /// Work counters: queries answered, sizes_ binary searches (FindSlab,
  /// including the batched path), and slab entries scanned.
  EngineCounters Counters() const override { return counters_.Snap(); }

  /// Which diversity definition the stored values follow (part of the
  /// logical image: serialized, compared by operator==, and checked on
  /// load so a file frozen for one scorer never serves another).
  ScorerKind Scorer() const override { return scorer_; }

  // ---- Edge registry (read-only mirror of EsdIndex) ------------------------

  graph::Edge EdgeAt(graph::EdgeId e) const {
    return ChunkOf(e).edges[e % kSlotChunk];
  }
  size_t EdgeSlotCount() const { return num_slots_; }
  size_t NumRegisteredEdges() const { return num_live_; }
  bool IsLive(graph::EdgeId e) const {
    return e < num_slots_ && ChunkOf(e).live[e % kSlotChunk] != 0;
  }

  /// Component-size multiset of slot `e` (ascending), as a view into its
  /// chunk's pool.
  std::span<const uint32_t> EdgeSizes(graph::EdgeId e) const {
    return ChunkOf(e).Sizes(e % kSlotChunk);
  }

  // ---- Introspection / raw views -------------------------------------------

  /// Distinct component sizes C, ascending (a copy, mirroring EsdIndex).
  std::vector<uint32_t> DistinctSizes() const { return sizes_; }
  size_t NumLists() const { return sizes_.size(); }
  uint64_t NumEntries() const { return entries_.size(); }

  /// The H(sizes[i]) slab, canonical (score desc, edge asc) order.
  std::span<const Entry> ListAt(size_t i) const {
    return {entries_.data() + offsets_[i], entries_.data() + offsets_[i + 1]};
  }

  /// The per-slot chunks: chunk i holds slots [i * kSlotChunk, ...).
  size_t NumChunks() const { return chunks_.size(); }
  const std::shared_ptr<const SlotChunk>& Chunk(size_t i) const {
    return chunks_[i];
  }
  /// How many chunk positions hold the very same chunk in both images.
  size_t ChunksSharedWith(const FrozenEsdIndex& other) const;

  /// Raw views.
  PoolExtent SizePool() const { return PoolExtent(pool_size_); }
  std::span<const uint32_t> Sizes() const { return sizes_; }
  std::span<const uint64_t> SlabOffsets() const { return offsets_; }
  std::span<const Entry> Entries() const { return entries_; }

  friend bool operator==(const FrozenEsdIndex& a, const FrozenEsdIndex& b);

 private:
  const SlotChunk& ChunkOf(graph::EdgeId e) const {
    return *chunks_[e / kSlotChunk];
  }
  /// Takes whole per-slot arrays (`offsets` global, n + 1) as one block
  /// each and points one chunk view per kSlotChunk slots into them.
  /// Requires each chunk's values to fit 32-bit offsets.
  void AdoptSlots(std::vector<graph::Edge> edges, std::vector<uint8_t> live,
                  std::span<const uint64_t> offsets,
                  std::vector<uint32_t> pool);

  std::vector<std::shared_ptr<const SlotChunk>> chunks_;
  size_t num_slots_ = 0;
  uint64_t pool_size_ = 0;
  std::vector<uint32_t> sizes_;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> offsets_;
  std::vector<Entry> entries_;
  uint64_t num_live_ = 0;
  ScorerKind scorer_ = ScorerKind::kEsd;
  /// Not part of the logical image: ignored by operator== and not
  /// serialized (a loaded index starts at zero).
  EngineCounterBlock counters_;
};

/// Builds the frozen serving image of an edge registry plus its multisets
/// C_e — an EsdIndex (whose H lists it never reads) or the live writer's
/// bare table — through FromSizePool. Freed slots are preserved (live mask
/// + empty multiset), so Thaw(Freeze(x)) reproduces x's exact id layout.
FrozenEsdIndex Freeze(const EdgeSizeTable& table);

/// Copies `slots` of `table` (any order, repeats allowed) into a patch for
/// FrozenEsdIndex::FromDelta.
SlotPatch CopySlots(const EdgeSizeTable& table,
                    std::vector<graph::EdgeId> slots);

/// Reconstructs a mutable EsdIndex from a frozen image: the table adopts
/// the image's edges, live mask and multisets (freed ids left ascending,
/// so the highest is reused first), and each H(c) treap is built straight
/// from its slab. This is how the treap engine loads an index file (Thaw
/// of LoadFrozenIndex's result) and how BuildIndex builds one.
EsdIndex Thaw(const FrozenEsdIndex& frozen);

}  // namespace esd::core

#endif  // ESD_CORE_FROZEN_INDEX_H_
