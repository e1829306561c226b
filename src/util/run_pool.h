#ifndef ESD_UTIL_RUN_POOL_H_
#define ESD_UTIL_RUN_POOL_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace esd::util {

/// One variable-length run of T per slot, all in one buffer: the live
/// writer's per-edge state (C_e values, M_e slots) without one heap object
/// per edge.
///
/// A pool starts as CSR (Adopt: run r is values[offsets[r] ..
/// offsets[r+1])), so a build hands its output over in one block. A
/// rewrite that fits its run's extent is written in place; a longer one is
/// appended at the tail and its old extent counts as dead, as does the
/// slack a shrink leaves. When the dead entries outnumber the live ones and
/// the runs together, one pass compacts the pool back into slot order. The
/// pass costs O(live + runs), so it never costs more than the dead entries
/// it reclaims: writes stay amortized O(run length).
///
/// Spans returned by Run, Mutable and Resize are invalidated by any write
/// that can relocate (Resize, Assign, AddRun, Adopt).
template <typename T>
class RunPool {
 public:
  /// Replaces the contents with offsets.size() - 1 runs over `values`
  /// (an empty `offsets` means no runs).
  template <typename Offset>
  void Adopt(std::span<const Offset> offsets, std::vector<T> values) {
    const size_t n = offsets.empty() ? 0 : offsets.size() - 1;
    assert(n == 0 || offsets[n] == values.size());
    runs_.resize(n);
    for (size_t r = 0; r < n; ++r) {
      const auto size = static_cast<uint32_t>(offsets[r + 1] - offsets[r]);
      runs_[r] = Extent{static_cast<uint64_t>(offsets[r]), size, size};
    }
    values_ = std::move(values);
    live_ = values_.size();
  }

  size_t NumRuns() const { return runs_.size(); }

  /// Run r, read-only.
  std::span<const T> Run(size_t r) const {
    const Extent& x = runs_[r];
    return {values_.data() + x.begin, x.size};
  }

  /// Run r, writable in place (its length is fixed; see Resize).
  std::span<T> Mutable(size_t r) {
    const Extent& x = runs_[r];
    return {values_.data() + x.begin, x.size};
  }

  /// Appends an empty run.
  void AddRun() { runs_.push_back(Extent{values_.size(), 0, 0}); }

  /// Resizes run r to n entries, keeping its first min(old, n); entries
  /// past the old length are unspecified. Returns the run.
  std::span<T> Resize(size_t r, size_t n) {
    Extent& x = runs_[r];
    live_ = live_ - x.size + n;
    if (n > x.cap) {
      const uint64_t begin = values_.size();
      values_.resize(begin + n);
      std::copy_n(values_.begin() + static_cast<ptrdiff_t>(x.begin), x.size,
                  values_.begin() + static_cast<ptrdiff_t>(begin));
      x = Extent{begin, static_cast<uint32_t>(n), static_cast<uint32_t>(n)};
    } else {
      x.size = static_cast<uint32_t>(n);
    }
    if (DeadEntries() > live_ + runs_.size()) Compact();
    return Mutable(r);
  }

  /// Run r becomes a copy of `values`, which must not point into the pool.
  void Assign(size_t r, std::span<const T> values) {
    std::span<T> out = Resize(r, values.size());
    std::copy(values.begin(), values.end(), out.begin());
  }

  /// Entries held by the runs.
  size_t LiveEntries() const { return live_; }

  /// Entries of the buffer no run holds: relocated runs' old extents and
  /// the slack of shrunk runs.
  size_t DeadEntries() const { return values_.size() - live_; }

  /// Compaction passes run so far.
  uint64_t Compactions() const { return compactions_; }

  /// Bytes of the buffer and the run table.
  size_t MemoryBytes() const {
    return values_.capacity() * sizeof(T) + runs_.capacity() * sizeof(Extent);
  }

 private:
  struct Extent {
    uint64_t begin;
    uint32_t size;
    uint32_t cap;
  };

  void Compact() {
    std::vector<T> packed;
    packed.reserve(live_);
    for (Extent& x : runs_) {
      const uint64_t begin = packed.size();
      packed.insert(packed.end(),
                    values_.begin() + static_cast<ptrdiff_t>(x.begin),
                    values_.begin() + static_cast<ptrdiff_t>(x.begin + x.size));
      x = Extent{begin, x.size, x.size};
    }
    values_ = std::move(packed);
    ++compactions_;
  }

  std::vector<Extent> runs_;
  std::vector<T> values_;
  size_t live_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace esd::util

#endif  // ESD_UTIL_RUN_POOL_H_
