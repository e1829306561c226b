#ifndef ESD_TESTS_DSU_ORACLE_H_
#define ESD_TESTS_DSU_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

// The oracle for the disjoint sets of util/dsu.h: a classic index-range
// DSU with its own parent and count arrays, sharing no code with them.

namespace esd::test {

/// Disjoint-set union over a fixed index range [0, n): union by size with
/// path halving.
class Dsu {
 public:
  /// Creates n singleton sets {0}, {1}, ..., {n-1}.
  explicit Dsu(size_t n = 0) : parent_(n), count_(n, 1), num_components_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
  }

  /// Number of disjoint sets.
  size_t NumComponents() const { return num_components_; }

  /// Representative of x's set.
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b; returns true if they were distinct.
  bool Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (count_[a] < count_[b]) std::swap(a, b);
    parent_[b] = a;
    count_[a] += count_[b];
    --num_components_;
    return true;
  }

  /// Size of the set containing x.
  uint32_t ComponentSize(uint32_t x) { return count_[Find(x)]; }

  /// True if a and b are in the same set.
  bool Same(uint32_t a, uint32_t b) { return Find(a) == Find(b); }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> count_;
  size_t num_components_ = 0;
};

}  // namespace esd::test

#endif  // ESD_TESTS_DSU_ORACLE_H_
