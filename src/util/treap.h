#ifndef ESD_UTIL_TREAP_H_
#define ESD_UTIL_TREAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/rng.h"

namespace esd::util {

/// Treap: the "self-balance binary search tree" the paper uses for every
/// sorted list H(c) of the ESDIndex (Section IV-A).
///
/// Supports O(log n) expected insert/erase/contains, an O(n) bulk build
/// from sorted input (used by the index builders), and in-order traversal
/// with early termination (the O(k log n) top-k scan) — all that a list
/// walked for its first k entries and repaired by insert and erase needs.
///
/// Nodes live in a contiguous pool with a free list, so the treap is
/// trivially copyable — index maintenance exploits this to clone an H(c')
/// list when a brand-new component size c appears (see DESIGN.md §3).
template <typename Key, typename Less = std::less<Key>>
class Treap {
 public:
  explicit Treap(Less less = Less()) : less_(less), rng_(0xE5DA1DB8u) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Removes all keys (keeps the pool allocation).
  void Clear() {
    nodes_.clear();
    free_.clear();
    root_ = kNil;
    count_ = 0;
  }

  /// Inserts `key`; returns false if an equal key is already present.
  bool Insert(const Key& key) {
    bool inserted = false;
    root_ = InsertRec(root_, key, &inserted);
    if (inserted) ++count_;
    return inserted;
  }

  /// Erases `key`; returns false if absent.
  bool Erase(const Key& key) {
    bool erased = false;
    root_ = EraseRec(root_, key, &erased);
    if (erased) --count_;
    return erased;
  }

  /// True if an equal key is present.
  bool Contains(const Key& key) const {
    uint32_t n = root_;
    while (n != kNil) {
      if (less_(key, nodes_[n].key)) {
        n = nodes_[n].left;
      } else if (less_(nodes_[n].key, key)) {
        n = nodes_[n].right;
      } else {
        return true;
      }
    }
    return false;
  }

  /// In-order traversal; `fn(key)` returns false to stop early. Returns
  /// false if the traversal was stopped.
  template <typename Fn>
  bool ForEachInOrder(Fn&& fn) const {
    return Walk(root_, fn);
  }

  /// Rebuilds the treap from strictly-increasing sorted keys in O(n),
  /// replacing current contents. Uses the right-spine Cartesian-tree
  /// construction with random priorities.
  void BuildFromSorted(std::span<const Key> sorted) {
    Clear();
    nodes_.reserve(sorted.size());
    std::vector<uint32_t> spine;  // rightmost path, top to bottom
    for (const Key& key : sorted) {
      uint32_t n = NewNode(key);
      uint32_t last_popped = kNil;
      while (!spine.empty() && nodes_[spine.back()].prio < nodes_[n].prio) {
        last_popped = spine.back();
        spine.pop_back();
      }
      nodes_[n].left = last_popped;
      if (spine.empty()) {
        root_ = n;
      } else {
        nodes_[spine.back()].right = n;
      }
      spine.push_back(n);
    }
    count_ = sorted.size();
  }

  /// Structural self-check (tests/debug): verifies the BST order, the
  /// max-heap priority invariant, and the key count. O(n).
  bool ValidateStructure() const {
    size_t visited = 0;
    bool ok = ValidateRec(root_, nullptr, nullptr, &visited);
    return ok && visited == count_;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  bool ValidateRec(uint32_t n, const Key* lo, const Key* hi,
                   size_t* visited) const {
    if (n == kNil) return true;
    const Node& node = nodes_[n];
    if (lo != nullptr && !less_(*lo, node.key)) return false;
    if (hi != nullptr && !less_(node.key, *hi)) return false;
    if (node.left != kNil && nodes_[node.left].prio > node.prio) return false;
    if (node.right != kNil && nodes_[node.right].prio > node.prio) {
      return false;
    }
    *visited += 1;
    return ValidateRec(node.left, lo, &node.key, visited) &&
           ValidateRec(node.right, &node.key, hi, visited);
  }

  struct Node {
    Key key;
    uint32_t prio;
    uint32_t left = kNil;
    uint32_t right = kNil;
  };

  uint32_t NewNode(const Key& key) {
    uint32_t prio = static_cast<uint32_t>(rng_.Next());
    if (!free_.empty()) {
      uint32_t n = free_.back();
      free_.pop_back();
      nodes_[n] = Node{key, prio, kNil, kNil};
      return n;
    }
    nodes_.push_back(Node{key, prio, kNil, kNil});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  uint32_t RotateRight(uint32_t n) {
    uint32_t l = nodes_[n].left;
    nodes_[n].left = nodes_[l].right;
    nodes_[l].right = n;
    return l;
  }

  uint32_t RotateLeft(uint32_t n) {
    uint32_t r = nodes_[n].right;
    nodes_[n].right = nodes_[r].left;
    nodes_[r].left = n;
    return r;
  }

  uint32_t InsertRec(uint32_t n, const Key& key, bool* inserted) {
    if (n == kNil) {
      *inserted = true;
      return NewNode(key);
    }
    if (less_(key, nodes_[n].key)) {
      nodes_[n].left = InsertRec(nodes_[n].left, key, inserted);
      if (nodes_[nodes_[n].left].prio > nodes_[n].prio) n = RotateRight(n);
    } else if (less_(nodes_[n].key, key)) {
      nodes_[n].right = InsertRec(nodes_[n].right, key, inserted);
      if (nodes_[nodes_[n].right].prio > nodes_[n].prio) n = RotateLeft(n);
    }
    return n;
  }

  uint32_t EraseRec(uint32_t n, const Key& key, bool* erased) {
    if (n == kNil) return kNil;
    if (less_(key, nodes_[n].key)) {
      nodes_[n].left = EraseRec(nodes_[n].left, key, erased);
    } else if (less_(nodes_[n].key, key)) {
      nodes_[n].right = EraseRec(nodes_[n].right, key, erased);
    } else {
      *erased = true;
      if (nodes_[n].left == kNil) {
        uint32_t r = nodes_[n].right;
        free_.push_back(n);
        return r;
      }
      if (nodes_[n].right == kNil) {
        uint32_t l = nodes_[n].left;
        free_.push_back(n);
        return l;
      }
      if (nodes_[nodes_[n].left].prio > nodes_[nodes_[n].right].prio) {
        n = RotateRight(n);
        nodes_[n].right = EraseRec(nodes_[n].right, key, erased);
      } else {
        n = RotateLeft(n);
        nodes_[n].left = EraseRec(nodes_[n].left, key, erased);
      }
    }
    return n;
  }

  template <typename Fn>
  bool Walk(uint32_t n, Fn&& fn) const {
    if (n == kNil) return true;
    if (!Walk(nodes_[n].left, fn)) return false;
    if (!fn(nodes_[n].key)) return false;
    return Walk(nodes_[n].right, fn);
  }

  Less less_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> free_;
  uint32_t root_ = kNil;
  size_t count_ = 0;
};

}  // namespace esd::util

#endif  // ESD_UTIL_TREAP_H_
