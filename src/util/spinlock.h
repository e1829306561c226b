#ifndef ESD_UTIL_SPINLOCK_H_
#define ESD_UTIL_SPINLOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace esd::util {

/// Minimal test-and-test-and-set spinlock. Critical sections in the parallel
/// index builder are a handful of array writes, so spinning beats a mutex.
class SpinLock {
 public:
  void Lock() {
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) {
        // spin
      }
    }
  }
  void Unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// RAII guard for SpinLock.
class SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) : lock_(lock) { lock_.Lock(); }
  ~SpinLockGuard() { lock_.Unlock(); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

/// An array of spinlocks indexed by key hash. Algorithm 3's pooled 4-clique
/// stage guards each per-edge disjoint-set structure M_e by the stripe of
/// its edge id; union operations take exactly one stripe at a time, so no
/// lock ordering issues can arise.
class StripedLocks {
 public:
  /// `stripes` is rounded up to a power of two (min 1).
  explicit StripedLocks(size_t stripes = 1024) {
    size_t n = 1;
    while (n < stripes) n <<= 1;
    locks_ = std::vector<SpinLock>(n);
  }

  SpinLock& ForKey(uint64_t key) {
    return locks_[Mix64(key) & (locks_.size() - 1)];
  }

  size_t num_stripes() const { return locks_.size(); }

 private:
  std::vector<SpinLock> locks_;
};

}  // namespace esd::util

#endif  // ESD_UTIL_SPINLOCK_H_
