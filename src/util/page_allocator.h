#ifndef ESD_UTIL_PAGE_ALLOCATOR_H_
#define ESD_UTIL_PAGE_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace esd::util {

/// Allocator for a table sized to an upper bound on what it will hold and
/// written sparsely: each allocation is its own anonymous mapping, and
/// resize() default-initializes instead of zeroing, so a page is paged in
/// only when an element on it is written. Unmapping on deallocation leaves
/// nothing of the reservation in the malloc heap for later allocations to
/// be placed around. Huge pages are declined, so a write pages in 4 KiB,
/// not 2 MiB. Elements that were never written hold indeterminate values.
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  explicit PageAllocator(const PageAllocator<U>&) {}

  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const size_t bytes = Bytes(n);
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
    madvise(p, bytes, MADV_NOHUGEPAGE);
#endif
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) { munmap(p, Bytes(n)); }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }

 private:
  // A zero-length mapping is refused, so an empty table maps one byte.
  static size_t Bytes(size_t n) { return n == 0 ? 1 : n * sizeof(T); }
};

}  // namespace esd::util

#endif  // ESD_UTIL_PAGE_ALLOCATOR_H_
