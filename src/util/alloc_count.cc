#include "util/alloc_count.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ESD_ALLOC_COUNT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ESD_ALLOC_COUNT_SANITIZED 1
#endif
#endif

namespace {

std::atomic<uint64_t> g_allocs{0};

}  // namespace

namespace esd::util {

#ifdef ESD_ALLOC_COUNT_SANITIZED
bool AllocCountingEnabled() { return false; }
#else
bool AllocCountingEnabled() { return true; }
#endif

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace esd::util

#ifndef ESD_ALLOC_COUNT_SANITIZED

namespace {

void* Allocate(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a =
      std::max(sizeof(void*), static_cast<std::size_t>(align));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // ESD_ALLOC_COUNT_SANITIZED
