#ifndef ESD_UTIL_ALLOC_COUNT_H_
#define ESD_UTIL_ALLOC_COUNT_H_

#include <cstdint>

// Heap-allocation counting for load benches and allocation-budget tests.
// util/alloc_count.cc replaces the global operator new and delete of the
// executable it is linked into (CMake target esd_alloc_count, an object
// library no other library links), so only those executables count.

namespace esd::util {

/// True when this build counts allocations. AddressSanitizer and
/// ThreadSanitizer builds keep the sanitizer's allocator and count nothing.
bool AllocCountingEnabled();

/// operator new calls (every form) made by this process so far.
uint64_t AllocCount();

}  // namespace esd::util

#endif  // ESD_UTIL_ALLOC_COUNT_H_
