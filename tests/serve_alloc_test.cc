// Allocation budget of the serving hand-off. Once warm, a cache-hit
// request submitted through SubmitAsync with a small callback costs at
// most one heap allocation: the copy of the cached result into its
// response. Admission, the worker hand-off, batching and completion
// allocate nothing.
//
// The executable links esd_alloc_count, whose operator new counts every
// allocation, so it is kept apart from the other suites. Sanitizer builds
// keep their own allocator and count nothing: the test skips there.

#include <atomic>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "gen/barabasi_albert.h"
#include "graph/graph.h"
#include "serve/query_service.h"
#include "util/alloc_count.h"

namespace esd {
namespace {

using serve::EsdQueryService;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ResponseStatus;

/// Completion tally the callbacks share; each callback captures only a
/// pointer to it, which std::function stores inline.
struct Tally {
  std::atomic<uint64_t> done{0};
  std::atomic<uint64_t> ok{0};
};

/// The requests of both phases: six (tau, k) combinations, each answered
/// with a non-empty result.
QueryRequest RequestAt(uint64_t i) {
  QueryRequest rq;
  rq.tau = 1 + static_cast<uint32_t>(i % 3);
  rq.k = 4 + static_cast<uint32_t>(i % 2) * 4;
  return rq;
}

/// Submits `count` requests from RequestAt(first...), keeping at most
/// `window` in flight, and returns once all are answered. Neither the
/// submission nor the wait allocates.
void Drive(EsdQueryService& service, Tally& tally, uint64_t first,
           uint64_t count, uint64_t window) {
  const uint64_t base = tally.done.load();
  for (uint64_t i = 0; i < count; ++i) {
    while (i - (tally.done.load() - base) >= window) std::this_thread::yield();
    Tally* t = &tally;
    service.SubmitAsync(RequestAt(first + i), [t](QueryResponse resp) {
      if (resp.status == ResponseStatus::kOk && !resp.result.empty()) {
        t->ok.fetch_add(1);
      }
      t->done.fetch_add(1);
    });
  }
  while (tally.done.load() - base < count) std::this_thread::yield();
}

TEST(ServeAllocTest, CacheHitHandOffAllocatesOnlyTheResultCopy) {
  if (!util::AllocCountingEnabled()) {
    GTEST_SKIP() << "the sanitizer owns operator new; allocations not counted";
  }
  graph::Graph g = gen::BarabasiAlbert(200, 4, 21);
  core::FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.max_batch = 32;
  opts.max_queue = 1024;
  opts.cache_bytes = 1 << 20;
  opts.start_paused = true;
  EsdQueryService service(frozen, opts);
  Tally tally;

  // Warm-up. A paused backlog of 64 grows the ring to 64 slots and hands
  // the worker one full batch, growing its buffers to max_batch; the rest
  // fill the cache with every combination and the slow log's stripes.
  constexpr uint64_t kWindow = 64;
  for (uint64_t i = 0; i < kWindow; ++i) {
    Tally* t = &tally;
    service.SubmitAsync(RequestAt(i), [t](QueryResponse) {
      t->done.fetch_add(1);
    });
  }
  service.Start();
  while (tally.done.load() < kWindow) std::this_thread::yield();
  Drive(service, tally, 0, 4000, kWindow);

  constexpr uint64_t kRequests = 20000;
  const uint64_t ok0 = tally.ok.load();
  const uint64_t allocs0 = util::AllocCount();
  Drive(service, tally, 0, kRequests, kWindow);
  const uint64_t allocs = util::AllocCount() - allocs0;
  EXPECT_EQ(tally.ok.load() - ok0, kRequests);
  EXPECT_LE(allocs, kRequests) << static_cast<double>(allocs) / kRequests
                               << " allocations per request";
  service.Stop();
  const serve::ResultCache::Stats cache = service.cache()->Snap();
  EXPECT_EQ(cache.misses, 6u);  // one compulsory miss per combination
  EXPECT_EQ(service.metrics().Snap().rejected, 0u);
}

}  // namespace
}  // namespace esd
