#include "serve/serving_backend.h"

#include "obs/trace.h"

namespace esd::serve {

EngineBackend::EngineBackend(const core::EsdQueryEngine& engine)
    // Aliasing an empty owner: a non-owning pin whose copies touch no
    // reference count.
    : fixed_{std::shared_ptr<const core::EsdQueryEngine>(
                 std::shared_ptr<const void>(), &engine),
             0} {}

EngineBackend::EngineBackend(EpochEngineProvider provider)
    : provider_(std::move(provider)) {}

ServingView EngineBackend::Pin() {
  PinnedEngine pinned = provider_ ? provider_() : fixed_;
  ServingView view;
  view.generation = pinned.epoch;
  view.scorer = pinned.engine->Scorer();
  view.backend = this;
  view.frozen = dynamic_cast<const core::FrozenEsdIndex*>(pinned.engine.get());
  view.engine = std::move(pinned.engine);
  return view;
}

ExecuteOutcome EngineBackend::Execute(
    ServingView& view, uint32_t k, uint32_t tau, bool pad_with_zero_edges,
    std::chrono::steady_clock::time_point /*deadline*/) {
  ExecuteOutcome out;
  const core::FrozenEsdIndex* frozen = view.frozen;
  if (frozen == nullptr || k == 0 || tau == 0) {
    // Degenerate (k or tau 0) or non-frozen engine: per-request path,
    // attributed wholly to slab_scan.
    out.result = view.engine->Query(k, tau, pad_with_zero_edges);
    return out;
  }
  if (view.slab_tau != tau) {
    view.slab = frozen->FindSlab(tau);
    view.slab_tau = tau;
  }
  // Scan and padding run under separate clocks (identical answer to
  // QueryAtSlab(slab, k, pad)): deep-k padding dominates misses under skew,
  // and this is where that shows up.
  out.result = frozen->QueryAtSlab(view.slab, k, false);
  if (pad_with_zero_edges) {
    out.scan_end_ns = obs::MonotonicNanos();
    frozen->PadQueryResult(view.slab, k, &out.result);
  }
  return out;
}

}  // namespace esd::serve
