#include "serve/slowlog.h"

#include <algorithm>
#include <cstdio>

#include "obs/trace.h"

namespace esd::serve {

namespace {

bool CheaperThan(const SlowQueryRecord& a, const SlowQueryRecord& b) {
  // std::push_heap builds a max-heap; inverting the comparison keeps the
  // *cheapest* retained record on top, where eviction can see it in O(1).
  return a.total_us > b.total_us;
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

}  // namespace

SlowQueryLog::SlowQueryLog(const Options& options)
    : capacity_(std::max<size_t>(1, options.capacity)),
      window_(options.window),
      window_ns_(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(options.window)
              .count())),
      stripes_(std::max<size_t>(1, options.stripes)) {}

void SlowQueryLog::ExpireLocked(Stripe& stripe, uint64_t now_ns) const {
  auto expired = [&](const SlowQueryRecord& r) {
    return now_ns - r.recorded_ns > window_ns_;
  };
  if (std::none_of(stripe.heap.begin(), stripe.heap.end(), expired)) return;
  stripe.heap.erase(
      std::remove_if(stripe.heap.begin(), stripe.heap.end(), expired),
      stripe.heap.end());
  std::make_heap(stripe.heap.begin(), stripe.heap.end(), CheaperThan);
}

void SlowQueryLog::RefreshHintsLocked(Stripe& stripe) const {
  stripe.floor_us.store(stripe.heap.size() >= capacity_
                            ? stripe.heap.front().total_us
                            : -1.0,
                        std::memory_order_relaxed);
  uint64_t oldest = 0;
  for (const SlowQueryRecord& r : stripe.heap) {
    if (oldest == 0 || r.recorded_ns < oldest) oldest = r.recorded_ns;
  }
  stripe.oldest_ns.store(oldest, std::memory_order_relaxed);
}

void SlowQueryLog::Record(SlowQueryRecord record) {
  // Sequential ids round-robin the stripes, spreading concurrent workers
  // across locks even under a single hot client.
  Stripe& stripe = stripes_[record.request_id % stripes_.size()];
  stripe.recorded.fetch_add(1, std::memory_order_relaxed);
  if (record.recorded_ns == 0) record.recorded_ns = obs::MonotonicNanos();
  // Saturated-stripe fast path: once the stripe is full (floor_us >= 0),
  // a record that can't beat the cheapest retained entry is dropped with
  // two relaxed loads — no mutex, no expiry scan. The oldest_ns guard
  // keeps this sound: if the stripe's oldest entry may have aged out of
  // the window, the floor is stale-high and we must take the lock to
  // expire and re-evaluate. (Unsigned wrap from a concurrent hint update
  // only over-estimates the age, which falls through to the slow path —
  // the conservative direction.)
  const double floor_us = stripe.floor_us.load(std::memory_order_relaxed);
  if (floor_us >= 0 && record.total_us <= floor_us &&
      record.recorded_ns -
              stripe.oldest_ns.load(std::memory_order_relaxed) <=
          window_ns_) {
    return;
  }
  std::lock_guard<std::mutex> lock(stripe.mu);
  ExpireLocked(stripe, record.recorded_ns);
  if (stripe.heap.size() < capacity_) {
    stripe.heap.push_back(std::move(record));
    std::push_heap(stripe.heap.begin(), stripe.heap.end(), CheaperThan);
  } else if (record.total_us > stripe.heap.front().total_us) {
    std::pop_heap(stripe.heap.begin(), stripe.heap.end(), CheaperThan);
    stripe.heap.back() = std::move(record);
    std::push_heap(stripe.heap.begin(), stripe.heap.end(), CheaperThan);
  }
  RefreshHintsLocked(stripe);
}

std::vector<SlowQueryRecord> SlowQueryLog::Worst(size_t n) const {
  const uint64_t now_ns = obs::MonotonicNanos();
  std::vector<SlowQueryRecord> merged;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const SlowQueryRecord& r : stripe.heap) {
      if (now_ns - r.recorded_ns > window_ns_) continue;
      merged.push_back(r);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.request_id < b.request_id;
            });
  size_t keep = capacity_;
  if (n != 0) keep = std::min(keep, n);
  if (merged.size() > keep) merged.resize(keep);
  return merged;
}

std::string SlowQueryLog::ToJson(const SlowQueryRecord& r, uint64_t now_ns) {
  std::string out = "{\"rid\":" + std::to_string(r.request_id);
  out.append(",\"total_us\":");
  AppendDouble(&out, r.total_us);
  out.append(",\"queue_us\":");
  AppendDouble(&out, r.queue_us);
  out.append(",\"exec_us\":");
  AppendDouble(&out, r.exec_us);
  out.append(",\"tau\":" + std::to_string(r.tau));
  out.append(",\"k\":" + std::to_string(r.k));
  out.append(r.pad_with_zero_edges ? ",\"pad\":true" : ",\"pad\":false");
  out.append(",\"scorer\":\"");
  out.append(core::ScorerKindName(r.scorer));
  out.append("\",\"epoch\":" + std::to_string(r.epoch));
  out.append(",\"cache\":\"");
  out.append(obs::CacheOutcomeName(r.cache));
  out.append("\",\"health\":\"");
  out.append(obs::HealthStateName(r.health));
  out.append("\",\"deadline_missed\":");
  out.append(r.deadline_missed ? "true" : "false");
  out.append(",\"age_s\":");
  AppendDouble(&out, now_ns >= r.recorded_ns
                         ? static_cast<double>(now_ns - r.recorded_ns) * 1e-9
                         : 0.0);
  out.append(",\"stages\":{");
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    if (i != 0) out.push_back(',');
    out.push_back('"');
    out.append(obs::StageName(static_cast<obs::Stage>(i)));
    out.append("\":");
    AppendDouble(&out, r.stage_us[i]);
  }
  out.append("}}");
  return out;
}

std::vector<std::string> SlowQueryLog::JsonLines(size_t n) const {
  const uint64_t now_ns = obs::MonotonicNanos();
  std::vector<std::string> out;
  for (const SlowQueryRecord& r : Worst(n)) {
    out.push_back(ToJson(r, now_ns));
  }
  return out;
}

void SlowQueryLog::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.heap.clear();
    RefreshHintsLocked(stripe);
  }
}

}  // namespace esd::serve
