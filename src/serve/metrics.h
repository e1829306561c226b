#ifndef ESD_SERVE_METRICS_H_
#define ESD_SERVE_METRICS_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/request_context.h"

namespace esd::serve {

/// One coherent read of a service's counters and latency distributions.
struct MetricsSnapshot {
  uint64_t accepted = 0;         ///< requests admitted (queued or inline hits)
  uint64_t rejected = 0;         ///< bounced by bounded admission (or stop)
  uint64_t completed = 0;        ///< served with an engine answer
  uint64_t deadline_missed = 0;  ///< expired in the queue, never executed
  uint64_t batches = 0;          ///< worker wakeups that drained >= 1 request
  uint64_t inline_hits = 0;      ///< cache hits answered on the caller's thread
  uint64_t slab_searches_saved = 0;  ///< tau-batching: binary searches elided
  uint64_t queue_depth = 0;      ///< requests waiting at snapshot time
  obs::LatencyHistogram::Snapshot queue_wait;  ///< admission -> worker pickup
  obs::LatencyHistogram::Snapshot execute;     ///< engine time per served query
  obs::LatencyHistogram::Snapshot total;       ///< admission -> response ready
  /// Per-stage attribution distributions, indexed by obs::Stage. Every
  /// completed request records all six (zeros included), so _count matches
  /// `completed` and sums partition the end-to-end time.
  std::array<obs::LatencyHistogram::Snapshot, obs::kNumStages> stages;
};

/// The instrumentation an EsdQueryService carries, hosted on an
/// obs::MetricRegistry under esd_serve_* names so a scrape of the registry
/// (esd_server's METRICS command) sees the serving counters without a
/// second bookkeeping path. Pass a registry to share (typically
/// &obs::MetricRegistry::Global()); the default constructor keeps a
/// private embedded registry, which load benches rely on so that each
/// sweep configuration starts from zero. All recorders are wait-free
/// relaxed atomics; Snap() and exporters may run concurrently.
class ServiceMetrics {
 public:
  explicit ServiceMetrics(obs::MetricRegistry* registry = nullptr)
      : owned_(registry == nullptr ? std::make_unique<obs::MetricRegistry>()
                                   : nullptr),
        reg_(registry != nullptr ? *registry : *owned_),
        accepted_(reg_.GetCounter(
            "esd_serve_accepted_total",
            "Requests admitted (queued, or answered inline from the cache)")),
        rejected_(reg_.GetCounter("esd_serve_rejected_total",
                                  "Requests bounced by bounded admission")),
        completed_(reg_.GetCounter("esd_serve_completed_total",
                                   "Requests served with an engine answer")),
        deadline_missed_(
            reg_.GetCounter("esd_serve_deadline_missed_total",
                            "Requests expired in the queue, never executed")),
        batches_(reg_.GetCounter("esd_serve_batches_total",
                                 "Worker wakeups that drained >= 1 request")),
        inline_hits_(reg_.GetCounter(
            "esd_serve_inline_hits_total",
            "Result-cache hits answered on the submitting thread, with no "
            "queue or worker")),
        slab_searches_saved_(
            reg_.GetCounter("esd_serve_slab_searches_saved_total",
                            "Slab binary searches elided by tau-batching")),
        queue_depth_(reg_.GetGauge("esd_serve_queue_depth",
                                   "Requests waiting in the queue")),
        queue_wait_(reg_.GetHistogram("esd_serve_queue_wait_us",
                                      "Admission to worker pickup, us")),
        execute_(reg_.GetHistogram("esd_serve_execute_us",
                                   "Engine time per served query, us")),
        total_(reg_.GetHistogram("esd_serve_total_us",
                                 "Admission to response ready, us")),
        stages_{&reg_.GetHistogram(
                    "esd_serve_stage_queue_wait_us",
                    "Attribution: admission to batch pickup, us"),
                &reg_.GetHistogram(
                    "esd_serve_stage_batch_formation_us",
                    "Attribution: batch start to this request's turn "
                    "(sort, engine pin, earlier batchmates), us"),
                &reg_.GetHistogram(
                    "esd_serve_stage_cache_lookup_us",
                    "Attribution: dedup probe + result-cache lookup, us"),
                &reg_.GetHistogram(
                    "esd_serve_stage_slab_scan_us",
                    "Attribution: slab prefix scan / engine query, us"),
                &reg_.GetHistogram(
                    "esd_serve_stage_padding_scan_us",
                    "Attribution: zero-padding walk over live edges, us"),
                &reg_.GetHistogram(
                    "esd_serve_stage_merge_us",
                    "Attribution: answer assembly and cache insert, us")} {}

  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  /// The registry these metrics live on (the shared one, or the embedded
  /// private one when default-constructed).
  obs::MetricRegistry& registry() { return reg_; }

  void RecordAccepted() { accepted_.Inc(); }
  void RecordRejected() { rejected_.Inc(); }
  void RecordInlineHit() { inline_hits_.Inc(); }
  void RecordBatch(size_t distinct_taus, size_t batched_queries) {
    batches_.Inc();
    slab_searches_saved_.Inc(batched_queries - distinct_taus);
  }
  void RecordDeadlineMissed(double queue_us) {
    deadline_missed_.Inc();
    queue_wait_.RecordMicros(queue_us);
  }
  void RecordCompleted(double queue_us, double exec_us) {
    completed_.Inc();
    queue_wait_.RecordMicros(queue_us);
    execute_.RecordMicros(exec_us);
    total_.RecordMicros(queue_us + exec_us);
  }
  void SetQueueDepth(size_t depth) {
    queue_depth_.Set(static_cast<double>(depth));
  }
  /// Records a served request's attribution breakdown. Zero-duration
  /// stages are skipped — a stage histogram's _count is the number of
  /// requests where that stage did work (so its quantiles describe actual
  /// executions, undiluted by zeros), while the stage _sums still
  /// partition end-to-end time exactly. Skipping zeros also halves the
  /// shared-counter traffic on the hot path: a typical request touches
  /// three or four of the six stages.
  void RecordStages(const obs::RequestContext& ctx) {
    for (size_t i = 0; i < obs::kNumStages; ++i) {
      const uint64_t ns = ctx.stage_ns[i];
      if (ns != 0) stages_[i]->RecordNanos(ns);
    }
  }

  MetricsSnapshot Snap() const {
    MetricsSnapshot s;
    s.accepted = accepted_.Value();
    s.rejected = rejected_.Value();
    s.completed = completed_.Value();
    s.deadline_missed = deadline_missed_.Value();
    s.batches = batches_.Value();
    s.inline_hits = inline_hits_.Value();
    s.slab_searches_saved = slab_searches_saved_.Value();
    s.queue_depth = static_cast<uint64_t>(queue_depth_.Value());
    s.queue_wait = queue_wait_.Snap();
    s.execute = execute_.Snap();
    s.total = total_.Snap();
    for (size_t i = 0; i < obs::kNumStages; ++i) {
      s.stages[i] = stages_[i]->Snap();
    }
    return s;
  }

 private:
  std::unique_ptr<obs::MetricRegistry> owned_;
  obs::MetricRegistry& reg_;
  obs::Counter& accepted_;
  obs::Counter& rejected_;
  obs::Counter& completed_;
  obs::Counter& deadline_missed_;
  obs::Counter& batches_;
  obs::Counter& inline_hits_;
  obs::Counter& slab_searches_saved_;
  obs::Gauge& queue_depth_;
  obs::Histogram& queue_wait_;
  obs::Histogram& execute_;
  obs::Histogram& total_;
  std::array<obs::Histogram*, obs::kNumStages> stages_;
};

/// Extra key/value fields (no surrounding braces) in the machine-readable
/// JSON-line dialect bench_common.h emits, appendable to a '{"bench":...'
/// line: counters plus end-to-end and per-stage percentiles.
inline std::string MetricsJsonFields(const MetricsSnapshot& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"accepted\":%llu,\"rejected\":%llu,\"completed\":%llu,"
      "\"deadline_missed\":%llu,\"batches\":%llu,\"inline_hits\":%llu,"
      "\"slab_searches_saved\":%llu,"
      "\"p50_us\":%.3f,\"p95_us\":%.3f,\"p99_us\":%.3f,"
      "\"queue_p95_us\":%.3f,\"exec_p95_us\":%.3f",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.deadline_missed),
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.inline_hits),
      static_cast<unsigned long long>(s.slab_searches_saved),
      s.total.p50_us, s.total.p95_us, s.total.p99_us, s.queue_wait.p95_us,
      s.execute.p95_us);
  return buf;
}

/// Per-stage attribution fields for the same JSON-line dialect: p95 and
/// cumulative sum per stage, so bench artifacts can reconstruct both tail
/// shape and where the run's total wall time went.
inline std::string StageJsonFields(const MetricsSnapshot& s) {
  std::string out;
  char buf[128];
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    const char* name = obs::StageName(static_cast<obs::Stage>(i));
    std::snprintf(buf, sizeof(buf),
                  "%s\"stage_%s_p95_us\":%.3f,\"stage_%s_sum_us\":%.1f",
                  i == 0 ? "" : ",", name, s.stages[i].p95_us, name,
                  s.stages[i].sum_us);
    out.append(buf);
  }
  return out;
}

}  // namespace esd::serve

#endif  // ESD_SERVE_METRICS_H_
