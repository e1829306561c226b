#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Shared measurement pieces of the perfbench binary: command-line options,
// the result a workload hands back, process counters (CPU clock,
// allocations, peak RSS), the measured window with its traced/untraced
// slices, and the span collector that folds library spans into per-layer
// self time.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/frozen_index.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies the graph's vertex budget (1.0: n ~ 9k, m ~ 116k).
  double scale = 1.0;
  /// Scratch directory for the write workload's WAL (created and removed).
  std::string work_dir = ".";
  /// Chrome trace written at the end of a traced run; empty = none.
  std::string trace_out;
};

/// One metric with the number of samples behind it (0 = not a sample
/// statistic, e.g. a ratio of two counters).
struct Named {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Groups of per-layer metrics; a workload declares the groups it
/// measures, and every metric of a group it bypasses reports 0.
enum class Group { kBuild, kServe, kLive, kObs };

/// What a workload run hands back to main.
struct Result {
  uint64_t attempted = 0;  ///< operations attempted in the window
  uint64_t failed = 0;     ///< failed or wrong operations and checks
  std::vector<std::string> errors;  ///< one line per kind of failure
  /// End-to-end metrics under the contract's generic names.
  std::map<std::string, double> e2e;
  /// Per-layer metrics; only groups listed in `groups` need to be set.
  std::map<std::string, double> layer;
  std::vector<Group> groups;
  /// The same end-to-end numbers under their path-specific names, with
  /// sample counts, for the human report.
  std::vector<Named> named;
  /// Extra run-envelope fields as preformatted JSON values.
  std::vector<std::pair<std::string, std::string>> envelope;

  void Fail(uint64_t count, const std::string& what) {
    if (count == 0) return;
    failed += count;
    errors.push_back(std::to_string(count) + " x " + what);
  }
};

// ---- Process counters -------------------------------------------------------

/// Heap allocations since process start (counting operator new, measure.cc).
uint64_t AllocCount();
/// Process CPU time (all threads), nanoseconds.
uint64_t ProcessCpuNs();
/// Peak resident set size, MiB.
double PeakRssMb();
uint64_t NowNs();

// ---- Statistics ---------------------------------------------------------------

/// Nearest-rank quantile q in [0,1] of `v` (reorders v). 0 when empty.
double Quantile(std::vector<double>* v, double q);
/// The highest quantile with at least ten samples beyond it, capped at
/// p99: the tail a sample of n supports.
double TailQ(size_t n);
double Median(std::vector<double> v);

/// Latencies at 0.4% resolution in constant memory (power-of-two buckets
/// with 256 linear sub-buckets each), for streams too fast to keep every
/// sample. One writer at a time.
class FineHistogram {
 public:
  FineHistogram() : counts_(kBuckets, 0) {}
  void AddNs(uint64_t ns);
  FineHistogram& operator+=(const FineHistogram& other);
  uint64_t count() const { return count_; }
  /// Exact mean of the samples, nanoseconds. 0 when empty.
  double MeanNs() const;
  /// Nearest-rank quantile, microseconds (bucket midpoint).
  double QuantileUs(double q) const;

 private:
  static constexpr int kSubBits = 8;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;
  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
};

/// Consecutive slices of a window are merged into groups of at least
/// kMinGroup samples (or operations) before groups are ranked; a slice of
/// write-mixed holds about four refreezes, so every group sees them.
constexpr uint64_t kMinGroup = 3;
/// The share of the ranked groups pooled: the quietest quarter.
constexpr size_t kQuietShare = 4;

/// The quietest part of a window's per-slice items: consecutive slices
/// merged (+=) into groups with `count` >= kMinGroup (a leftover joins the
/// last group), the groups sorted by `better`, and the first
/// 1/kQuietShare of them (at least one) pooled.
template <typename T, typename Count, typename Better>
T PoolQuietest(const std::vector<T>& slices, Count count, Better better) {
  std::vector<T> groups;
  T open;
  bool pending = false;
  for (const T& s : slices) {
    open += s;
    pending = true;
    if (count(open) >= kMinGroup) {
      groups.push_back(std::move(open));
      open = T();
      pending = false;
    }
  }
  if (pending && !groups.empty()) {
    groups.back() += open;
  } else if (pending) {
    groups.push_back(std::move(open));
  }
  std::sort(groups.begin(), groups.end(), better);
  T quiet;
  const size_t pooled = (groups.size() + kQuietShare - 1) / kQuietShare;
  for (size_t i = 0; i < pooled; ++i) quiet += groups[i];
  return quiet;
}

/// Latency samples kept per slice of the measured window (see Window).
class SlicedLatency {
 public:
  void AddNs(size_t slice, uint64_t ns);
  /// All slices together.
  FineHistogram Total() const;
  /// The samples of the quietest part of the window (PoolQuietest), with
  /// groups ranked by their median (or by their tail, TailQ of the group's
  /// count).
  FineHistogram Quietest(bool by_tail) const;

 private:
  std::vector<FineHistogram> slices_;
};

/// Runs `setup` kSetupReps times and returns the median wall seconds: the
/// benchmark's set-up time. The last run's state is what the window uses.
constexpr int kSetupReps = 9;
double TimeSetup(const std::function<void()>& setup);

// ---- Inputs ---------------------------------------------------------------------

/// The pokec-s recipe (Holme-Kim triadic closure plus a celebrity-hub
/// clique with random followers), drawn from `seed`.
esd::graph::Graph PokecLikeGraph(uint64_t seed, double scale);

/// Zipf(s) sampler over ranks 0..n-1 (weight (rank+1)^-s).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(esd::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---- Build phases -----------------------------------------------------------------

/// The build phases reported per layer.
const std::vector<std::string>& BuildPhases();

/// Per-build samples of the core build phases, and the kBuild group's
/// metrics made from them.
class BuildSamples {
 public:
  /// Runs core::BuildFrozenIndex(g) under a "bench.build" span, records
  /// the phase gauges' deltas, and sets *wall_ms to the build's time.
  esd::core::FrozenEsdIndex Build(const esd::graph::Graph& g, double* wall_ms);
  /// Times one cliques::EdgeSupport(g) call (the triangle-support part of
  /// dsu_init).
  void TimeEdgeSupport(const esd::graph::Graph& g);
  /// Phase and edge-support medians plus the shape of `image` into `layer`.
  void Report(const esd::core::FrozenEsdIndex& image,
              std::map<std::string, double>* layer) const;

 private:
  std::vector<std::vector<double>> phase_ms_{BuildPhases().size()};
  std::vector<double> edge_support_ms_;
};

// ---- Spans ----------------------------------------------------------------------

/// Records a span named `name` (a string literal) with the given clock
/// readings when tracing is on.
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns);

/// Folds the spans the tracer holds into per-name totals. Drain() reads
/// every thread's ring and keeps spans completed since the previous drain;
/// drain at least once per ring's worth of spans per thread.
class SpanCollector {
 public:
  struct Span {
    uint32_t tid;
    uint64_t start_ns;
    uint64_t dur_ns;
  };
  void Drain();
  /// Spans of one name, in completion order per thread.
  const std::vector<Span>& Spans(const std::string& name) const;
  /// Total duration of `parent` spans and of `child_prefix` spans nested in
  /// them on the same thread.
  void NestedTotals(const std::string& parent, const std::string& child_prefix,
                    uint64_t* parent_ns, uint64_t* child_ns,
                    uint64_t* parents) const;

 private:
  std::map<uint32_t, uint64_t> last_end_;  // per tid
  std::map<std::string, std::vector<Span>> spans_;
};

// ---- The measured window ------------------------------------------------------------

/// Times one measured window of `seconds`, cut into slices of a twentieth
/// of it (at most 0.5 s). The workload's threads poll done() and tag their
/// samples with slice(); a controller thread records ops and CPU time per
/// slice and ends the window.
///
/// Load from outside the process only ever adds time, and on a shared host
/// it comes and goes within a run. The end-to-end rates and latencies are
/// therefore taken over the quietest quarter of the window (see
/// PoolQuietest), so interference that covers less than three quarters of
/// it does not move them.
///
/// In a traced run the slices alternate traced and untraced; spans are
/// drained after each traced slice, and CPU time per op in the two kinds
/// of slice gives the trace overhead. Untraced runs keep tracing off.
class Window {
 public:
  /// `ops` returns the number of operations completed so far.
  Window(const Options& options, std::function<uint64_t()> ops);
  ~Window();
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  /// Starts the clock, counters and controller.
  void Start();
  bool done() const { return done_.load(std::memory_order_relaxed); }
  size_t slice() const { return slice_.load(std::memory_order_relaxed); }
  /// Blocks until the window has ended and the controller has stopped.
  void Join();

  double wall_s() const { return wall_s_; }
  uint64_t allocs() const { return allocs_; }
  uint64_t ops() const { return ops_done_; }
  /// Peak RSS at the end of the window: set-up and window, not the checks
  /// and statistics that follow.
  double peak_rss_mb() const { return peak_rss_mb_; }
  /// Ops per second and CPU ns per op over the quietest quarter of the
  /// window.
  double OpsPerSecond() const;
  double CpuNsPerOp() const;
  /// CPU per op in traced slices over untraced slices, minus 1.
  double TraceOverheadFrac() const;
  const SpanCollector& spans() const { return spans_; }

 private:
  struct Slice {
    uint64_t wall_ns = 0;
    uint64_t cpu_ns = 0;
    uint64_t ops = 0;
    bool traced = false;

    Slice& operator+=(const Slice& o) {
      wall_ns += o.wall_ns;
      cpu_ns += o.cpu_ns;
      ops += o.ops;
      return *this;
    }
  };
  void Control();

  const Options options_;
  std::function<uint64_t()> ops_;
  std::atomic<bool> done_{false};
  std::atomic<size_t> slice_{0};
  double wall_s_ = 0;
  uint64_t allocs_ = 0;
  uint64_t ops_done_ = 0;
  double peak_rss_mb_ = 0;
  std::vector<Slice> slices_;
  SpanCollector spans_;
  std::thread controller_;
};

/// Fills the end-to-end metrics every workload measures the same way from
/// its window and its op latencies: op_p50_us and op_tail_us (over the
/// quietest quarter of the window), allocs_per_op, peak_rss_mb, and the
/// per-layer obs.trace_overhead_frac. The workload sets ops_per_s and
/// cpu_ns_per_op.
void ReportCosts(const Window& window, const SlicedLatency& latency,
                 Result* result);

// ---- Workloads (workload_*.cc) ----------------------------------------------------

Result RunBuild(const Options& options);
Result RunWrite(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
