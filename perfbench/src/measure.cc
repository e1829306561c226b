#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <new>

#include "cliques/triangle.h"
#include "core/index_builder.h"
#include "gen/holme_kim.h"
#include "graph/builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// ---- Counting operator new ---------------------------------------------------
//
// Every heap allocation in the process bumps one of a few striped counters
// (one stripe per thread, modulo the stripe count), so counting adds no
// shared cache line between the benchmark's threads.

namespace {

constexpr size_t kStripes = 16;
struct alignas(64) Stripe {
  std::atomic<uint64_t> n{0};
};
Stripe g_alloc_stripes[kStripes];
std::atomic<unsigned> g_next_stripe{0};

void CountAlloc() {
  thread_local const unsigned stripe =
      g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes;
  g_alloc_stripes[stripe].n.fetch_add(1, std::memory_order_relaxed);
}

void* Allocate(std::size_t n) {
  CountAlloc();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  CountAlloc();
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

namespace perfbench {

using esd::graph::Graph;

uint64_t AllocCount() {
  uint64_t total = 0;
  for (const Stripe& s : g_alloc_stripes) {
    total += s.n.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t NowNs() { return esd::obs::MonotonicNanos(); }

// ---- Statistics ---------------------------------------------------------------

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  const size_t n = v->size();
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t idx = std::min(
      n - 1, static_cast<size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<long>(idx), v->end());
  return (*v)[idx];
}

double TailQ(size_t n) {
  if (n == 0) return 0.99;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

void FineHistogram::AddNs(uint64_t ns) {
  size_t idx = 0;
  if (ns < kSub) {
    idx = static_cast<size_t>(ns);
  } else {
    const int shift = std::bit_width(ns) - 1 - kSubBits;
    idx = static_cast<size_t>(shift + 1) * kSub +
          static_cast<size_t>((ns >> shift) & (kSub - 1));
  }
  ++counts_[idx];
  ++count_;
  sum_ns_ += ns;
}

FineHistogram& FineHistogram::operator+=(const FineHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  return *this;
}

double FineHistogram::MeanNs() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_ns_) / static_cast<double>(count_);
}

double FineHistogram::QuantileUs(double q) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  size_t idx = 0;
  for (; idx < kBuckets; ++idx) {
    seen += counts_[idx];
    if (seen >= rank) break;
  }
  if (idx < kSub) return static_cast<double>(idx) * 1e-3;
  const int shift = static_cast<int>(idx / kSub) - 1;
  const double lo = std::ldexp(static_cast<double>(kSub + idx % kSub), shift);
  return (lo + std::ldexp(0.5, shift)) * 1e-3;
}

void SlicedLatency::AddNs(size_t slice, uint64_t ns) {
  if (slice >= slices_.size()) slices_.resize(slice + 1);
  slices_[slice].AddNs(ns);
}

FineHistogram SlicedLatency::Total() const {
  FineHistogram total;
  for (const FineHistogram& h : slices_) total += h;
  return total;
}

FineHistogram SlicedLatency::Quietest(bool by_tail) const {
  auto rank = [by_tail](const FineHistogram& h) {
    return h.QuantileUs(by_tail ? TailQ(h.count()) : 0.5);
  };
  return PoolQuietest(
      slices_, [](const FineHistogram& h) { return h.count(); },
      [&rank](const FineHistogram& a, const FineHistogram& b) {
        return rank(a) < rank(b);
      });
}

double TimeSetup(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupReps; ++i) {
    const uint64_t t0 = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return Median(seconds);
}

// ---- Inputs ---------------------------------------------------------------------

Graph PokecLikeGraph(uint64_t seed, double scale) {
  auto scaled = [scale](double base) {
    return std::max<uint32_t>(16, static_cast<uint32_t>(base * scale + 0.5));
  };
  const Graph base = esd::gen::HolmeKim(scaled(9000), 11, 0.25, seed);
  // Celebrity layer: 15 hubs that know each other, each followed by
  // random users (the pokec-s recipe).
  constexpr uint32_t kHubs = 15;
  const uint32_t followers = scaled(1200);
  esd::util::Rng rng(seed ^ 0xB004B004B004ull);
  const esd::graph::VertexId n = base.NumVertices();
  esd::graph::GraphBuilder b(n + kHubs);
  b.Reserve(base.NumEdges() + kHubs * (kHubs + followers));
  for (const esd::graph::Edge& e : base.Edges()) b.AddEdge(e.u, e.v);
  for (uint32_t h = 0; h < kHubs; ++h) {
    for (uint32_t h2 = h + 1; h2 < kHubs; ++h2) b.AddEdge(n + h, n + h2);
    for (uint32_t f = 0; f < followers; ++f) {
      b.AddEdge(n + h,
                static_cast<esd::graph::VertexId>(rng.NextBounded(n)));
    }
  }
  return b.Build();
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(esd::util::Rng& rng) const {
  const double u = rng.NextDouble();
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

// ---- Build phases -----------------------------------------------------------------

const std::vector<std::string>& BuildPhases() {
  static const std::vector<std::string> phases{
      "dsu_init", "orientation", "clique_enum", "extract_sizes", "slab_sort"};
  return phases;
}

namespace {

/// The cumulative phase gauges every builder run adds to.
std::vector<double> SnapPhaseSeconds() {
  esd::obs::MetricRegistry& reg = esd::obs::MetricRegistry::Global();
  std::vector<double> out;
  for (const std::string& p : BuildPhases()) {
    out.push_back(reg.GaugeValue("esd_phase_build_" + p + "_seconds"));
  }
  return out;
}

}  // namespace

esd::core::FrozenEsdIndex BuildSamples::Build(const Graph& g,
                                              double* wall_ms) {
  const std::vector<double> before = SnapPhaseSeconds();
  const uint64_t t0 = NowNs();
  esd::core::FrozenEsdIndex image = esd::core::BuildFrozenIndex(g);
  const uint64_t t1 = NowNs();
  RecordSpan("bench.build", t0, t1);
  const std::vector<double> after = SnapPhaseSeconds();
  for (size_t i = 0; i < before.size(); ++i) {
    phase_ms_[i].push_back((after[i] - before[i]) * 1e3);
  }
  *wall_ms = static_cast<double>(t1 - t0) * 1e-6;
  return image;
}

void BuildSamples::TimeEdgeSupport(const Graph& g) {
  const uint64_t t0 = NowNs();
  (void)esd::cliques::EdgeSupport(g);
  const uint64_t t1 = NowNs();
  RecordSpan("bench.edge_support", t0, t1);
  edge_support_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
}

void BuildSamples::Report(const esd::core::FrozenEsdIndex& image,
                          std::map<std::string, double>* layer) const {
  for (size_t i = 0; i < BuildPhases().size(); ++i) {
    (*layer)["core.build." + BuildPhases()[i] + "_ms"] = Median(phase_ms_[i]);
  }
  (*layer)["cliques.edge_support_ms"] = Median(edge_support_ms_);
  const double edges =
      std::max<double>(1.0, static_cast<double>(image.NumRegisteredEdges()));
  (*layer)["core.index.entries_per_edge"] =
      static_cast<double>(image.NumEntries()) / edges;
  (*layer)["core.index.pool_values_per_edge"] =
      static_cast<double>(image.SizePool().size()) / edges;
}

// ---- Spans ----------------------------------------------------------------------

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  esd::obs::Tracer& tracer = esd::obs::Tracer::Global();
  if (tracer.enabled()) tracer.RecordComplete(name, start_ns, end_ns - start_ns);
}

namespace {

/// Spans kept by the collector: the benchmark's own and the library's
/// build, live and maintenance spans. The per-request serve spans arrive
/// faster than a ring holds them; their totals come from the service's
/// stage histograms instead.
bool Kept(const std::string& name) {
  for (const char* prefix : {"bench.", "build.", "live.", "maintain."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Reads an unsigned integer at *pos, advancing past it.
uint64_t ReadUint(const std::string& s, size_t* pos) {
  uint64_t v = 0;
  while (*pos < s.size() && s[*pos] >= '0' && s[*pos] <= '9') {
    v = v * 10 + static_cast<uint64_t>(s[*pos] - '0');
    ++*pos;
  }
  return v;
}

/// Reads a "<us>.<3 digits>" microsecond value as nanoseconds.
uint64_t ReadMicrosAsNs(const std::string& s, size_t* pos) {
  uint64_t ns = ReadUint(s, pos) * 1000;
  if (*pos < s.size() && s[*pos] == '.') {
    ++*pos;
    ns += ReadUint(s, pos);
  }
  return ns;
}

}  // namespace

void SpanCollector::Drain() {
  const std::string json = esd::obs::Tracer::Global().ChromeTraceJson();
  const std::map<uint32_t, uint64_t> seen = last_end_;
  static const std::string kEvent = "{\"ph\":\"X\",\"pid\":1,\"tid\":";
  size_t pos = 0;
  while ((pos = json.find(kEvent, pos)) != std::string::npos) {
    pos += kEvent.size();
    const uint32_t tid = static_cast<uint32_t>(ReadUint(json, &pos));
    const size_t name_at = json.find("\"name\":\"", pos);
    if (name_at == std::string::npos) break;
    const size_t name_begin = name_at + 8;
    const size_t name_end = json.find('"', name_begin);
    const std::string name = json.substr(name_begin, name_end - name_begin);
    pos = json.find("\"ts\":", name_end) + 5;
    const uint64_t start = ReadMicrosAsNs(json, &pos);
    pos = json.find("\"dur\":", pos) + 6;
    const uint64_t dur = ReadMicrosAsNs(json, &pos);
    const uint64_t end = start + dur;
    const auto it = seen.find(tid);
    if (it != seen.end() && end <= it->second) continue;
    uint64_t& last = last_end_[tid];
    last = std::max(last, end);
    if (Kept(name)) spans_[name].push_back(Span{tid, start, dur});
  }
}

const std::vector<SpanCollector::Span>& SpanCollector::Spans(
    const std::string& name) const {
  static const std::vector<Span> kNone;
  const auto it = spans_.find(name);
  return it == spans_.end() ? kNone : it->second;
}

void SpanCollector::NestedTotals(const std::string& parent,
                                 const std::string& child_prefix,
                                 uint64_t* parent_ns, uint64_t* child_ns,
                                 uint64_t* parents) const {
  *parent_ns = *child_ns = *parents = 0;
  // Children per thread, by start time.
  std::map<uint32_t, std::vector<Span>> children;
  for (const auto& [name, spans] : spans_) {
    if (name.rfind(child_prefix, 0) != 0) continue;
    for (const Span& s : spans) children[s.tid].push_back(s);
  }
  for (auto& [tid, v] : children) {
    std::sort(v.begin(), v.end(), [](const Span& a, const Span& b) {
      return a.start_ns < b.start_ns;
    });
  }
  for (const Span& p : Spans(parent)) {
    ++*parents;
    *parent_ns += p.dur_ns;
    const auto it = children.find(p.tid);
    if (it == children.end()) continue;
    const std::vector<Span>& v = it->second;
    auto c = std::lower_bound(
        v.begin(), v.end(), p.start_ns,
        [](const Span& s, uint64_t t) { return s.start_ns < t; });
    for (; c != v.end() && c->start_ns < p.start_ns + p.dur_ns; ++c) {
      if (c->start_ns + c->dur_ns <= p.start_ns + p.dur_ns) {
        *child_ns += c->dur_ns;
      }
    }
  }
}

// ---- The measured window ------------------------------------------------------------

Window::Window(const Options& options, std::function<uint64_t()> ops)
    : options_(options), ops_(std::move(ops)) {}

Window::~Window() {
  done_.store(true);
  if (controller_.joinable()) controller_.join();
}

void Window::Start() { controller_ = std::thread([this] { Control(); }); }

void Window::Join() {
  if (controller_.joinable()) controller_.join();
}

void Window::Control() {
  esd::obs::Tracer& tracer = esd::obs::Tracer::Global();
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(options_.seconds * 1e9);
  const uint64_t slice_ns = static_cast<uint64_t>(
      std::clamp(options_.seconds / 20.0, 0.01, 0.5) * 1e9);
  const uint64_t allocs0 = AllocCount();
  const uint64_t ops0 = ops_();
  uint64_t cpu_mark = ProcessCpuNs();
  uint64_t ops_mark = ops0;
  // Traced runs alternate traced and untraced slices, starting traced.
  bool traced = options_.trace;
  tracer.SetEnabled(traced);
  for (uint64_t slice_start = start;;) {
    const uint64_t slice_end = std::min(end, slice_start + slice_ns);
    for (uint64_t now = NowNs(); now < slice_end && !done_.load();
         now = NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(slice_end - now));
    }
    const bool last = slice_end >= end || done_.load();
    if (last) done_.store(true, std::memory_order_relaxed);
    const uint64_t now = NowNs();
    const uint64_t cpu = ProcessCpuNs();
    const uint64_t ops = ops_();
    slices_.push_back(
        Slice{now - slice_start, cpu - cpu_mark, ops - ops_mark, traced});
    slice_.fetch_add(1, std::memory_order_relaxed);
    if (traced) {
      // Drain with tracing off, between slices: the benchmark's own
      // export and parse belong to neither kind of slice.
      tracer.SetEnabled(false);
      spans_.Drain();
    }
    if (last) {
      wall_s_ = static_cast<double>(now - start) * 1e-9;
      allocs_ = AllocCount() - allocs0;
      ops_done_ = ops - ops0;
      peak_rss_mb_ = PeakRssMb();
      return;
    }
    slice_start = NowNs();
    cpu_mark = ProcessCpuNs();
    ops_mark = ops_();
    if (options_.trace) {
      traced = !traced;
      tracer.SetEnabled(traced);
    }
  }
}

double Window::OpsPerSecond() const {
  const Slice q = PoolQuietest(
      slices_, [](const Slice& s) { return s.ops; },
      [](const Slice& a, const Slice& b) {
        return a.ops * b.wall_ns > b.ops * a.wall_ns;  // higher rate first
      });
  return static_cast<double>(q.ops) * 1e9 /
         std::max<double>(1.0, static_cast<double>(q.wall_ns));
}

double Window::CpuNsPerOp() const {
  const Slice q = PoolQuietest(
      slices_, [](const Slice& s) { return s.ops; },
      [](const Slice& a, const Slice& b) {
        return a.cpu_ns * b.ops < b.cpu_ns * a.ops;  // cheaper per op first
      });
  return static_cast<double>(q.cpu_ns) /
         std::max<double>(1.0, static_cast<double>(q.ops));
}

double Window::TraceOverheadFrac() const {
  uint64_t cpu[2] = {0, 0}, ops[2] = {0, 0};
  for (const Slice& s : slices_) {
    cpu[s.traced] += s.cpu_ns;
    ops[s.traced] += s.ops;
  }
  if (ops[0] == 0 || ops[1] == 0 || cpu[0] == 0) return 0.0;
  const double traced =
      static_cast<double>(cpu[1]) / static_cast<double>(ops[1]);
  const double untraced =
      static_cast<double>(cpu[0]) / static_cast<double>(ops[0]);
  return traced / untraced - 1.0;
}

void ReportCosts(const Window& window, const SlicedLatency& latency,
                 Result* result) {
  result->e2e["op_p50_us"] = latency.Quietest(false).QuantileUs(0.5);
  const FineHistogram tail = latency.Quietest(true);
  result->e2e["op_tail_us"] = tail.QuantileUs(TailQ(tail.count()));
  const double n = std::max<double>(1.0, static_cast<double>(window.ops()));
  result->e2e["allocs_per_op"] = static_cast<double>(window.allocs()) / n;
  result->e2e["peak_rss_mb"] = window.peak_rss_mb();
  result->layer["obs.trace_overhead_frac"] = window.TraceOverheadFrac();
}

}  // namespace perfbench
