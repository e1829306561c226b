// Workload `build`: repeated core::BuildFrozenIndex (ESDIndex+, Algorithm
// 3) of one seeded pokec-shaped graph on one thread. The only workload
// whose measured window runs the build phases; serve and live are not
// loaded.

#include "core/index_builder.h"
#include "measure.h"

namespace perfbench {

Result RunBuild(const Options& options) {
  using esd::core::FrozenEsdIndex;
  Result result;
  result.groups = {Group::kBuild, Group::kObs};

  esd::graph::Graph g;
  FrozenEsdIndex reference;
  const double setup_s = TimeSetup([&] {
    g = PokecLikeGraph(options.seed, options.scale);
    reference = esd::core::BuildFrozenIndex(g);
  });

  BuildSamples samples;
  SlicedLatency build_time;
  SlicedLatency build_cpu;  // process CPU per build
  uint64_t mismatches = 0;
  std::atomic<uint64_t> builds{0};
  Window window(options, [&] { return builds.load(); });
  window.Start();
  while (!window.done()) {
    const size_t slice = window.slice();
    double ms = 0;
    const uint64_t cpu0 = ProcessCpuNs();
    const FrozenEsdIndex image = samples.Build(g, &ms);
    build_cpu.AddNs(slice, ProcessCpuNs() - cpu0);
    build_time.AddNs(slice, static_cast<uint64_t>(ms * 1e6));
    // Every build of the same graph must produce the same image.
    if (!(image == reference)) ++mismatches;
    if (options.trace) samples.TimeEdgeSupport(g);
    builds.fetch_add(1, std::memory_order_relaxed);
  }
  window.Join();

  const FineHistogram all = build_time.Total();
  result.attempted = all.count();
  result.Fail(mismatches, "build images differ from the first build");

  const double bytes_per_edge =
      static_cast<double>(reference.MemoryBytes()) /
      static_cast<double>(reference.NumRegisteredEdges());
  result.e2e["setup_s"] = setup_s;
  result.e2e["index_bytes_per_edge"] = bytes_per_edge;
  ReportCosts(window, build_time, &result);
  // One build at a time and only 3 or 4 per slice: counting builds per
  // slice would quantize both figures to whole builds, so they come from
  // the per-build means of the quietest quarter instead.
  result.e2e["ops_per_s"] =
      1e9 / std::max(1.0, build_time.Quietest(false).MeanNs());
  result.e2e["cpu_ns_per_op"] = build_cpu.Quietest(false).MeanNs();
  samples.Report(reference, &result.layer);

  result.named = {
      {"setup_s", setup_s, "s", kSetupReps},
      {"build_ms_p50", all.QuantileUs(0.5) * 1e-3, "ms", all.count()},
      {"build_ms_p90", all.QuantileUs(0.9) * 1e-3, "ms", all.count()},
      {"index_bytes_per_edge", bytes_per_edge, "B", 0},
  };
  result.envelope = {{"graph_n", std::to_string(g.NumVertices())},
                     {"graph_m", std::to_string(g.NumEdges())},
                     {"build_threads", "1"}};
  return result;
}

}  // namespace perfbench
