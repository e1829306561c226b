// perfbench: the repository benchmark. Runs one workload for a measured
// window and prints, as its last stdout line, one JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it give the same numbers under their
// path-specific names with sample counts, and the run envelope.
//
//   perfbench --workload build|write-mixed --seed N
//             --seconds S --trace 0|1 [--scale X] [--work-dir D]
//             [--trace-out FILE]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "fault/failpoint.h"
#include "measure.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  Group group;  // per-layer only
};

/// End-to-end metrics, reported by every workload. An "op" is one build
/// (build) or one 16-update batch (write-mixed), whose latency runs until
/// readers can see it.
const std::vector<MetricDef>& EndToEnd() {
  static const std::vector<MetricDef> defs{
      {"setup_s", "s", Group::kObs},
      {"op_p50_us", "us", Group::kObs},
      {"op_tail_us", "us", Group::kObs},
      {"ops_per_s", "1/s", Group::kObs},
      {"cpu_ns_per_op", "ns", Group::kObs},
      {"allocs_per_op", "count", Group::kObs},
      {"peak_rss_mb", "MB", Group::kObs},
      {"index_bytes_per_edge", "B", Group::kObs},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayer() {
  static const std::vector<MetricDef> defs{
      {"core.build.dsu_init_ms", "ms", Group::kBuild},
      {"core.build.orientation_ms", "ms", Group::kBuild},
      {"core.build.clique_enum_ms", "ms", Group::kBuild},
      {"core.build.extract_sizes_ms", "ms", Group::kBuild},
      {"core.build.slab_sort_ms", "ms", Group::kBuild},
      {"cliques.edge_support_ms", "ms", Group::kBuild},
      {"core.index.entries_per_edge", "count", Group::kBuild},
      {"core.index.pool_values_per_edge", "count", Group::kBuild},
      {"serve.queue_wait_ns_per_query", "ns", Group::kServe},
      {"serve.queue_wait_p95_us", "us", Group::kServe},
      {"serve.batch_formation_ns_per_query", "ns", Group::kServe},
      {"serve.batch_size_mean", "count", Group::kServe},
      {"serve.merge_ns_per_query", "ns", Group::kServe},
      {"serve.cache_lookup_ns_per_query", "ns", Group::kServe},
      {"serve.slab_scan_ns_per_query", "ns", Group::kServe},
      {"serve.padding_scan_ns_per_query", "ns", Group::kServe},
      {"core.frozen.entries_scanned_per_query", "count", Group::kServe},
      {"serve.cache_hit_rate", "frac", Group::kServe},
      {"serve.cache_evictions_per_query", "count", Group::kServe},
      {"live.apply_busy_frac", "frac", Group::kLive},
      {"live.apply_self_us_per_update", "us", Group::kLive},
      {"live.maintain_us_per_update", "us", Group::kLive},
      {"live.refreeze_ms_p50", "ms", Group::kLive},
      {"live.refreeze_ms_max", "ms", Group::kLive},
      {"live.publish_interval_ms_p50", "ms", Group::kLive},
      {"live.snapshot_lag_max", "count", Group::kLive},
      {"live.wal_bytes_per_update", "B", Group::kLive},
      {"live.noop_frac", "frac", Group::kLive},
      {"live.write_ack_p50_us", "us", Group::kLive},
      {"live.write_ack_p99_us", "us", Group::kLive},
      {"live.visible_lag_p50_ms", "ms", Group::kLive},
      {"live.visible_lag_p99_ms", "ms", Group::kLive},
      {"live.read_p99_us", "us", Group::kLive},
      {"obs.trace_overhead_frac", "frac", Group::kObs},
  };
  return defs;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "build|write-mixed --seed N --seconds S "
               "--trace 0|1 [--scale X] [--work-dir D] [--trace-out FILE]\n",
               why);
  return 2;
}

/// Wall time of four threads spinning a fixed amount against one: about
/// 4 with four free cores, about 1 when the threads share one core.
double ParallelCapacity() {
  auto spin = [] {
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 20000000; ++i) x = x + i;
  };
  uint64_t t0 = NowNs();
  spin();
  const double one = static_cast<double>(NowNs() - t0);
  t0 = NowNs();
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(spin);
  for (std::thread& t : threads) t.join();
  const double four = static_cast<double>(NowNs() - t0);
  return 4.0 * one / four;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, Options* o, std::string* error) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      o->trace = value == "1";
    } else if (flag == "--scale") {
      o->scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else if (flag == "--trace-out") {
      o->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_trace) *error = "--trace must be 0 or 1";
  if (!(o->seconds > 0 && o->seconds <= 600)) *error = "--seconds out of range";
  if (!(o->scale > 0 && o->scale <= 16)) *error = "--scale out of range";
  return error->empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) return Usage(error.c_str());
  // The span-based per-layer metrics would all read 0 without spans.
  if (options.trace && !ESD_OBS_TRACING) {
    return Usage("--trace 1 needs trace spans (built with ESD_OBS_TRACING=0)");
  }

  // Set-up runs untraced; a traced run's window turns tracing on.
  esd::obs::Tracer::Global().SetEnabled(false);
  const double capacity = ParallelCapacity();

  Result result;
  if (options.workload == "build") {
    result = RunBuild(options);
  } else if (options.workload == "write-mixed") {
    result = RunWrite(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }

  // Human report: path-specific end-to-end names with sample counts.
  const double error_rate = static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted);
  result.named.push_back({"error_rate", error_rate, "frac", result.attempted});
  result.named.push_back(
      {"cpu_ns_per_op", result.e2e["cpu_ns_per_op"], "ns", 0});
  result.named.push_back(
      {"allocs_per_op", result.e2e["allocs_per_op"], "count", 0});
  result.named.push_back({"peak_rss_mb", result.e2e["peak_rss_mb"], "MB", 0});
  std::printf("workload %s seed %llu (%s)\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  for (const Named& m : result.named) {
    std::printf("  %-24s %14.4f %-5s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" (n=%llu)", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }

  // Contract metrics: every end-to-end metric, or every per-layer one
  // (0 for groups this workload bypasses).
  std::string metrics;
  const std::vector<MetricDef>& defs = options.trace ? PerLayer() : EndToEnd();
  const std::map<std::string, double>& values =
      options.trace ? result.layer : result.e2e;
  for (const MetricDef& d : defs) {
    double v = 0;
    const auto it = values.find(d.name);
    const bool measured =
        !options.trace || std::find(result.groups.begin(), result.groups.end(),
                                    d.group) != result.groups.end();
    if (it != values.end()) {
      v = it->second;
    } else if (measured) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", d.name);
      return 1;
    }
    if (options.trace) {
      std::printf("  %-40s %14.4f %s%s\n", d.name, v, d.unit,
                  measured ? "" : "  (layer bypassed)");
    }
    metrics += std::string(metrics.empty() ? "" : ",") + "\"" + d.name +
               "\":{\"value\":" + Num(v) + ",\"unit\":\"" + d.unit + "\"}";
  }

  // Machine-readable report line: the named metrics and the run envelope.
  std::string named;
  for (const Named& m : result.named) {
    named += std::string(named.empty() ? "" : ",") + "\"" + m.name +
             "\":{\"value\":" + Num(m.value) + ",\"unit\":\"" + m.unit +
             "\",\"samples\":" + std::to_string(m.samples) + "}";
  }
  std::string envelope =
      "{\"named\":{" + named + "},\"envelope\":{\"workload\":\"" +
      options.workload +
      "\",\"seed\":" + std::to_string(options.seed) +
      ",\"scale\":" + Num(options.scale) +
      ",\"seconds\":" + Num(options.seconds) +
      ",\"trace\":" + (options.trace ? "true" : "false") +
      ",\"hardware_threads\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"parallel_capacity\":" + Num(capacity) + ",\"build_type\":\"" +
      PERFBENCH_BUILD_TYPE + "\",\"esd_obs\":" +
      (ESD_OBS_TRACING ? "true" : "false") + ",\"esd_fault\":" +
      (esd::fault::kFailPointsCompiledIn ? "true" : "false");
  for (const auto& [key, value] : result.envelope) {
    envelope += ",\"" + key + "\":" + value;
  }
  std::printf("%s}}\n", envelope.c_str());

  if (options.trace && !options.trace_out.empty()) {
    std::string werr;
    if (!esd::obs::Tracer::Global().WriteChromeTrace(options.trace_out,
                                                     &werr)) {
      std::fprintf(stderr, "perfbench: trace not written: %s\n", werr.c_str());
    }
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
