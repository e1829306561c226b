// Command-line tool: load a SNAP-format edge list (or generate a built-in
// dataset), build an ESD query engine, and answer top-k structural
// diversity queries.
//
// Usage:
//   esd_cli --file <edge_list> [--k 10] [--tau 2] [--engine NAME]
//           [--save-index <path>] [--load-index <path>] [--explain]
//   esd_cli --dataset pokec-s [--scale 0.2] [--k 10] [--tau 2]
//
// --explain re-runs the query with per-stage attribution (the same stage
// taxonomy the serving layer uses: slab_scan / padding_scan / merge) and
// prints where the time went. On a frozen engine the stages are timed
// individually; other engines execute as one opaque stage.
//
// Engines: treap (the paper's index), frozen (read-optimized serving
// image), dynamic (maintained index), online / online-mindeg (index-free
// BFS). --online is a shorthand for --engine online. --save-index writes
// the one index file format (the frozen array image; a treap engine is
// frozen first) and --load-index reads it into either engine (a treap
// engine thaws it).
//
// --scorer picks the diversity definition the engine ranks by: esd (the
// paper's component-count score, default), truss (k-truss cohesion of the
// ego components), or egobw (top-k ego-betweenness). Saved index files are
// stamped with the scorer id; loading a file built for a different scorer
// is a typed error, never silently wrong answers.
//
// With --live-dir the tool first recovers the graph a live server left in
// that directory (checkpoint snapshot + WAL suffix, read-only — torn tails
// are tolerated but not compacted) and then builds the engine from scratch
// on the recovered graph. This is the independent replay path the
// kill-and-recover smoke test compares a restarted esd_server against.
//
// Examples:
//   build/examples/esd_cli --dataset dblp-s --scale 0.1 --k 5 --tau 2
//   build/examples/esd_cli --file my_graph.txt --k 20 --tau 3 --online
//   build/examples/esd_cli --dataset pokec-s --engine frozen --save-index p.esdx
//   build/examples/esd_cli --dataset pokec-s --load-index p.esdx --k 5
//   build/examples/esd_cli --dataset dblp-s --live-dir /tmp/esd_live --k 5

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "cliques/triangle.h"
#include "cliques/truss.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_io.h"
#include "core/query_engine.h"
#include "esd_version.h"
#include "gen/datasets.h"
#include "graph/connectivity.h"
#include "graph/core_decomposition.h"
#include "graph/io.h"
#include "live/recovery.h"
#include "live/wal.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "util/flag_parse.h"
#include "util/timer.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "esd_cli %s\n"
               "usage: esd_cli (--file <edge_list> | --dataset <name>)\n"
               "               [--scale S] [--k K] [--tau T] [--engine E]\n"
               "               [--scorer esd|truss|egobw]\n"
               "               [--online] [--stats] [--metrics] [--explain]\n"
               "               [--save-index P] [--load-index P]\n"
               "               [--live-dir DIR]\n"
               "engines:",
               esd::kVersionString);
  for (const std::string& name : esd::core::QueryEngineNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\nscorers:");
  for (const std::string& name : esd::core::ScorerNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\ndatasets:");
  for (const std::string& name : esd::gen::StandardDatasetNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esd;

  std::string file, dataset, save_index, load_index, live_dir;
  std::string engine_name = "treap";
  std::string scorer_name = "esd";
  double scale = 1.0;
  uint32_t k = 10, tau = 2;
  bool stats = false;
  bool metrics = false;
  bool explain = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--file") {
      file = next();
    } else if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--scale" || arg == "--k" || arg == "--tau") {
      const char* text = next();
      const bool ok = arg == "--scale" ? util::ParseFlagValue(text, &scale)
                      : arg == "--k"   ? util::ParseFlagValue(text, &k)
                                       : util::ParseFlagValue(text, &tau);
      if (!ok) {
        Usage();
        return 2;
      }
    } else if (arg == "--engine") {
      engine_name = next();
    } else if (arg == "--scorer") {
      scorer_name = next();
    } else if (arg == "--online") {
      engine_name = "online";
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--save-index") {
      save_index = next();
    } else if (arg == "--load-index") {
      load_index = next();
    } else if (arg == "--live-dir") {
      live_dir = next();
    } else {
      Usage();
      return 2;
    }
  }
  if (file.empty() == dataset.empty()) {  // exactly one source required
    Usage();
    return 2;
  }
  const core::DiversityScorer* scorer = core::FindScorer(scorer_name);
  if (scorer == nullptr) {
    std::fprintf(stderr, "error: unknown scorer '%s' (expected one of:",
                 scorer_name.c_str());
    for (const std::string& name : core::ScorerNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  graph::Graph g;
  if (!file.empty()) {
    std::string error;
    if (!graph::LoadEdgeList(file, &g, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  } else {
    bool known = false;
    for (const std::string& name : gen::StandardDatasetNames()) {
      known |= name == dataset;
    }
    if (!known) {
      Usage();
      return 2;
    }
    g = gen::LoadStandardDataset(dataset, scale).graph;
  }
  if (!live_dir.empty()) {
    // Recovery-replay: the loaded graph is only the bootstrap; the real
    // graph is whatever the live server made durable in `live_dir`.
    live::RecoveryOptions options;
    options.wal_path = live_dir + "/wal.bin";
    options.snapshot_path = live_dir + "/snapshot.bin";
    options.truncate_torn_tail = false;  // read-only inspection
    options.expected_scorer = scorer->Kind();
    live::RecoveredState state;
    std::string error;
    if (!live::Recover(g, options, &state, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("recovered from %s: snapshot %s, replayed %llu wal records, "
                "wal tail %s, applied_seq %llu\n",
                live_dir.c_str(), state.snapshot_loaded ? "loaded" : "absent",
                static_cast<unsigned long long>(state.replay_applied),
                live::WalTailStatusName(state.wal.tail),
                static_cast<unsigned long long>(state.applied_seq));
    if (state.graph_changed) g = std::move(state.graph);
  }
  std::printf("graph: n=%u m=%u dmax=%u\n", g.NumVertices(), g.NumEdges(),
              g.MaxDegree());

  if (stats) {
    graph::CoreDecomposition cores = graph::ComputeCores(g);
    graph::Components comps = graph::ConnectedComponents(g);
    uint64_t triangles = cliques::CountTriangles(g);
    cliques::TrussDecomposition truss = cliques::ComputeTrussness(g);
    std::printf("degeneracy:           %u\n", cores.degeneracy);
    std::printf("connected components: %zu\n", comps.NumComponents());
    std::printf("triangles:            %llu\n",
                static_cast<unsigned long long>(triangles));
    std::printf("clustering coeff:     %.4f\n",
                cliques::GlobalClusteringCoefficient(g));
    std::printf("max trussness:        %u\n", truss.max_trussness);
    std::printf("arboricity bounds:    [%u, %u]\n",
                graph::ArboricityLowerBound(g), cores.degeneracy);
  }

  util::Timer timer;
  std::unique_ptr<core::EsdQueryEngine> engine;
  if (!load_index.empty()) {
    if (engine_name != "treap" && engine_name != "frozen") {
      std::fprintf(stderr,
                   "error: --load-index requires --engine treap or frozen\n");
      return 2;
    }
    // Checked load: a file stamped for a different scorer is refused.
    core::FrozenEsdIndex index;
    const core::IndexIoResult res =
        core::LoadFrozenIndex(load_index, &index, scorer->Kind());
    if (!res) {
      std::fprintf(stderr, "error: %s\n", res.message.c_str());
      return 1;
    }
    if (engine_name == "treap") {
      engine = std::make_unique<core::EsdIndex>(core::Thaw(index));
    } else {
      engine = std::make_unique<core::FrozenEsdIndex>(std::move(index));
    }
    std::printf("%s engine loaded from %s: %.1f ms\n", engine_name.c_str(),
                load_index.c_str(), timer.ElapsedMillis());
  } else {
    std::string error;
    engine = core::BuildQueryEngine(g, engine_name, *scorer, &error);
    if (engine == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    std::printf("%s engine build (%s scorer): %.1f ms\n", engine_name.c_str(),
                std::string(scorer->Name()).c_str(), timer.ElapsedMillis());
  }
  std::printf("engine memory: %.2f MiB\n",
              static_cast<double>(engine->MemoryBytes()) / (1024.0 * 1024.0));

  if (!save_index.empty()) {
    std::string error;
    bool ok;
    // One file format for both engines, stamped with the engine's scorer.
    if (auto* treap = dynamic_cast<const core::EsdIndex*>(engine.get())) {
      ok = core::SaveFrozenIndex(core::Freeze(*treap), save_index, &error);
    } else if (auto* frozen =
                   dynamic_cast<const core::FrozenEsdIndex*>(engine.get())) {
      ok = core::SaveFrozenIndex(*frozen, save_index, &error);
    } else {
      std::fprintf(stderr,
                   "error: --save-index requires --engine treap or frozen\n");
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("index saved to %s\n", save_index.c_str());
  }

  timer.Reset();
  core::TopKResult result = engine->Query(k, tau);
  std::printf("%s query: %.3f ms\n", engine_name.c_str(),
              timer.ElapsedMillis());

  std::printf("\ntop-%u edges (tau=%u, scorer=%s):\n", k, tau,
              std::string(scorer->Name()).c_str());
  std::printf("%-6s %-14s %s\n", "rank", "edge", "score");
  for (size_t i = 0; i < result.size(); ++i) {
    std::printf("%-6zu (%u,%u)%-6s %u\n", i + 1, result[i].edge.u,
                result[i].edge.v, "", result[i].score);
  }

  if (explain) {
    // Attributed re-run: the same query, timed per stage with the serving
    // layer's taxonomy. A frozen engine decomposes (its padded result is
    // QueryAtSlab(pad=false) + PadQueryResult by construction); any other
    // engine runs as one opaque slab_scan stage.
    obs::RequestContext ctx;
    ctx.request_id = obs::RequestContext::MintId();
    ctx.admit_ns = obs::MonotonicNanos();
    core::TopKResult explained;
    const uint64_t t0 = obs::MonotonicNanos();
    if (auto* frozen =
            dynamic_cast<const core::FrozenEsdIndex*>(engine.get())) {
      const size_t slab = frozen->FindSlab(tau);
      explained = frozen->QueryAtSlab(slab, k, false);
      const uint64_t t2 = obs::MonotonicNanos();
      frozen->PadQueryResult(slab, k, &explained);
      const uint64_t t3 = obs::MonotonicNanos();
      // FindSlab rides inside slab_scan, matching the serving layer's
      // attribution of the same path.
      ctx.Charge(obs::Stage::kSlabScan, t2 - t0);
      ctx.Charge(obs::Stage::kPaddingScan, t3 - t2);
    } else {
      explained = engine->Query(k, tau);
      ctx.Charge(obs::Stage::kSlabScan, obs::MonotonicNanos() - t0);
    }
    std::printf("\nexplain rid=%llu (%s engine, k=%u, tau=%u): %zu edges, "
                "%.1f us attributed\n",
                static_cast<unsigned long long>(ctx.request_id),
                engine_name.c_str(), k, tau, explained.size(),
                static_cast<double>(ctx.AttributedNanos()) * 1e-3);
    const double total =
        static_cast<double>(ctx.AttributedNanos() > 0 ? ctx.AttributedNanos()
                                                      : 1);
    for (size_t s = 0; s < obs::kNumStages; ++s) {
      const auto stage = static_cast<obs::Stage>(s);
      if (ctx.StageNanos(stage) == 0) continue;
      std::printf("  %-16s %10.1f us  (%.1f%%)\n", obs::StageName(stage),
                  ctx.StageMicros(stage),
                  100.0 * static_cast<double>(ctx.StageNanos(stage)) / total);
    }
  }

  // Per-engine work counters, reachable through the interface for every
  // engine (the online adapter reports its pruning power here).
  const core::EngineCounters counters = engine->Counters();
  std::printf(
      "\nengine counters: queries=%llu slab_searches=%llu "
      "entries_scanned=%llu heap_pops=%llu exact=%llu zero_bound_skips=%llu\n",
      static_cast<unsigned long long>(counters.queries),
      static_cast<unsigned long long>(counters.slab_searches),
      static_cast<unsigned long long>(counters.entries_scanned),
      static_cast<unsigned long long>(counters.heap_pops),
      static_cast<unsigned long long>(counters.exact_computations),
      static_cast<unsigned long long>(counters.zero_bound_skips));

  if (metrics) {
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    core::ExportEngineCounters(*engine, &registry);
    std::printf("\n%s", registry.PrometheusText().c_str());
  }
  return 0;
}
