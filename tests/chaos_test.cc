// Chaos suite: seeded fault schedules driven through the global fail-point
// registry against the real live/serve stack. The invariants under test are
// the robustness contract of PR 5 — no crash, no torn durable state, typed
// errors, reads keep serving the last published epoch while writes degrade,
// and full top-k parity with a from-scratch build once faults clear.
//
// Every test runs through the ChaosTest fixture, which skips the whole
// suite when fail points are compiled out (ESD_FAULT=OFF) and clears the
// global registry on both sides so tests compose in any order.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/index_io.h"
#include "core/query_engine.h"
#include "fault/failpoint.h"
#include "gen/barabasi_albert.h"
#include "graph/dynamic_graph.h"
#include "live/live_index.h"
#include "live/recovery.h"
#include "live/snapshot.h"
#include "live/wal.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "serve/query_service.h"
#include "util/rng.h"

namespace esd {
namespace {

namespace fs = std::filesystem;

using core::FrozenEsdIndex;
using fault::FailPointRegistry;
using live::ApplyResult;
using live::ApplyStatus;
using live::LiveEsdIndex;
using live::LiveOptions;
using live::LiveUpdate;
using live::UpdateKind;
using obs::HealthState;

/// A fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("esd_chaos_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

std::vector<LiveUpdate> RandomUpdates(size_t n, graph::VertexId num_vertices,
                                      uint64_t seed) {
  util::Rng rng(seed);
  std::vector<LiveUpdate> updates;
  updates.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    LiveUpdate u;
    u.kind = rng.NextBool(0.65) ? UpdateKind::kInsert : UpdateKind::kDelete;
    u.u = static_cast<graph::VertexId>(rng.NextBounded(num_vertices));
    do {
      u.v = static_cast<graph::VertexId>(rng.NextBounded(num_vertices));
    } while (u.v == u.u);
    updates.push_back(u);
  }
  return updates;
}

/// Applies the same updates to a shadow graph the way the live index does.
void ApplyToShadow(graph::DynamicGraph* g, const LiveUpdate& u) {
  const graph::VertexId hi = std::max(u.u, u.v);
  if (u.kind == UpdateKind::kInsert) {
    while (g->NumVertices() <= hi) g->AddVertex();
    g->InsertEdge(u.u, u.v);
  } else if (hi < g->NumVertices()) {
    g->EraseEdge(u.u, u.v);
  }
}

void ExpectEngineParity(const core::EsdQueryEngine& engine,
                        const graph::Graph& final_graph,
                        const std::string& context) {
  const FrozenEsdIndex want = core::BuildFrozenIndex(final_graph);
  for (uint32_t tau : {1u, 2u, 3u, 5u}) {
    for (uint32_t k : {1u, 8u, 32u, 128u}) {
      EXPECT_EQ(core::Scores(engine.Query(k, tau)),
                core::Scores(want.Query(k, tau)))
          << context << " diverged at k=" << k << " tau=" << tau;
    }
  }
}

/// LiveOptions tuned for chaos: zero-sleep retries and a short heal
/// interval keep the schedules deterministic and the suite fast.
LiveOptions ChaosOptions(const ScratchDir& dir) {
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.snapshot_path = dir.Path("snap.bin");
  options.max_vertex_id = 127;
  options.wal_retry.max_attempts = 3;
  options.wal_retry.base_delay = std::chrono::microseconds(0);
  options.heal_retry_interval = std::chrono::milliseconds(2);
  return options;
}

void Arm(const std::string& name, const std::string& spec) {
  std::string error;
  ASSERT_TRUE(FailPointRegistry::Global().Set(name, spec, &error)) << error;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kFailPointsCompiledIn) {
      GTEST_SKIP() << "ESD_FAULT=OFF: fail-point sites compiled out";
    }
    FailPointRegistry::Global().ClearAll();
  }
  void TearDown() override {
    if (fault::kFailPointsCompiledIn) FailPointRegistry::Global().ClearAll();
  }
};

// The acceptance scenario: every WAL append hits ENOSPC. The index must
// flip read-only with a typed error, keep answering reads from the last
// epoch, bounce later writes instantly, and heal once the fault clears.
TEST_F(ChaosTest, WalEnospcDegradesToReadOnlyAndHeals) {
  ScratchDir dir("enospc");
  graph::Graph bootstrap = gen::BarabasiAlbert(60, 3, 11);
  LiveOptions options = ChaosOptions(dir);
  std::string error;
  auto live = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(live, nullptr) << error;

  graph::DynamicGraph shadow(bootstrap);
  const std::vector<LiveUpdate> updates = RandomUpdates(40, 80, 0xBAD);
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(live->Apply(updates[i], &error)) << error;
    ApplyToShadow(&shadow, updates[i]);
  }
  ASSERT_TRUE(live->RefreezeNow());
  const graph::Graph pre_fault = shadow.Snapshot();

  Arm("wal.append", "error(ENOSPC)");

  // Transition call: retries exhaust, index flips read-only, typed error.
  const ApplyResult hit = live->ApplyTyped(updates[10]);
  EXPECT_EQ(hit.status, ApplyStatus::kWalError);
  EXPECT_EQ(hit.processed, 0u);
  EXPECT_NE(hit.message.find("read-only"), std::string::npos) << hit.message;

  // Later writes bounce untried (kDegraded), even across the heal interval
  // — the probe itself keeps failing while the fault is armed.
  std::this_thread::sleep_for(options.heal_retry_interval * 2);
  const ApplyResult bounced = live->ApplyTyped(updates[11]);
  EXPECT_EQ(bounced.status, ApplyStatus::kDegraded);
  EXPECT_EQ(bounced.processed, 0u);

  live::LiveStats stats = live->Stats();
  EXPECT_TRUE(stats.read_only);
  EXPECT_EQ(stats.wal_append_failures, 1u);
  EXPECT_GE(stats.wal_retries, 2u);  // two extra attempts on the transition
  EXPECT_GE(stats.degraded_rejections, 1u);
  EXPECT_EQ(live->Health(), HealthState::kReadOnly);

  // Reads never noticed: the last epoch still answers with full parity.
  {
    auto engine = live->CurrentEngine();
    ExpectEngineParity(*engine, pre_fault, "read-only serving");
  }

  // Clear the fault; after the heal interval the next write probes the
  // WAL, succeeds, and the index resumes normal service.
  FailPointRegistry::Global().ClearAll();
  std::this_thread::sleep_for(options.heal_retry_interval * 2);
  const ApplyResult healed = live->ApplyTyped(updates[12]);
  EXPECT_EQ(healed.status, ApplyStatus::kOk) << healed.message;
  ApplyToShadow(&shadow, updates[12]);
  for (size_t i = 13; i < updates.size(); ++i) {
    ASSERT_TRUE(live->Apply(updates[i], &error)) << error;
    ApplyToShadow(&shadow, updates[i]);
  }
  stats = live->Stats();
  EXPECT_FALSE(stats.read_only);
  EXPECT_EQ(stats.heals, 1u);
  EXPECT_EQ(live->Health(), HealthState::kOk);

  ASSERT_TRUE(live->RefreezeNow());
  const graph::Graph final_graph = shadow.Snapshot();
  {
    auto engine = live->CurrentEngine();
    ExpectEngineParity(*engine, final_graph, "healed engine");
  }

  // The WAL that survived the fault window replays clean (rejected writes
  // left no torn bytes behind), and a reopen lands on the same graph.
  live.reset();
  auto reopened = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->recovery().wal.tail, live::WalTailStatus::kClean);
  {
    auto engine = reopened->CurrentEngine();
    ExpectEngineParity(*engine, final_graph, "reopened engine");
  }
}

// A torn (short) write mid-record must be detected, typed, and repaired by
// truncating back to the record boundary — the retry then lands cleanly.
TEST_F(ChaosTest, ShortWriteIsTypedAndTailRepaired) {
  ScratchDir dir("short_write");
  graph::Graph bootstrap = gen::BarabasiAlbert(50, 3, 5);
  LiveOptions options = ChaosOptions(dir);
  std::string error;
  auto live = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(live, nullptr) << error;

  graph::DynamicGraph shadow(bootstrap);
  const std::vector<LiveUpdate> updates = RandomUpdates(30, 70, 0x70A2);

  // Tear the 5th append's first attempt; the in-call retry must repair the
  // tail and succeed, invisibly to the caller.
  Arm("wal.short_write", "nth(5)");
  for (const LiveUpdate& u : updates) {
    ASSERT_TRUE(live->Apply(u, &error)) << error;
    ApplyToShadow(&shadow, u);
  }
  const live::LiveStats stats = live->Stats();
  EXPECT_GE(stats.wal_retries, 1u);
  EXPECT_EQ(stats.wal_append_failures, 0u);
  EXPECT_FALSE(stats.read_only);
  EXPECT_EQ(stats.applied_seq, updates.size());

  // The repaired log replays clean end to end.
  live.reset();
  auto reopened = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->recovery().wal.tail, live::WalTailStatus::kClean);
  EXPECT_EQ(reopened->recovery().applied_seq, updates.size());
  {
    auto engine = reopened->CurrentEngine();
    ExpectEngineParity(*engine, shadow.Snapshot(), "post-tear reopen");
  }
}

// Atomic snapshot writes: a failed rename must leave the previous snapshot
// file untouched and readable.
TEST_F(ChaosTest, SnapshotRenameFaultKeepsOldSnapshot) {
  ScratchDir dir("rename");
  const std::string path = dir.Path("snap.bin");
  graph::DynamicGraph g(gen::BarabasiAlbert(30, 2, 3));
  std::string error;
  ASSERT_TRUE(live::SaveGraphSnapshot(path, g, 7, &error)) << error;

  g.InsertEdge(0, 29);
  Arm("snapshot.rename", "error(EACCES)");
  EXPECT_FALSE(live::SaveGraphSnapshot(path, g, 8, &error));
  EXPECT_NE(error.find("rename"), std::string::npos) << error;

  live::GraphSnapshotData data;
  ASSERT_TRUE(live::LoadGraphSnapshot(path, &data, &error)) << error;
  EXPECT_EQ(data.applied_seq, 7u);  // the old snapshot, intact

  FailPointRegistry::Global().ClearAll();
  ASSERT_TRUE(live::SaveGraphSnapshot(path, g, 8, &error)) << error;
  ASSERT_TRUE(live::LoadGraphSnapshot(path, &data, &error)) << error;
  EXPECT_EQ(data.applied_seq, 8u);
}

// Directory-fsync failure after the rename is a warning, not a write
// failure — but it must surface through the counter and the handler.
TEST_F(ChaosTest, DirFsyncFailureSurfacesTypedWarning) {
  ScratchDir dir("dir_fsync");
  std::string seen_dir;
  int seen_errno = 0;
  auto previous = live::SetSnapshotDirFsyncHandler(
      [&](const std::string& d, int code) {
        seen_dir = d;
        seen_errno = code;
      });
  const double before = obs::MetricRegistry::Global().CounterValue(
      "esd_snapshot_dir_fsync_failures");

  Arm("snapshot.dir_fsync", "error(EIO)");
  graph::DynamicGraph g(gen::BarabasiAlbert(20, 2, 3));
  std::string error;
  EXPECT_TRUE(live::SaveGraphSnapshot(dir.Path("snap.bin"), g, 1, &error))
      << error;  // the write itself still succeeds

  EXPECT_EQ(seen_errno, EIO);
  EXPECT_FALSE(seen_dir.empty());
  EXPECT_EQ(obs::MetricRegistry::Global().CounterValue(
                "esd_snapshot_dir_fsync_failures"),
            before + 1.0);
  live::SetSnapshotDirFsyncHandler(std::move(previous));
}

// Refreeze failures trip the circuit breaker; reads keep the previous
// epoch, health reports degraded, and a later success closes the breaker.
TEST_F(ChaosTest, RefreezeBreakerKeepsServingPreviousEpoch) {
  ScratchDir dir("breaker");
  graph::Graph bootstrap = gen::BarabasiAlbert(60, 3, 13);
  LiveOptions options = ChaosOptions(dir);
  options.refreeze_every = 0;  // drive refreezes by hand
  options.refreeze_breaker_threshold = 2;
  options.refreeze_breaker_cooldown = std::chrono::milliseconds(1);
  std::string error;
  auto live = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(live, nullptr) << error;

  graph::DynamicGraph shadow(bootstrap);
  for (const LiveUpdate& u : RandomUpdates(25, 80, 0xF5)) {
    ASSERT_TRUE(live->Apply(u, &error)) << error;
    ApplyToShadow(&shadow, u);
  }
  const uint64_t epoch_before = live->CurrentSnapshot()->epoch;

  Arm("live.refreeze", "error");
  EXPECT_FALSE(live->RefreezeNow());
  EXPECT_FALSE(live->Stats().breaker_open);  // one failure, threshold is 2
  EXPECT_FALSE(live->RefreezeNow());

  live::LiveStats stats = live->Stats();
  EXPECT_TRUE(stats.breaker_open);
  EXPECT_EQ(stats.refreeze_failures, 2u);
  EXPECT_EQ(live->Health(), HealthState::kDegraded);
  // The previous epoch never moved: reads serve the bootstrap image.
  EXPECT_EQ(live->CurrentSnapshot()->epoch, epoch_before);
  {
    auto engine = live->CurrentEngine();
    ExpectEngineParity(*engine, bootstrap, "stale epoch under open breaker");
  }

  FailPointRegistry::Global().ClearAll();
  EXPECT_TRUE(live->RefreezeNow());  // success closes the breaker
  stats = live->Stats();
  EXPECT_FALSE(stats.breaker_open);
  EXPECT_EQ(live->Health(), HealthState::kOk);
  EXPECT_GT(live->CurrentSnapshot()->epoch, epoch_before);
  {
    auto engine = live->CurrentEngine();
    ExpectEngineParity(*engine, shadow.Snapshot(), "post-breaker epoch");
  }
}

// serve.admission sheds with the same typed status as a full queue, and a
// serve.worker stall expires deadlines without wedging the service.
TEST_F(ChaosTest, AdmissionShedAndDeadlineExpiryUnderWorkerStall) {
  graph::Graph g = gen::BarabasiAlbert(80, 3, 17);
  const FrozenEsdIndex index = core::BuildFrozenIndex(g);

  {
    serve::EsdQueryService::Options options;
    options.num_threads = 1;
    serve::EsdQueryService service(index, options);
    Arm("serve.admission", "error");
    serve::QueryRequest rq;
    rq.k = 8;
    rq.tau = 2;
    EXPECT_EQ(service.Query(rq).status,
              serve::ResponseStatus::kRejectedQueueFull);
    FailPointRegistry::Global().ClearAll();
    EXPECT_EQ(service.Query(rq).status, serve::ResponseStatus::kOk);
  }

  {
    // Stall every worker batch 20ms; requests carrying a 1ms deadline must
    // come back kDeadlineMissed while undeadlined ones still complete.
    Arm("serve.worker", "delay(20)");
    serve::EsdQueryService::Options options;
    options.num_threads = 1;
    options.max_batch = 1;
    serve::EsdQueryService service(index, options);
    serve::QueryRequest tight;
    tight.k = 8;
    tight.tau = 2;
    tight.deadline_us = 1000;
    serve::QueryRequest relaxed = tight;
    relaxed.deadline_us = 0;
    std::vector<std::future<serve::QueryResponse>> tight_futures;
    for (int i = 0; i < 4; ++i) tight_futures.push_back(service.Submit(tight));
    std::future<serve::QueryResponse> relaxed_future = service.Submit(relaxed);
    size_t missed = 0;
    for (auto& f : tight_futures) {
      const serve::QueryResponse r = f.get();
      if (r.status == serve::ResponseStatus::kDeadlineMissed) ++missed;
    }
    // The head-of-line request may beat its deadline; everything queued
    // behind the first 20ms stall cannot.
    EXPECT_GE(missed, 3u);
    EXPECT_EQ(relaxed_future.get().status, serve::ResponseStatus::kOk);
  }
}

// A queue-full bounce under a stalled worker: with the single worker held
// by a delay, a tiny queue overflows and sheds typed.
TEST_F(ChaosTest, QueueFullShedsWhileWorkerStalled) {
  graph::Graph g = gen::BarabasiAlbert(60, 3, 19);
  const FrozenEsdIndex index = core::BuildFrozenIndex(g);
  Arm("serve.worker", "delay(30)");
  serve::EsdQueryService::Options options;
  options.num_threads = 1;
  options.max_batch = 1;
  options.max_queue = 2;
  serve::EsdQueryService service(index, options);

  serve::QueryRequest rq;
  rq.k = 4;
  rq.tau = 1;
  std::vector<std::future<serve::QueryResponse>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.Submit(rq));
  size_t shed = 0;
  size_t served = 0;
  for (auto& f : futures) {
    const serve::QueryResponse r = f.get();
    if (r.status == serve::ResponseStatus::kRejectedQueueFull) ++shed;
    if (r.status == serve::ResponseStatus::kOk) ++served;
  }
  EXPECT_GE(shed, 1u);     // the 2-deep queue overflowed at least once
  EXPECT_GE(served, 2u);   // and the service still drained real work
  EXPECT_EQ(shed + served, futures.size());
}

// Recovery replay faults are typed and retryable: the same state recovers
// cleanly once the fault clears.
TEST_F(ChaosTest, RecoveryFaultIsTypedAndRetryable) {
  ScratchDir dir("recovery");
  graph::Graph bootstrap = gen::BarabasiAlbert(40, 2, 23);
  LiveOptions options = ChaosOptions(dir);
  std::string error;
  {
    auto live = LiveEsdIndex::Open(bootstrap, options, &error);
    ASSERT_NE(live, nullptr) << error;
    for (const LiveUpdate& u : RandomUpdates(20, 60, 0x4EC)) {
      ASSERT_TRUE(live->Apply(u, &error)) << error;
    }
  }

  live::RecoveryOptions ropts;
  ropts.wal_path = options.wal_path;
  ropts.snapshot_path = options.snapshot_path;

  Arm("recovery.replay", "error(EIO)");
  live::RecoveredState state;
  EXPECT_FALSE(live::Recover(bootstrap, ropts, &state, &error));
  EXPECT_NE(error.find("recovery replay failed"), std::string::npos) << error;

  FailPointRegistry::Global().ClearAll();
  error.clear();
  ASSERT_TRUE(live::Recover(bootstrap, ropts, &state, &error)) << error;
  EXPECT_EQ(state.applied_seq, 20u);
}

// index_io save/load fail points return typed errors naming the path and
// never leave a corrupt artifact behind.
TEST_F(ChaosTest, IndexIoInjectionIsTypedAndClean) {
  ScratchDir dir("index_io");
  const std::string path = dir.Path("frozen.bin");
  graph::Graph g = gen::BarabasiAlbert(30, 2, 29);
  const FrozenEsdIndex index = core::BuildFrozenIndex(g);
  std::string error;

  Arm("index_io.save", "error(ENOSPC)");
  EXPECT_FALSE(core::SaveFrozenIndex(index, path, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_FALSE(fs::exists(path));  // injected before any bytes were written

  FailPointRegistry::Global().ClearAll();
  ASSERT_TRUE(core::SaveFrozenIndex(index, path, &error)) << error;

  Arm("index_io.load", "error(EIO)");
  FrozenEsdIndex loaded;
  const core::IndexIoResult injected =
      core::LoadFrozenIndex(path, &loaded, core::ScorerKind::kEsd);
  EXPECT_EQ(injected.status, core::IndexIoStatus::kIoError);
  EXPECT_NE(injected.message.find(path), std::string::npos)
      << injected.message;

  FailPointRegistry::Global().ClearAll();
  const core::IndexIoResult res =
      core::LoadFrozenIndex(path, &loaded, core::ScorerKind::kEsd);
  ASSERT_TRUE(res) << res.message;
  ExpectEngineParity(loaded, g, "reloaded frozen index");
}

// The randomized schedule: probabilistic WAL, fsync, and refreeze faults
// under a fixed seed. Writers retry/degrade/heal their way through; at the
// end — faults cleared — the index must hold exact parity with the shadow
// both in memory and across a reopen, with a clean WAL tail.
TEST_F(ChaosTest, RandomizedFaultScheduleKeepsInvariants) {
  ScratchDir dir("randomized");
  graph::Graph bootstrap = gen::BarabasiAlbert(70, 3, 31);
  LiveOptions options = ChaosOptions(dir);
  options.refreeze_every = 40;
  options.refreeze_breaker_cooldown = std::chrono::milliseconds(1);
  std::string error;
  auto live = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(live, nullptr) << error;

  auto& global = FailPointRegistry::Global();
  global.SetSeed(0xC0FFEE);
  ASSERT_TRUE(global.Configure(
      "wal.append=2in7;wal.fsync=1in11;live.refreeze=1in5", &error))
      << error;

  graph::DynamicGraph shadow(bootstrap);
  const std::vector<LiveUpdate> updates = RandomUpdates(300, 90, 0x5EED);
  uint64_t rejected = 0;
  for (const LiveUpdate& u : updates) {
    // Drive each update to acceptance. processed==1 means it entered the
    // in-memory index (even when a later fsync fault flipped the call to
    // kWalError — the append itself landed), so the shadow follows
    // `processed`, not the status.
    bool applied = false;
    for (int attempt = 0; attempt < 10000 && !applied; ++attempt) {
      const ApplyResult r = live->ApplyTyped(u);
      applied = r.processed == 1;
      if (!applied) {
        ++rejected;
        ASSERT_TRUE(r.status == ApplyStatus::kWalError ||
                    r.status == ApplyStatus::kDegraded)
            << static_cast<int>(r.status) << " " << r.message;
        ASSERT_FALSE(r.message.empty());
        // Let the heal-probe interval elapse so a retry can go through.
        std::this_thread::sleep_for(options.heal_retry_interval);
      }
    }
    ASSERT_TRUE(applied) << "update never accepted; schedule wedged";
    ApplyToShadow(&shadow, u);
  }
  EXPECT_GT(rejected, 0u) << "schedule injected no faults; tighten specs";

  // Faults off: the index must heal, refreeze, and match the shadow.
  global.ClearAll();
  std::this_thread::sleep_for(options.heal_retry_interval);
  LiveUpdate extra;
  extra.kind = UpdateKind::kInsert;
  extra.u = 0;
  extra.v = 89;
  ASSERT_TRUE(live->Apply(extra, &error)) << error;
  ApplyToShadow(&shadow, extra);
  ASSERT_TRUE(live->RefreezeNow());

  const live::LiveStats stats = live->Stats();
  EXPECT_EQ(stats.applied_seq, updates.size() + 1);
  EXPECT_FALSE(stats.read_only);
  EXPECT_FALSE(stats.breaker_open);
  EXPECT_GT(stats.wal_retries, 0u);

  const graph::Graph final_graph = shadow.Snapshot();
  {
    auto engine = live->CurrentEngine();
    ExpectEngineParity(*engine, final_graph, "post-chaos engine");
  }

  // Durable state survived the whole schedule: clean tail, same graph.
  live.reset();
  auto reopened = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->recovery().wal.tail, live::WalTailStatus::kClean);
  EXPECT_EQ(reopened->recovery().applied_seq, updates.size() + 1);
  {
    auto engine = reopened->CurrentEngine();
    ExpectEngineParity(*engine, final_graph, "post-chaos reopen");
  }
}

}  // namespace
}  // namespace esd
