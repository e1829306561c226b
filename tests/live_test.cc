// Live index subsystem: WAL durability and corruption tolerance, epoch
// snapshot publication, crash recovery, and parity of the maintained live
// index with a from-scratch build on the final graph. The Live* suites are
// part of the TSan CI filter; the fork-based SIGKILL test skips itself
// under TSan (fork + threads is outside TSan's supported model).

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/binary_format.h"
#include "core/dynamic_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/query_engine.h"
#include "fault/failpoint.h"
#include "gen/barabasi_albert.h"
#include "graph/dynamic_graph.h"
#include "live/live_index.h"
#include "live/recovery.h"
#include "live/snapshot.h"
#include "live/wal.h"
#include "obs/metrics.h"
#include "serve/query_service.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ESD_UNDER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define ESD_UNDER_TSAN 1
#endif

namespace esd {
namespace {

namespace fs = std::filesystem;

using core::FrozenEsdIndex;
using core::TopKResult;
using live::LiveEsdIndex;
using live::LiveOptions;
using live::LiveUpdate;
using live::UpdateKind;
using live::WalRecord;
using live::WalReplayResult;
using live::WalTailStatus;
using live::WalWriter;
using test::U32Bytes;
using test::U64Bytes;

/// A fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("esd_live_" + tag + "_" + std::to_string(::getpid()));
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

std::vector<WalRecord> MakeRecords(size_t n) {
  std::vector<WalRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    WalRecord rec;
    rec.seq = i + 1;
    rec.kind = i % 3 == 2 ? UpdateKind::kDelete : UpdateKind::kInsert;
    rec.u = static_cast<graph::VertexId>(i * 7 % 97);
    rec.v = static_cast<graph::VertexId>((i * 13 + 1) % 97);
    records.push_back(rec);
  }
  return records;
}

void WriteLog(const std::string& path, const std::vector<WalRecord>& records) {
  WalWriter w;
  std::string error;
  ASSERT_TRUE(w.Open(path, &error)) << error;
  for (const WalRecord& rec : records) {
    ASSERT_TRUE(w.Append(rec, &error)) << error;
  }
  ASSERT_TRUE(w.Sync(&error)) << error;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(LiveWalTest, RoundTrip) {
  ScratchDir dir("wal_roundtrip");
  const std::string path = dir.Path("wal.bin");
  const std::vector<WalRecord> want = MakeRecords(23);
  WriteLog(path, want);

  std::vector<WalRecord> got;
  WalReplayResult result;
  std::string error;
  ASSERT_TRUE(live::ReplayWal(
      path, [&got](const WalRecord& rec) { got.push_back(rec); }, &result,
      &error))
      << error;
  EXPECT_EQ(result.tail, WalTailStatus::kClean);
  EXPECT_EQ(result.records, want.size());
  EXPECT_EQ(result.last_seq, want.back().seq);
  EXPECT_EQ(result.valid_bytes, fs::file_size(path));
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].u, want[i].u);
    EXPECT_EQ(got[i].v, want[i].v);
  }
}

TEST(LiveWalTest, MissingAndEmptyFilesReplayClean) {
  ScratchDir dir("wal_missing");
  WalReplayResult result;
  std::string error;
  EXPECT_TRUE(live::ReplayWal(dir.Path("nope.bin"), nullptr, &result, &error));
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.tail, WalTailStatus::kClean);

  const std::string empty = dir.Path("empty.bin");
  WriteFileBytes(empty, "");
  EXPECT_TRUE(live::ReplayWal(empty, nullptr, &result, &error));
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.tail, WalTailStatus::kClean);
}

// Fuzz: truncate the log at every byte offset. Replay must never crash,
// must deliver exactly the records wholly contained in the prefix, and must
// type the tail correctly.
TEST(LiveWalTest, TruncationSweepDeliversLongestValidPrefix) {
  ScratchDir dir("wal_trunc");
  const std::string path = dir.Path("wal.bin");
  const std::vector<WalRecord> want = MakeRecords(6);
  WriteLog(path, want);
  const std::string bytes = ReadFileBytes(path);
  const size_t record_bytes =
      live::kWalRecordHeaderBytes + live::kWalPayloadBytes;

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string truncated = dir.Path("cut.bin");
    WriteFileBytes(truncated, bytes.substr(0, cut));
    uint64_t delivered = 0;
    WalReplayResult result;
    std::string error;
    ASSERT_TRUE(live::ReplayWal(
        truncated, [&delivered](const WalRecord&) { ++delivered; }, &result,
        &error))
        << "cut=" << cut << ": " << error;
    const size_t whole_records =
        cut < live::kWalFileHeaderBytes
            ? 0
            : (cut - live::kWalFileHeaderBytes) / record_bytes;
    EXPECT_EQ(delivered, whole_records) << "cut=" << cut;
    EXPECT_EQ(result.records, whole_records) << "cut=" << cut;
    const bool at_boundary =
        cut == 0 || (cut >= live::kWalFileHeaderBytes &&
                     (cut - live::kWalFileHeaderBytes) % record_bytes == 0);
    EXPECT_EQ(result.tail == WalTailStatus::kClean, at_boundary)
        << "cut=" << cut;
    if (!at_boundary) {
      EXPECT_EQ(result.tail, WalTailStatus::kTruncatedRecord)
          << "cut=" << cut;
      EXPECT_EQ(result.valid_bytes,
                cut < live::kWalFileHeaderBytes
                    ? 0
                    : live::kWalFileHeaderBytes +
                          whole_records * record_bytes)
          << "cut=" << cut;
    }
  }
}

// Fuzz: flip every byte of the log, one at a time. Replay must never crash
// and must deliver only records preceding the corruption, with a typed
// tail; corruption inside the file header is refused outright.
TEST(LiveWalTest, BitFlipSweepNeverCrashesAndTypesTheTail) {
  ScratchDir dir("wal_flip");
  const std::string path = dir.Path("wal.bin");
  const std::vector<WalRecord> want = MakeRecords(5);
  WriteLog(path, want);
  const std::string bytes = ReadFileBytes(path);

  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xFF);
    const std::string flipped = dir.Path("flip.bin");
    WriteFileBytes(flipped, mutated);
    uint64_t delivered = 0;
    WalReplayResult result;
    std::string error;
    const bool ok = live::ReplayWal(
        flipped, [&delivered](const WalRecord&) { ++delivered; }, &result,
        &error);
    if (pos < live::kWalFileHeaderBytes) {
      EXPECT_FALSE(ok) << "pos=" << pos;
      EXPECT_EQ(result.tail, WalTailStatus::kBadFileHeader) << "pos=" << pos;
      EXPECT_EQ(delivered, 0u);
      continue;
    }
    ASSERT_TRUE(ok) << "pos=" << pos << ": " << error;
    // Corruption at `pos` can only affect the record containing it and
    // those after; everything before replays intact.
    const size_t record_bytes =
        live::kWalRecordHeaderBytes + live::kWalPayloadBytes;
    const size_t hit_record =
        (pos - live::kWalFileHeaderBytes) / record_bytes;
    EXPECT_EQ(delivered, hit_record) << "pos=" << pos;
    EXPECT_NE(result.tail, WalTailStatus::kClean) << "pos=" << pos;
    EXPECT_NE(result.tail, WalTailStatus::kBadFileHeader) << "pos=" << pos;
  }
}

// A length prefix claiming a huge payload must be rejected as oversized
// without any attempt to allocate or read it.
TEST(LiveWalTest, OversizedAndMalformedLengthPrefixes) {
  ScratchDir dir("wal_oversized");
  const std::string path = dir.Path("wal.bin");
  const std::vector<WalRecord> want = MakeRecords(2);
  WriteLog(path, want);
  const std::string bytes = ReadFileBytes(path);

  auto with_third_record_len = [&bytes](uint32_t len) {
    std::string mutated = bytes;
    const char* p = reinterpret_cast<const char*>(&len);
    mutated += std::string(p, p + sizeof(len));  // header of a third record
    mutated += std::string(8, '\0');             // its checksum field
    return mutated;
  };

  {
    const std::string oversized = dir.Path("oversized.bin");
    WriteFileBytes(oversized, with_third_record_len(0xFFFFFF0u));
    uint64_t delivered = 0;
    WalReplayResult result;
    std::string error;
    ASSERT_TRUE(live::ReplayWal(
        oversized, [&delivered](const WalRecord&) { ++delivered; }, &result,
        &error));
    EXPECT_EQ(delivered, want.size());
    EXPECT_EQ(result.tail, WalTailStatus::kOversizedRecord);
  }
  {
    // In-bounds but not the record payload size.
    const std::string malformed = dir.Path("malformed.bin");
    WriteFileBytes(malformed, with_third_record_len(16));
    WalReplayResult result;
    std::string error;
    ASSERT_TRUE(live::ReplayWal(malformed, nullptr, &result, &error));
    EXPECT_EQ(result.records, want.size());
    EXPECT_EQ(result.tail, WalTailStatus::kMalformedRecord);
  }
}

// Another program's file, and a well-formed log under the retired 8-byte
// version-1 header: replay, the writer and a live index all refuse them,
// and the refused open leaves the bytes as they were.
TEST(LiveWalTest, ForeignFileRefusedByReplayAndWriter) {
  ScratchDir dir("wal_foreign");
  const std::string path = dir.Path("not_a_wal.bin");
  const std::string payload =
      U64Bytes(1) + std::string(1, '\0') + U32Bytes(3) + U32Bytes(4);
  ASSERT_EQ(payload.size(), live::kWalPayloadBytes);
  const std::string v1_log =
      "ESDW" + U32Bytes(1) + U32Bytes(live::kWalPayloadBytes) +
      U64Bytes(core::Fnv1a(payload.data(), payload.size())) + payload;

  for (const std::string& bytes :
       {std::string("this is certainly not an ESDW log at all"), v1_log}) {
    WriteFileBytes(path, bytes);
    uint64_t delivered = 0;
    WalReplayResult result;
    std::string error;
    EXPECT_FALSE(live::ReplayWal(
        path, [&delivered](const WalRecord&) { ++delivered; }, &result,
        &error));
    EXPECT_EQ(result.tail, WalTailStatus::kBadFileHeader);
    EXPECT_EQ(delivered, 0u);
    EXPECT_FALSE(error.empty());

    WalWriter w;
    error.clear();
    EXPECT_FALSE(w.Open(path, &error));
    EXPECT_FALSE(w.is_open());
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(ReadFileBytes(path), bytes);

    LiveOptions options;
    options.wal_path = path;
    EXPECT_EQ(
        LiveEsdIndex::Open(gen::BarabasiAlbert(10, 2, 1), options, &error),
        nullptr);
    EXPECT_EQ(ReadFileBytes(path), bytes);
  }
}

TEST(LiveWalTest, TruncateAllKeepsHeaderAndAcceptsAppends) {
  ScratchDir dir("wal_truncall");
  const std::string path = dir.Path("wal.bin");
  WriteLog(path, MakeRecords(9));
  WalWriter w;
  std::string error;
  ASSERT_TRUE(w.Open(path, &error)) << error;
  ASSERT_TRUE(w.TruncateAll(&error)) << error;
  EXPECT_EQ(w.SizeBytes(), live::kWalFileHeaderBytes);

  WalRecord rec;
  rec.seq = 100;
  rec.u = 1;
  rec.v = 2;
  ASSERT_TRUE(w.Append(rec, &error)) << error;
  ASSERT_TRUE(w.Sync(&error)) << error;
  w.Close();

  WalReplayResult result;
  std::vector<WalRecord> got;
  ASSERT_TRUE(live::ReplayWal(
      path, [&got](const WalRecord& r) { got.push_back(r); }, &result,
      &error));
  EXPECT_EQ(result.tail, WalTailStatus::kClean);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 100u);
}

// The one WAL header, byte for byte: magic, version 2, scorer id.
TEST(LiveWalTest, HeaderBytesArePinned) {
  ScratchDir dir("wal_pin");
  const std::string path = dir.Path("wal.bin");
  WalWriter w;
  std::string error;
  ASSERT_TRUE(w.Open(path, &error, core::ScorerKind::kTruss)) << error;
  EXPECT_EQ(w.SizeBytes(), 12u);
  w.Close();
  EXPECT_EQ(live::kWalFileHeaderBytes, 12u);
  EXPECT_EQ(ReadFileBytes(path),
            "ESDW" + U32Bytes(2) +
                U32Bytes(static_cast<uint32_t>(core::ScorerKind::kTruss)));
}

// The one snapshot header is pinned; a well-formed version-1 snapshot (no
// scorer id) fails to load, and so does a live index opened over it.
TEST(LiveRecoveryTest, SnapshotHeaderPinnedAndV1Refused) {
  ScratchDir dir("snap_v1");
  graph::DynamicGraph g(3);
  g.InsertEdge(0, 1);
  g.InsertEdge(1, 2);
  std::string error;
  const std::string current = dir.Path("current.bin");
  ASSERT_TRUE(live::SaveGraphSnapshot(current, g, 7, &error)) << error;
  EXPECT_EQ(ReadFileBytes(current).substr(0, 8), "ESDS" + U32Bytes(2));

  std::ostringstream v1(std::ios::binary);
  v1 << "ESDS" << U32Bytes(1);
  core::BinaryWriter w(v1);
  w.Put(uint64_t{7});
  w.Put(graph::VertexId{3});
  const std::vector<graph::Edge> edges = {{0, 1}, {1, 2}};
  w.PutArray(std::span<const graph::Edge>(edges));
  const uint64_t checksum = w.checksum();
  v1.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  const std::string snap = dir.Path("snap.bin");
  WriteFileBytes(snap, v1.str());

  live::GraphSnapshotData data;
  EXPECT_FALSE(live::LoadGraphSnapshot(snap, &data, &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;

  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.snapshot_path = snap;
  error.clear();
  EXPECT_EQ(LiveEsdIndex::Open(gen::BarabasiAlbert(10, 2, 1), options, &error),
            nullptr);
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
}

TEST(LiveRecoveryTest, SnapshotRoundTripAndCorruptionDetected) {
  ScratchDir dir("snap_roundtrip");
  const std::string path = dir.Path("snap.bin");
  graph::DynamicGraph g(6);
  g.InsertEdge(0, 1);
  g.InsertEdge(1, 2);
  g.InsertEdge(4, 5);
  std::string error;
  ASSERT_TRUE(live::SaveGraphSnapshot(path, g, 42, &error)) << error;

  live::GraphSnapshotData data;
  ASSERT_TRUE(live::LoadGraphSnapshot(path, &data, &error)) << error;
  EXPECT_EQ(data.applied_seq, 42u);
  EXPECT_EQ(data.num_vertices, 6u);
  EXPECT_EQ(data.edges.size(), 3u);

  // Any flipped payload byte must be caught by the trailing checksum (or,
  // for the length prefix, by the hardened reader).
  const std::string bytes = ReadFileBytes(path);
  for (size_t pos = 8; pos < bytes.size(); pos += 3) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5A);
    WriteFileBytes(dir.Path("bad.bin"), mutated);
    live::GraphSnapshotData out;
    EXPECT_FALSE(live::LoadGraphSnapshot(dir.Path("bad.bin"), &out, &error))
        << "pos=" << pos;
  }
}

TEST(LiveRecoveryTest, TornTailIsTruncatedAndLogReopens) {
  ScratchDir dir("rec_torn");
  const std::string wal = dir.Path("wal.bin");
  WriteLog(wal, MakeRecords(5));
  // Tear the last record in half.
  const std::string bytes = ReadFileBytes(wal);
  WriteFileBytes(wal, bytes.substr(0, bytes.size() - 10));

  graph::Graph bootstrap;  // empty
  live::RecoveryOptions options;
  options.wal_path = wal;
  live::RecoveredState state;
  std::string error;
  ASSERT_TRUE(live::Recover(bootstrap, options, &state, &error)) << error;
  EXPECT_EQ(state.wal.tail, WalTailStatus::kTruncatedRecord);
  EXPECT_EQ(state.replay_applied, 4u);
  EXPECT_TRUE(state.wal_truncated);
  EXPECT_EQ(fs::file_size(wal), state.wal.valid_bytes);

  // After compaction the log is clean and appendable again.
  WalWriter w;
  ASSERT_TRUE(w.Open(wal, &error)) << error;
  WalRecord rec;
  rec.seq = state.applied_seq + 1;
  rec.u = 90;
  rec.v = 91;
  ASSERT_TRUE(w.Append(rec, &error)) << error;
  ASSERT_TRUE(w.Sync(&error)) << error;
  w.Close();
  WalReplayResult result;
  ASSERT_TRUE(live::ReplayWal(wal, nullptr, &result, &error));
  EXPECT_EQ(result.tail, WalTailStatus::kClean);
  EXPECT_EQ(result.records, 5u);
}

// The crash window between "persist snapshot" and "truncate WAL": records
// at or below the snapshot watermark are still in the log and must be
// skipped, not double-applied.
TEST(LiveRecoveryTest, ReplaySkipsRecordsCoveredBySnapshot) {
  ScratchDir dir("rec_skip");
  const std::string wal = dir.Path("wal.bin");
  const std::string snap = dir.Path("snap.bin");

  // WAL: seq 1 inserts {0,1}; seq 2 inserts {1,2}; seq 3 deletes {0,1}.
  std::vector<WalRecord> records(3);
  records[0] = {1, UpdateKind::kInsert, 0, 1};
  records[1] = {2, UpdateKind::kInsert, 1, 2};
  records[2] = {3, UpdateKind::kDelete, 0, 1};
  WriteLog(wal, records);

  // Snapshot covering seq <= 2: vertices {0,1,2}, edges {0,1},{1,2}.
  graph::DynamicGraph g(3);
  g.InsertEdge(0, 1);
  g.InsertEdge(1, 2);
  std::string error;
  ASSERT_TRUE(live::SaveGraphSnapshot(snap, g, 2, &error)) << error;

  live::RecoveryOptions options;
  options.wal_path = wal;
  options.snapshot_path = snap;
  live::RecoveredState state;
  ASSERT_TRUE(live::Recover(graph::Graph(), options, &state, &error))
      << error;
  EXPECT_TRUE(state.snapshot_loaded);
  EXPECT_EQ(state.snapshot_seq, 2u);
  EXPECT_EQ(state.replay_applied, 1u);  // only seq 3
  EXPECT_EQ(state.applied_seq, 3u);
  EXPECT_FALSE(state.graph.HasEdge(0, 1));  // the delete was applied once
  EXPECT_TRUE(state.graph.HasEdge(1, 2));   // the covered insert not redone
}

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

/// Applies `u` to the dynamic engine the way the live writer does; true
/// when the graph changed.
bool ApplyToDynamic(core::DynamicEsdIndex* dyn, const LiveUpdate& u) {
  const graph::VertexId hi = std::max(u.u, u.v);
  if (u.kind == UpdateKind::kInsert) {
    while (dyn->CurrentGraph().NumVertices() <= hi) dyn->AddVertex();
    return dyn->InsertEdge(u.u, u.v);
  }
  return hi < dyn->CurrentGraph().NumVertices() && dyn->DeleteEdge(u.u, u.v);
}

// The headline property: after N random updates — across refreezes and a
// checkpoint boundary — the live index answers exactly like a from-scratch
// build on the final graph, both before and after a close/reopen.
TEST(LiveIndexTest, PropertyParityWithFromScratchBuild) {
  ScratchDir dir("live_parity");
  graph::Graph bootstrap = gen::BarabasiAlbert(80, 3, 7);
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.snapshot_path = dir.Path("snap.bin");
  options.refreeze_every = 50;
  options.max_vertex_id = 127;
  std::string error;
  auto live = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(live, nullptr) << error;

  graph::DynamicGraph shadow(bootstrap);
  const std::vector<LiveUpdate> updates = RandomUpdates(300, 100, 0xE5D);
  for (size_t i = 0; i < updates.size(); ++i) {
    ASSERT_TRUE(live->Apply(updates[i], &error)) << "i=" << i << ": " << error;
    ApplyToShadow(&shadow, updates[i]);
    if (i == 149) {
      ASSERT_TRUE(live->Checkpoint(&error)) << error;
    }
  }
  live->RefreezeNow();
  const graph::Graph final_graph = shadow.Snapshot();
  {
    auto engine = live->CurrentEngine();
    ExpectEngineParity(*engine, final_graph, "live engine");
  }

  const live::LiveStats stats = live->Stats();
  EXPECT_EQ(stats.applied_seq, updates.size());
  EXPECT_EQ(stats.inserts + stats.deletes + stats.noops, updates.size());
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_GE(stats.refreezes, 3u);
  EXPECT_EQ(stats.snapshot_seq, updates.size());

  // Reopen from durable state: recovery must land on the same graph.
  live.reset();
  auto reopened = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->Stats().applied_seq, updates.size());
  EXPECT_TRUE(reopened->recovery().snapshot_loaded);
  auto engine = reopened->CurrentEngine();
  ExpectEngineParity(*engine, final_graph, "reopened engine");
}

// Live epochs are the dynamic engine's frozen image, slot for slot: both
// run the same maintenance over the same boot graph, the live writer just
// keeps no H lists. The stream deletes existing edges (freeing ids) and
// inserts afterwards reuse them, past the bootstrap vertex set.
TEST(LiveIndexTest, EpochsAreByteIdenticalToDynamicEngineFreeze) {
  const graph::Graph bootstrap = gen::BarabasiAlbert(80, 3, 7);
  for (core::ScorerKind kind :
       {core::ScorerKind::kEsd, core::ScorerKind::kTruss,
        core::ScorerKind::kEgoBetweenness}) {
    const std::string name(core::ScorerForKind(kind).Name());
    ScratchDir dir("live_bytes_" + name);
    LiveOptions options;
    options.wal_path = dir.Path("wal.bin");
    options.scorer = kind;
    options.refreeze_every = 0;
    options.max_vertex_id = 127;
    std::string error;
    auto live = LiveEsdIndex::Open(bootstrap, options, &error);
    ASSERT_NE(live, nullptr) << error;
    core::DynamicEsdIndex dyn(graph::DynamicGraph(bootstrap).Snapshot(),
                              core::ScorerForKind(kind));
    ASSERT_TRUE(live->CurrentSnapshot()->index == core::Freeze(dyn.Index()))
        << name << " boot epoch";

    util::Rng rng(0xB17E);
    size_t freed = 0;
    size_t inserted = 0;
    for (size_t i = 0; i < 300; ++i) {
      LiveUpdate u;
      const graph::DynamicGraph& cur = dyn.CurrentGraph();
      if (i % 3 == 1) {
        // Delete an existing edge: a random vertex's first neighbour.
        u.kind = UpdateKind::kDelete;
        do {
          u.u = static_cast<graph::VertexId>(
              rng.NextBounded(cur.NumVertices()));
        } while (cur.Degree(u.u) == 0);
        u.v = cur.Neighbors(u.u)[0];
      } else {
        u.kind = UpdateKind::kInsert;
        u.u = static_cast<graph::VertexId>(rng.NextBounded(100));
        do {
          u.v = static_cast<graph::VertexId>(rng.NextBounded(100));
        } while (u.v == u.u);
      }
      ASSERT_TRUE(live->Apply(u, &error)) << name << " i=" << i << error;
      const bool effective = ApplyToDynamic(&dyn, u);
      (u.kind == UpdateKind::kInsert ? inserted : freed) += effective;
      // Every epoch is a delta of the one before it.
      ASSERT_TRUE(live->RefreezeNow());
      ASSERT_TRUE(live->CurrentSnapshot()->index == core::Freeze(dyn.Index()))
          << name << " after update " << i;
    }
    EXPECT_EQ(freed, 100u) << name;
    // Fewer slots than edges ever registered: inserts reused freed ids.
    EXPECT_LT(dyn.Index().EdgeSlotCount(), bootstrap.NumEdges() + inserted)
        << name;
    EXPECT_GT(dyn.CurrentGraph().NumVertices(), bootstrap.NumVertices());
  }
}

/// Counts the slots of delta-built epochs; a full Freeze adds none.
constexpr const char* kPatchedSlots = "esd_live_refreeze_changed_slots_total";

/// A live index over BarabasiAlbert(60, 3, 5) with manual refreezes, and
/// the dynamic engine it must match slot for slot.
struct LiveAndOracle {
  explicit LiveAndOracle(const std::string& tag,
                         obs::MetricRegistry* registry = nullptr)
      : dir(tag),
        bootstrap(gen::BarabasiAlbert(60, 3, 5)),
        dyn(graph::DynamicGraph(bootstrap).Snapshot(),
            core::DeletionStrategy::kTargeted) {
    LiveOptions options;
    options.wal_path = dir.Path("wal.bin");
    options.refreeze_every = 0;
    options.max_vertex_id = 79;
    options.registry = registry;
    std::string error;
    live = LiveEsdIndex::Open(bootstrap, options, &error);
    EXPECT_NE(live, nullptr) << error;
  }

  /// Applies updates [from, to) of a fixed stream to both.
  void Apply(size_t from, size_t to) {
    static const std::vector<LiveUpdate> updates =
        RandomUpdates(400, 75, 0xDE17A);
    std::string error;
    for (size_t i = from; i < to; ++i) {
      ASSERT_TRUE(live->Apply(updates[i], &error)) << "i=" << i << error;
      ApplyToDynamic(&dyn, updates[i]);
    }
  }

  bool EpochMatches() const {
    return live->CurrentSnapshot()->index == core::Freeze(dyn.Index());
  }

  ScratchDir dir;
  graph::Graph bootstrap;
  core::DynamicEsdIndex dyn;
  std::unique_ptr<LiveEsdIndex> live;
};

// A refreeze that fails at the live.refreeze fail point has already copied
// its patch and trimmed the log; the next one must still carry every slot
// written since the published epoch.
TEST(LiveIndexTest, FailedRefreezeKeepsEveryChangedSlot) {
  if (!fault::kFailPointsCompiledIn) {
    GTEST_SKIP() << "ESD_FAULT=OFF: the live.refreeze fail point compiles out";
  }
  obs::MetricRegistry registry;
  LiveAndOracle t("live_refreeze_fail", &registry);
  ASSERT_NE(t.live, nullptr);
  t.Apply(0, 60);
  fault::FailPointRegistry& fp = fault::FailPointRegistry::Global();
  std::string error;
  ASSERT_TRUE(fp.Set("live.refreeze", "1*error(EIO)", &error)) << error;
  EXPECT_FALSE(t.live->RefreezeNow());
  fp.Clear("live.refreeze");
  EXPECT_EQ(t.live->CurrentSnapshot()->epoch, 0u);
  t.Apply(60, 120);
  ASSERT_TRUE(t.live->RefreezeNow());
  EXPECT_EQ(t.live->CurrentSnapshot()->epoch, 1u);
  EXPECT_TRUE(t.EpochMatches());
  EXPECT_EQ(t.live->Stats().refreeze_failures, 1u);
  // ... and it was a delta: the failed refreeze left the log intact.
  EXPECT_GT(registry.CounterValue(kPatchedSlots), 0u);
}

// Two refreezes from the same base: the first, parked in the
// freeze-to-publish window until the second has published, loses to the
// seq guard, and the epoch after both still carries every slot written
// since the winner's base.
TEST(LiveIndexTest, RacingRefreezesKeepEveryChangedSlot) {
  if (!fault::kFailPointsCompiledIn) {
    GTEST_SKIP() << "ESD_FAULT=OFF: the live.refreeze fail point compiles out";
  }
  obs::MetricRegistry registry;
  LiveAndOracle t("live_refreeze_race", &registry);
  ASSERT_NE(t.live, nullptr);
  t.Apply(0, 50);
  fault::FailPointRegistry& fp = fault::FailPointRegistry::Global();
  std::string error;
  ASSERT_TRUE(fp.Set("live.refreeze", "nth(1)*park", &error)) << error;
  std::thread slow([&] { EXPECT_TRUE(t.live->RefreezeNow()); });
  // Whatever fails below, the parked refreeze is let go and joined.
  struct Unpark {
    std::thread& slow;
    ~Unpark() {
      fault::FailPointRegistry::Global().Clear("live.refreeze");
      if (slow.joinable()) slow.join();
    }
  } unpark{slow};
  while (fp.FireCount("live.refreeze") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.Apply(50, 100);
  ASSERT_TRUE(t.live->RefreezeNow());
  EXPECT_TRUE(t.EpochMatches());
  // A delta from the base the parked refreeze also pinned: its trim left
  // that base's log suffix alone.
  EXPECT_GT(registry.CounterValue(kPatchedSlots), 0u);
  fp.Release("live.refreeze");
  slow.join();
  fp.Clear("live.refreeze");
  EXPECT_EQ(t.live->Stats().publish_races, 1u);
  t.Apply(100, 150);
  ASSERT_TRUE(t.live->RefreezeNow());
  EXPECT_TRUE(t.EpochMatches());
}

// The change log never outgrows the table's slot count: past that it is
// dropped, the next refreeze is a full Freeze (no slots counted as
// patched), and the one after is a delta again.
TEST(LiveIndexTest, OverflowedChangeLogFallsBackToFullFreeze) {
  obs::MetricRegistry registry;
  LiveAndOracle t("live_log_overflow", &registry);
  ASSERT_NE(t.live, nullptr);
  t.Apply(0, 20);
  ASSERT_TRUE(t.live->RefreezeNow());
  EXPECT_TRUE(t.EpochMatches());
  const uint64_t patched = registry.CounterValue(kPatchedSlots);
  EXPECT_GT(patched, 0u);

  // Far more slot writes than slots, with no refreeze to trim the log.
  t.Apply(20, 380);
  ASSERT_TRUE(t.live->RefreezeNow());
  EXPECT_TRUE(t.EpochMatches());
  EXPECT_EQ(registry.CounterValue(kPatchedSlots), patched);

  t.Apply(380, 400);
  ASSERT_TRUE(t.live->RefreezeNow());
  EXPECT_TRUE(t.EpochMatches());
  EXPECT_GT(registry.CounterValue(kPatchedSlots), patched);
}

// Durability before visibility: a batch that reaches the refreeze cadence
// is published only after its fsync returns, never while it is held.
TEST(LiveIndexTest, NoEpochCoversABatchBeforeItsFsync) {
  if (!fault::kFailPointsCompiledIn) {
    GTEST_SKIP() << "ESD_FAULT=OFF: the wal.fsync fail point compiles out";
  }
  ScratchDir dir("live_fsync_first");
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.refreeze_every = 4;
  std::string error;
  auto live =
      LiveEsdIndex::Open(gen::BarabasiAlbert(40, 2, 3), options, &error);
  ASSERT_NE(live, nullptr) << error;

  const std::vector<LiveUpdate> batch = RandomUpdates(4, 40, 0xF5);
  fault::FailPointRegistry& fp = fault::FailPointRegistry::Global();
  constexpr int kHoldMs = 300;
  ASSERT_TRUE(fp.Set("wal.fsync", "1*delay(" + std::to_string(kHoldMs) + ")",
                     &error))
      << error;
  std::thread writer([&] {
    std::string werror;
    EXPECT_EQ(live->ApplyBatch(batch, &werror), batch.size()) << werror;
  });
  // FireCount bumps before the sleep: from here the fsync is held for
  // kHoldMs. Watch the published epoch for most of that window.
  while (fp.FireCount("wal.fsync") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto held_until = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kHoldMs - 100);
  while (std::chrono::steady_clock::now() < held_until) {
    EXPECT_EQ(live->CurrentSnapshot()->applied_seq, 0u)
        << "an epoch covered the batch before its fsync returned";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  writer.join();
  fp.Clear("wal.fsync");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live->CurrentSnapshot()->applied_seq < batch.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(live->CurrentSnapshot()->applied_seq, batch.size());
}

TEST(LiveIndexTest, CheckpointCompactsTheLog) {
  ScratchDir dir("live_ckpt");
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.snapshot_path = dir.Path("snap.bin");
  options.refreeze_every = 0;
  std::string error;
  auto live = LiveEsdIndex::Open(gen::BarabasiAlbert(40, 2, 3), options,
                                 &error);
  ASSERT_NE(live, nullptr) << error;

  const std::vector<LiveUpdate> updates = RandomUpdates(64, 40, 99);
  ASSERT_EQ(live->ApplyBatch(updates, &error), updates.size()) << error;
  EXPECT_GT(live->Stats().wal_bytes, live::kWalFileHeaderBytes);
  ASSERT_TRUE(live->Checkpoint(&error)) << error;
  EXPECT_EQ(live->Stats().wal_bytes, live::kWalFileHeaderBytes);
  EXPECT_TRUE(fs::exists(dir.Path("snap.bin")));

  // Updates after the checkpoint land in the compacted log and survive.
  LiveUpdate extra;
  extra.u = 0;
  extra.v = 39;
  ASSERT_TRUE(live->Apply(extra, &error)) << error;
  const uint64_t final_seq = live->Stats().applied_seq;
  live.reset();
  auto reopened =
      LiveEsdIndex::Open(gen::BarabasiAlbert(40, 2, 3), options, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->Stats().applied_seq, final_seq);
  EXPECT_EQ(reopened->recovery().replay_applied, 1u);
}

TEST(LiveIndexTest, InsertBeyondVertexBoundIsRejectedBeforeLogging) {
  ScratchDir dir("live_bound");
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.max_vertex_id = 49;
  std::string error;
  auto live =
      LiveEsdIndex::Open(gen::BarabasiAlbert(30, 2, 5), options, &error);
  ASSERT_NE(live, nullptr) << error;

  const uint64_t wal_before = live->Stats().wal_bytes;
  LiveUpdate bad;
  bad.u = 2;
  bad.v = 50;  // beyond the bound
  EXPECT_FALSE(live->Apply(bad, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(live->Stats().wal_bytes, wal_before);  // never logged
  EXPECT_EQ(live->Stats().applied_seq, 0u);

  // In-bounds auto-grow works, including for isolated new vertices.
  LiveUpdate grow;
  grow.u = 2;
  grow.v = 49;
  error.clear();
  ASSERT_TRUE(live->Apply(grow, &error)) << error;
  live->RefreezeNow();
  auto snap = live->CurrentSnapshot();
  EXPECT_EQ(snap->applied_seq, 1u);
}

// The writer's batch bound: updates before the first out-of-range insert
// are applied and made durable together, nothing after it is, and the
// typed result says kBounds with the prefix length — across a reopen.
TEST(LiveIndexTest, OutOfBoundsBatchKeepsDurablePrefixOnly) {
  ScratchDir dir("live_batch_bound");
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.max_vertex_id = 49;
  options.refreeze_every = 0;
  const graph::Graph bootstrap = gen::BarabasiAlbert(30, 2, 5);
  std::string error;
  auto live = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(live, nullptr) << error;

  std::vector<LiveUpdate> batch(4);
  batch[0] = {UpdateKind::kInsert, 0, 40};
  batch[1] = {UpdateKind::kInsert, 1, 41};
  batch[2] = {UpdateKind::kInsert, 2, 50};  // beyond the bound
  batch[3] = {UpdateKind::kInsert, 3, 42};
  // A no-op action, armed only so that fsyncs are counted.
  fault::FailPointRegistry& fp = fault::FailPointRegistry::Global();
  ASSERT_TRUE(fp.Set("wal.fsync", "delay(0)", &error)) << error;
  const uint64_t syncs_before = fp.HitCount("wal.fsync");
  const live::ApplyResult r = live->ApplyBatchTyped(batch);
  const uint64_t syncs_after = fp.HitCount("wal.fsync");
  fp.Clear("wal.fsync");
  EXPECT_EQ(r.status, live::ApplyStatus::kBounds);
  EXPECT_EQ(r.processed, 2u);
  EXPECT_FALSE(r.message.empty());
  EXPECT_EQ(live->Stats().applied_seq, 2u);
  if (fault::kFailPointsCompiledIn) {
    // The prefix still got its one durability point.
    EXPECT_EQ(syncs_after, syncs_before + 1);
  }

  live.reset();
  live = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(live, nullptr) << error;
  EXPECT_EQ(live->Stats().applied_seq, 2u);
  EXPECT_EQ(live->recovery().replay_applied, 2u);
  const auto snap = live->CurrentSnapshot();
  auto has_edge = [&](graph::VertexId u, graph::VertexId v) {
    for (graph::EdgeId e = 0; e < snap->index.EdgeSlotCount(); ++e) {
      if (snap->index.IsLive(e) &&
          snap->index.EdgeAt(e) == graph::MakeEdge(u, v)) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_edge(0, 40));
  EXPECT_TRUE(has_edge(1, 41));
  EXPECT_FALSE(has_edge(3, 42));
}

// Clearing the epoch listener waits out a call already running: a caller
// tearing down what the listener captured (a server's result cache) must
// not race a publish still inside it.
TEST(LiveIndexTest, ClearingEpochListenerWaitsForRunningCall) {
  ScratchDir dir("live_listener");
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.refreeze_every = 0;
  std::string error;
  auto live =
      LiveEsdIndex::Open(gen::BarabasiAlbert(30, 2, 1), options, &error);
  ASSERT_NE(live, nullptr) << error;

  std::atomic<bool> entered{false};
  std::atomic<bool> latch_open{false};
  live->SetEpochListener([&](uint64_t, uint64_t) {
    entered = true;
    while (!latch_open) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread publisher([&] { EXPECT_TRUE(live->RefreezeNow()); });
  while (!entered) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::atomic<bool> cleared{false};
  std::thread clearer([&] {
    live->SetEpochListener({});
    cleared = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(cleared) << "listener cleared while a call was still running";
  latch_open = true;
  clearer.join();
  publisher.join();
  EXPECT_TRUE(cleared);
}

TEST(LiveIndexTest, RefreezePublishesFreshEpochs) {
  ScratchDir dir("live_epoch");
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.refreeze_every = 0;  // manual refreezes only
  std::string error;
  auto live =
      LiveEsdIndex::Open(gen::BarabasiAlbert(30, 2, 1), options, &error);
  ASSERT_NE(live, nullptr) << error;

  auto boot = live->CurrentSnapshot();
  EXPECT_EQ(boot->epoch, 0u);
  LiveUpdate u;
  u.u = 0;
  u.v = 29;
  ASSERT_TRUE(live->Apply(u, &error)) << error;
  // Readers pinned to the old epoch are unaffected until they re-pin.
  EXPECT_EQ(live->CurrentSnapshot()->epoch, boot->epoch);
  live->RefreezeNow();
  auto fresh = live->CurrentSnapshot();
  EXPECT_EQ(fresh->epoch, boot->epoch + 1);
  EXPECT_EQ(fresh->applied_seq, 1u);
  EXPECT_EQ(boot->applied_seq, 0u);  // the pinned epoch is immutable
}

// Regression for the stale-epoch publish race. A refreeze builds its frozen
// image under the writer mutex but publishes after releasing it, so a slow
// refreeze can reach Publish AFTER a faster one that folded in more
// updates. The unguarded Publish used to install it anyway, rolling readers
// back to a stale image (and, with the result cache, re-keying a fresh
// generation to stale answers). The seq guard must discard it instead.
//
// The live.refreeze fail point sits exactly in that freeze-to-publish
// window; nth(1)*delay(...) parks only the FIRST refreeze there (FireCount
// bumps before the sleep, giving the test a sync point), letting a second,
// newer refreeze overtake it deterministically.
TEST(LiveIndexTest, StalePublishDiscardedBySeqGuard) {
  if (!fault::kFailPointsCompiledIn) {
    // The race window is held open by the live.refreeze fail point.
    GTEST_SKIP() << "ESD_FAULT=OFF: the live.refreeze fail point compiles out";
  }
  ScratchDir dir("live_pubrace");
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.refreeze_every = 0;  // every refreeze in this test is explicit
  std::string error;
  auto live =
      LiveEsdIndex::Open(gen::BarabasiAlbert(40, 2, 9), options, &error);
  ASSERT_NE(live, nullptr) << error;

  LiveUpdate first;
  first.u = 0;
  first.v = 39;
  ASSERT_TRUE(live->Apply(first, &error)) << error;  // seq 1

  fault::FailPointRegistry& fp = fault::FailPointRegistry::Global();
  ASSERT_TRUE(fp.Set("live.refreeze", "nth(1)*delay(300)", &error)) << error;

  // Thread A freezes at seq 1, then parks in the window.
  std::thread slow([&] { EXPECT_TRUE(live->RefreezeNow()); });
  while (fp.FireCount("live.refreeze") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Meanwhile a newer update lands and refreezes straight through (hit 2 of
  // the fail point: nth(1) no longer fires).
  LiveUpdate second;
  second.u = 1;
  second.v = 38;
  ASSERT_TRUE(live->Apply(second, &error)) << error;  // seq 2
  ASSERT_TRUE(live->RefreezeNow());
  auto fresh = live->CurrentSnapshot();
  EXPECT_EQ(fresh->epoch, 1u);
  EXPECT_EQ(fresh->applied_seq, 2u);

  slow.join();
  fp.Clear("live.refreeze");

  // The slow refreeze's stale image (seq 1) must have been discarded: the
  // published epoch still reflects seq 2 and the race was counted.
  auto current = live->CurrentSnapshot();
  EXPECT_EQ(current->epoch, 1u);
  EXPECT_EQ(current->applied_seq, 2u);
  const live::LiveStats stats = live->Stats();
  EXPECT_EQ(stats.publish_races, 1u);
  EXPECT_EQ(stats.refreezes, 2u);  // boot + the fast refreeze; no third epoch
}

// Epoch-aware serving with the result cache in front of a churning live
// index: every answer — first ask (miss) and repeat (hit) — must match the
// current epoch's engine exactly, across epoch swaps driven through the
// SetEpochListener -> NotifyEpoch wiring (the esd_server arrangement).
TEST(LiveIndexTest, CachedAnswersMatchPinnedEpochUnderChurn) {
  ScratchDir dir("live_cache");
  graph::Graph bootstrap = gen::BarabasiAlbert(80, 3, 7);
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.refreeze_every = 0;  // deterministic: the test drives every epoch
  options.max_vertex_id = 99;
  std::string error;
  auto live = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(live, nullptr) << error;

  serve::EsdQueryService::Options serve_options;
  serve_options.num_threads = 2;
  serve_options.cache_bytes = 1 << 20;
  LiveEsdIndex* live_raw = live.get();
  serve::EsdQueryService service(
      serve::SnapshotProvider(
          [live_raw] { return live_raw->CurrentSnapshot(); }),
      serve_options);
  ASSERT_NE(service.cache(), nullptr);
  service.NotifyEpoch(live->CurrentSnapshot()->epoch);
  live->SetEpochListener(
      [&service](uint64_t epoch, uint64_t) { service.NotifyEpoch(epoch); });

  const std::vector<LiveUpdate> updates = RandomUpdates(200, 90, 0xCACE);
  constexpr size_t kRounds = 5;
  constexpr size_t kPerRound = 40;
  for (size_t round = 0; round < kRounds; ++round) {
    ASSERT_EQ(live->ApplyBatch({updates.data() + round * kPerRound,
                                kPerRound},
                               &error),
              kPerRound)
        << error;
    ASSERT_TRUE(live->RefreezeNow());
    auto engine = live->CurrentEngine();
    for (uint32_t tau : {1u, 2u, 4u}) {
      for (uint32_t k : {3u, 11u}) {
        const TopKResult want = engine->Query(k, tau);
        serve::QueryRequest rq;
        rq.k = k;
        rq.tau = tau;
        // Ask twice: the repeat is served from the cache generation keyed
        // to this epoch and must be byte-identical, never a stale round's.
        for (int ask = 0; ask < 2; ++ask) {
          serve::QueryResponse resp = service.Query(rq);
          ASSERT_EQ(resp.status, serve::ResponseStatus::kOk);
          EXPECT_EQ(resp.result, want)
              << "round=" << round << " tau=" << tau << " k=" << k
              << " ask=" << ask;
        }
      }
    }
  }
  const serve::ResultCache::Stats cache_stats = service.cache()->Snap();
  EXPECT_GT(cache_stats.hits, 0u);
  EXPECT_EQ(cache_stats.epoch, live->CurrentSnapshot()->epoch);
  EXPECT_EQ(cache_stats.epoch, kRounds);  // boot epoch 0 + one per round

  // The listener captures the service; detach it before teardown order
  // (service first) could leave it dangling.
  live->SetEpochListener({});
}

// TSan-targeted stress: concurrent readers serve through the provider while
// a writer streams updates and epochs swap underneath them. Asserts at
// least 4 epoch publications (the writer awaits each refreeze boundary's)
// and full request accounting, then end-state parity with a from-scratch
// build.
TEST(LiveServeStressTest, ReadersPinEpochsWhileWriterStreams) {
  ScratchDir dir("live_stress");
  graph::Graph bootstrap = gen::BarabasiAlbert(120, 3, 11);
  LiveOptions options;
  options.wal_path = dir.Path("wal.bin");
  options.snapshot_path = dir.Path("snap.bin");
  options.refreeze_every = 100;
  options.max_vertex_id = 149;
  std::string error;
  auto live = LiveEsdIndex::Open(bootstrap, options, &error);
  ASSERT_NE(live, nullptr) << error;

  serve::EsdQueryService::Options serve_options;
  serve_options.num_threads = 4;
  serve_options.max_queue = 1 << 14;
  serve_options.max_batch = 8;
  LiveEsdIndex* live_raw = live.get();
  serve::EsdQueryService service(
      serve::SnapshotProvider(
          [live_raw] { return live_raw->CurrentSnapshot(); }),
      serve_options);

  graph::DynamicGraph shadow(bootstrap);
  constexpr size_t kUpdates = 600;
  constexpr size_t kBatch = 8;
  std::atomic<bool> writer_done{false};
  std::atomic<bool> writer_failed{false};
  std::thread writer([&] {
    const std::vector<LiveUpdate> updates =
        RandomUpdates(kUpdates, 140, 0xBEEF);
    std::string werror;
    for (size_t i = 0; i < updates.size(); i += kBatch) {
      const size_t n = std::min(kBatch, updates.size() - i);
      if (live->ApplyBatch({updates.data() + i, n}, &werror) != n) {
        writer_failed.store(true);
        break;
      }
      for (size_t j = 0; j < n; ++j) ApplyToShadow(&shadow, updates[i + j]);
      // ScheduleRefreeze coalesces by contract: a boundary that passes while
      // the previous refreeze is still queued publishes nothing of its own.
      // Waiting (bounded) for each boundary's epoch keeps the publish count
      // asserted below independent of thread scheduling.
      const uint64_t epochs = 1 + (i + n) / options.refreeze_every;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (live->Stats().refreezes < epochs &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    writer_done.store(true);
  });

  constexpr int kClients = 4;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(1000 + c);
      while (!writer_done.load()) {
        serve::QueryRequest rq;
        rq.k = 1 + static_cast<uint32_t>(rng.NextBounded(32));
        rq.tau = 1 + static_cast<uint32_t>(rng.NextBounded(5));
        serve::QueryResponse resp = service.Submit(rq).get();
        if (resp.status != serve::ResponseStatus::kOk) {
          bad.fetch_add(1);
          continue;
        }
        served.fetch_add(1);
        // Mid-stream we cannot know the exact answer, but every answer
        // must be internally consistent: size k, scores sorted descending.
        EXPECT_EQ(resp.result.size(), rq.k);
        for (size_t i = 1; i < resp.result.size(); ++i) {
          EXPECT_LE(resp.result[i].score, resp.result[i - 1].score);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : clients) t.join();
  service.Stop();

  ASSERT_FALSE(writer_failed.load());
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  const serve::MetricsSnapshot metrics = service.metrics().Snap();
  EXPECT_EQ(metrics.accepted, metrics.completed);

  const live::LiveStats stats = live->Stats();
  EXPECT_EQ(stats.applied_seq, kUpdates);
  // The boot epoch plus at least kUpdates / refreeze_every swaps.
  EXPECT_GE(stats.refreezes, 4u);

  live->RefreezeNow();
  auto engine = live->CurrentEngine();
  ExpectEngineParity(*engine, shadow.Snapshot(), "post-stress engine");
}

// Crash-recovery property: SIGKILL a child process mid-stream (batched
// fsync'd updates with periodic checkpoints), then recover in the parent
// and demand exact top-k parity between the recovered live engine and a
// from-scratch frozen build on the recovered graph.
TEST(LiveKillRecoverTest, SigkillMidStreamRecoversToExactParity) {
#ifdef ESD_UNDER_TSAN
  GTEST_SKIP() << "fork + threads is outside TSan's supported model";
#endif
  ScratchDir dir("live_kill");
  const std::string wal = dir.Path("wal.bin");
  const std::string snap = dir.Path("snap.bin");
  graph::Graph bootstrap = gen::BarabasiAlbert(60, 3, 21);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: stream updates until the parent kills us.
    LiveOptions options;
    options.wal_path = wal;
    options.snapshot_path = snap;
    options.refreeze_every = 64;
    options.max_vertex_id = 79;
    std::string error;
    auto live = LiveEsdIndex::Open(bootstrap, options, &error);
    if (live == nullptr) _exit(2);
    const std::vector<LiveUpdate> updates = RandomUpdates(100000, 75, 0xDEAD);
    for (size_t i = 0; i + 4 <= updates.size(); i += 4) {
      if (live->ApplyBatch({updates.data() + i, 4}, &error) != 4) _exit(3);
      if ((i / 4) % 100 == 99 && !live->Checkpoint(&error)) _exit(4);
    }
    _exit(0);  // should be unreachable: the parent kills us first
  }

  // Parent: wait for real durable progress, then SIGKILL.
  const uint64_t record_bytes =
      live::kWalRecordHeaderBytes + live::kWalPayloadBytes;
  bool progressed = false;
  for (int i = 0; i < 2000 && !progressed; ++i) {
    std::error_code ec;
    const auto size = fs::file_size(wal, ec);
    if (!ec && size > live::kWalFileHeaderBytes + 200 * record_bytes) {
      progressed = true;
      break;
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, WNOHANG), 0)
        << "child exited early with status " << status;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(progressed) << "writer never made durable progress";
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Recover the durable graph independently of LiveEsdIndex...
  live::RecoveryOptions rec_options;
  rec_options.wal_path = wal;
  rec_options.snapshot_path = snap;
  rec_options.truncate_torn_tail = false;  // leave the tail for Open below
  live::RecoveredState state;
  std::string error;
  ASSERT_TRUE(live::Recover(bootstrap, rec_options, &state, &error)) << error;

  // ...then open the live index over the same files and demand parity with
  // a from-scratch frozen build on the recovered graph. The two answers
  // come from different pipelines (dynamic bootstrap + freeze vs direct
  // frozen build), so this is a real cross-check, not a tautology.
  LiveOptions options;
  options.wal_path = wal;
  options.snapshot_path = snap;
  std::string open_error;
  auto live = LiveEsdIndex::Open(bootstrap, options, &open_error);
  ASSERT_NE(live, nullptr) << open_error;
  EXPECT_EQ(live->Stats().applied_seq, state.applied_seq);
  auto engine = live->CurrentEngine();
  ASSERT_TRUE(state.graph_changed);
  ExpectEngineParity(*engine, state.graph, "post-SIGKILL engine");
}

}  // namespace
}  // namespace esd
