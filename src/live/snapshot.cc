#include "live/snapshot.h"

#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "core/binary_format.h"
#include "obs/metrics.h"
#include "util/posix_io.h"

namespace esd::live {

namespace {

constexpr char kSnapshotMagic[4] = {'E', 'S', 'D', 'S'};
constexpr uint32_t kSnapshotFormatVersion = 2;  // leading u32 scorer id

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

std::mutex g_dir_fsync_handler_mu;
SnapshotDirFsyncHandler g_dir_fsync_handler;

void ReportDirFsyncFailure(const std::string& dir, int error_code) {
  obs::MetricRegistry::Global()
      .GetCounter("esd_snapshot_dir_fsync_failures",
                  "post-rename directory fsyncs that failed (snapshot data "
                  "durable; the rename may not survive a power cut)")
      .Inc();
  SnapshotDirFsyncHandler handler;
  {
    std::lock_guard<std::mutex> lock(g_dir_fsync_handler_mu);
    handler = g_dir_fsync_handler;
  }
  if (handler) handler(dir, error_code);
}

}  // namespace

SnapshotDirFsyncHandler SetSnapshotDirFsyncHandler(
    SnapshotDirFsyncHandler handler) {
  std::lock_guard<std::mutex> lock(g_dir_fsync_handler_mu);
  std::swap(handler, g_dir_fsync_handler);
  return handler;
}

bool SaveGraphSnapshot(const std::string& path, const graph::DynamicGraph& g,
                       uint64_t applied_seq, std::string* error,
                       core::ScorerKind scorer) {
  std::vector<graph::Edge> edges;
  edges.reserve(g.NumEdges());
  for (graph::VertexId u = 0; u < g.NumVertices(); ++u) {
    for (graph::VertexId v : g.Neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  std::ostringstream out(std::ios::binary);
  out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  uint32_t version = kSnapshotFormatVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  core::BinaryWriter w(out);
  w.Put(static_cast<uint32_t>(scorer));
  w.Put(applied_seq);
  w.Put(g.NumVertices());
  w.PutArray(std::span<const graph::Edge>(edges));
  const uint64_t checksum = w.checksum();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out) return SetError(error, "snapshot serialization failed");
  return util::WriteFileAtomically(path, std::move(out).str(), "snapshot",
                                   error, ReportDirFsyncFailure);
}

bool LoadGraphSnapshot(const std::string& path, GraphSnapshotData* out,
                       std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return SetError(error, "cannot open snapshot file " + path);
  char magic[4];
  uint32_t version = 0;
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return SetError(error, "bad magic: " + path + " is not an ESDS snapshot");
  }
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) return SetError(error, "truncated snapshot file");
  if (version != kSnapshotFormatVersion) {
    return SetError(error, "unsupported snapshot version " +
                               std::to_string(version) + " (only version " +
                               std::to_string(kSnapshotFormatVersion) +
                               " loads)");
  }
  core::BinaryReader r(in);
  GraphSnapshotData data;
  uint32_t raw = 0;
  if (!r.Get(&raw)) return SetError(error, "truncated snapshot file");
  if (!core::ValidScorerKind(raw)) {
    return SetError(error, "corrupt snapshot: unknown scorer id " +
                               std::to_string(raw));
  }
  data.scorer = static_cast<core::ScorerKind>(raw);
  if (!r.Get(&data.applied_seq) || !r.Get(&data.num_vertices) ||
      !r.GetArray(&data.edges)) {
    return SetError(error, r.error() != nullptr
                               ? r.error()
                               : "truncated snapshot file");
  }
  uint64_t stored_checksum = 0;
  in.read(reinterpret_cast<char*>(&stored_checksum), sizeof(stored_checksum));
  if (!in || stored_checksum != r.checksum()) {
    return SetError(error, "checksum mismatch: snapshot file corrupt");
  }
  for (const graph::Edge& e : data.edges) {
    if (e.u >= data.num_vertices || e.v >= data.num_vertices || e.u == e.v) {
      return SetError(error, "corrupt snapshot: edge endpoint out of range");
    }
  }
  *out = std::move(data);
  return true;
}

}  // namespace esd::live
