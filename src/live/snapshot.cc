#include "live/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "core/binary_format.h"
#include "fault/failpoint.h"
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

/// Durable whole-file write: tmp file in the same directory, write + fsync +
/// close, rename over the target, fsync the directory. A crash at any point
/// leaves either the old snapshot or the new one, never a torn mix.
bool WriteFileAtomically(const std::string& path, const std::string& bytes,
                         std::string* error) {
  const std::string tmp = path + ".tmp";
  if (const auto hit = ESD_FAILPOINT("snapshot.open")) {
    return SetError(error, "cannot open " + tmp + " for writing: " +
                               std::strerror(hit.error_code) + " [injected]");
  }
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return SetError(error, "cannot open " + tmp + " for writing: " +
                               std::strerror(errno));
  }
  if (const auto hit = ESD_FAILPOINT("snapshot.write")) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return SetError(error, "snapshot write failed: " +
                               std::string(std::strerror(hit.error_code)) +
                               " [injected]");
  }
  const util::WriteResult wr = util::WriteFully(
      fd, bytes.data(), bytes.size(), "snapshot.short_write");
  if (!wr.ok) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return SetError(error, wr.short_write
                               ? "snapshot write torn mid-file"
                               : "snapshot write failed: " +
                                     std::string(std::strerror(
                                         wr.error_code)));
  }
  bool synced = ::fsync(fd) == 0;
  if (const auto hit = ESD_FAILPOINT("snapshot.fsync")) {
    synced = false;
    errno = hit.error_code;
  }
  ::close(fd);
  if (!synced) {
    ::unlink(tmp.c_str());
    return SetError(error, "snapshot fsync failed: " +
                               std::string(std::strerror(errno)));
  }
  if (const auto hit = ESD_FAILPOINT("snapshot.rename")) {
    ::unlink(tmp.c_str());
    return SetError(error, "cannot rename " + tmp + " over " + path + ": " +
                               std::strerror(hit.error_code) + " [injected]");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int rename_errno = errno;  // before unlink can clobber it
    ::unlink(tmp.c_str());
    return SetError(error, "cannot rename " + tmp + " over " + path + ": " +
                               std::strerror(rename_errno));
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  int dir_fsync_errno = 0;
  if (dfd >= 0) {
    if (::fsync(dfd) != 0) dir_fsync_errno = errno;
    ::close(dfd);
  } else {
    dir_fsync_errno = errno;
  }
  if (const auto hit = ESD_FAILPOINT("snapshot.dir_fsync")) {
    dir_fsync_errno = hit.error_code;
  }
  if (dir_fsync_errno != 0) {
    // The snapshot bytes are durable; only the rename's directory entry is
    // at risk. Typed warning instead of the old silent best-effort.
    ReportDirFsyncFailure(dir, dir_fsync_errno);
  }
  return true;
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
  return WriteFileAtomically(path, std::move(out).str(), error);
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
