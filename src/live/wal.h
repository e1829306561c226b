#ifndef ESD_LIVE_WAL_H_
#define ESD_LIVE_WAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/scorer.h"
#include "graph/graph.h"

namespace esd::live {

/// One edge update as it flows through the live subsystem.
enum class UpdateKind : uint8_t { kInsert = 0, kDelete = 1 };

const char* UpdateKindName(UpdateKind kind);

/// One durable WAL entry: a sequence number (strictly increasing within a
/// log) plus the update it records. Sequence numbers let recovery skip
/// entries already folded into a persisted snapshot, which makes the
/// checkpoint protocol (persist snapshot, then truncate log) safe against
/// a crash between the two steps.
struct WalRecord {
  uint64_t seq = 0;
  UpdateKind kind = UpdateKind::kInsert;
  graph::VertexId u = 0;
  graph::VertexId v = 0;
};

/// Why replay stopped before the end of the file. Everything except
/// kBadFileHeader is a tolerated torn tail: the records before it are
/// valid and were delivered; recovery truncates the file back to
/// `valid_bytes` and serving continues.
enum class WalTailStatus : uint8_t {
  kClean = 0,          ///< EOF exactly at a record boundary
  kTruncatedRecord,    ///< partial record (or partial initial header) at EOF
  kChecksumMismatch,   ///< payload bytes do not match the stored checksum
  kOversizedRecord,    ///< length prefix exceeds kMaxWalRecordBytes
  kMalformedRecord,    ///< length prefix is not the record payload size
  kBadFileHeader,      ///< magic/version/scorer id wrong: nothing replayed
};

const char* WalTailStatusName(WalTailStatus status);

/// Typed outcome of the last WalWriter operation, so the live index can
/// distinguish retryable IO errors (ENOSPC clearing, disk coming back)
/// from programming errors and from a short write that tore the tail.
enum class WalIoStatus : uint8_t {
  kOk = 0,
  kNotOpen,      ///< operation on a closed writer
  kIoError,      ///< write/fsync/truncate failed; errno in last_errno()
  kShortWrite,   ///< write stalled mid-record; tail repaired (or dirty)
};

const char* WalIoStatusName(WalIoStatus status);

/// Outcome of one ReplayWal pass.
struct WalReplayResult {
  uint64_t records = 0;     ///< valid records delivered to the callback
  uint64_t last_seq = 0;    ///< seq of the last valid record (0 if none)
  uint64_t valid_bytes = 0; ///< replayable prefix length, incl. file header
  WalTailStatus tail = WalTailStatus::kClean;
  /// Scorer the log belongs to (file header field).
  core::ScorerKind scorer = core::ScorerKind::kEsd;
};

/// On-disk layout (native byte order, like every format in this repo):
///   file header: magic "ESDW" + u32 version (2) + u32 scorer id
///   records:     u32 payload_len | u64 fnv1a(payload) | payload
///   payload:     u64 seq | u8 kind | u32 u | u32 v      (17 bytes)
/// A header with any other version is refused (kBadFileHeader on replay,
/// an error from WalWriter::Open), never replayed or appended to.
inline constexpr size_t kWalFileHeaderBytes = 12;
inline constexpr size_t kWalRecordHeaderBytes = 12;
inline constexpr uint32_t kWalPayloadBytes = 17;
/// Hard bound on a record's claimed payload length. A corrupt or hostile
/// length prefix can therefore never drive an allocation: payloads are read
/// into a fixed stack buffer of this size.
inline constexpr uint32_t kMaxWalRecordBytes = 4096;

/// Streams every valid record of the log at `path` through `fn`, stopping
/// at EOF or at the first invalid byte (torn tail). A missing or empty
/// file replays zero records with a clean tail. Returns false only when
/// the file exists but its header is not ours — another magic, another
/// version, or an unknown scorer id (kBadFileHeader) — or it cannot be
/// read at all — *error is set and nothing is replayed; every torn-tail
/// case returns true with `result->tail` typed accordingly.
bool ReplayWal(const std::string& path,
               const std::function<void(const WalRecord&)>& fn,
               WalReplayResult* result, std::string* error);

/// Append-side handle on a WAL file. Append() buffers nothing: each record
/// is one write() syscall; durability is explicit via Sync() (fsync), which
/// the live index issues once per applied batch. Not thread-safe — the
/// live index serializes writers.
///
/// Failure handling: a failed or short Append() leaves no half-record
/// behind — the writer ftruncate()s the file back to the last record
/// boundary before returning, so a later retry appends to a clean tail.
/// If even that repair fails the tail is flagged dirty and every
/// subsequent Append() re-attempts the repair before writing.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending, creating it (with a fresh file header
  /// stamped with `scorer`) if missing or empty. The caller must have
  /// truncated any torn tail first (recovery does); an existing file with
  /// a foreign, other-version or partial header is refused rather than
  /// clobbered (its bytes stay as they were), and so is a log whose header
  /// names a different scorer — appending another scorer's updates would
  /// poison replay.
  bool Open(const std::string& path, std::string* error,
            core::ScorerKind scorer = core::ScorerKind::kEsd);

  /// Appends one record (not yet durable; call Sync()). On failure the
  /// typed cause is in last_status()/last_errno() and the file has been
  /// truncated back to the previous record boundary (see class comment).
  bool Append(const WalRecord& record, std::string* error);

  /// fsync: everything appended so far survives a crash/SIGKILL.
  bool Sync(std::string* error);

  /// Drops every record, keeping the file header — the checkpoint
  /// compaction step. Durable on return.
  bool TruncateAll(std::string* error);

  /// Current file size in bytes (header included).
  uint64_t SizeBytes() const { return bytes_; }

  /// Typed cause of the most recent operation's outcome.
  WalIoStatus last_status() const { return last_status_; }
  /// errno of the most recent kIoError (0 otherwise).
  int last_errno() const { return last_errno_; }
  /// Cumulative EINTR retries absorbed by append loops on this writer.
  uint64_t eintr_retries() const { return eintr_retries_; }
  /// True while a failed append's torn bytes could not be truncated away.
  bool tail_dirty() const { return tail_dirty_; }

  bool is_open() const { return fd_ >= 0; }
  void Close();

 private:
  bool RepairTail(std::string* error);

  int fd_ = -1;
  uint64_t bytes_ = 0;
  WalIoStatus last_status_ = WalIoStatus::kOk;
  int last_errno_ = 0;
  uint64_t eintr_retries_ = 0;
  bool tail_dirty_ = false;
};

}  // namespace esd::live

#endif  // ESD_LIVE_WAL_H_
