#include "live/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "core/binary_format.h"
#include "fault/failpoint.h"
#include "util/posix_io.h"

namespace esd::live {

namespace {

constexpr char kWalMagic[4] = {'E', 'S', 'D', 'W'};
constexpr uint32_t kWalFormatVersion = 2;  // magic + version + scorer id
/// Magic + version: enough bytes to tell a foreign file from a torn one.
constexpr size_t kWalMagicVersionBytes = 8;

void EncodeU32(char* dst, uint32_t v) { std::memcpy(dst, &v, sizeof(v)); }
void EncodeU64(char* dst, uint64_t v) { std::memcpy(dst, &v, sizeof(v)); }

uint32_t DecodeU32(const char* src) {
  uint32_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
uint64_t DecodeU64(const char* src) {
  uint64_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

void EncodePayload(const WalRecord& rec, char* dst) {
  EncodeU64(dst, rec.seq);
  dst[8] = static_cast<char>(rec.kind);
  EncodeU32(dst + 9, rec.u);
  EncodeU32(dst + 13, rec.v);
}

WalRecord DecodePayload(const char* src) {
  WalRecord rec;
  rec.seq = DecodeU64(src);
  rec.kind = static_cast<uint8_t>(src[8]) == 0 ? UpdateKind::kInsert
                                               : UpdateKind::kDelete;
  rec.u = DecodeU32(src + 9);
  rec.v = DecodeU32(src + 13);
  return rec;
}

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// What the file header of an existing log says. `error` is set for
/// every status but kOk.
struct WalHeader {
  enum Status { kEmpty, kTorn, kBad, kOk };
  Status status = kEmpty;
  core::ScorerKind scorer = core::ScorerKind::kEsd;
  std::string error;
};

/// The one parser of the 12-byte file header, shared by replay and append.
/// A file shorter than the header is torn, unless its first 8 bytes
/// already name another format or version.
WalHeader ReadWalHeader(std::istream& in, const std::string& path) {
  char header[kWalFileHeaderBytes];
  in.read(header, sizeof(header));
  const auto got = static_cast<size_t>(in.gcount());
  const bool has_version = got >= kWalMagicVersionBytes;
  const uint32_t version = has_version ? DecodeU32(header + 4) : 0;
  WalHeader out;
  if (has_version && std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0) {
    out.status = WalHeader::kBad;
    out.error = "bad wal header: " + path + " is not an ESDW log";
  } else if (has_version && version != kWalFormatVersion) {
    out.status = WalHeader::kBad;
    out.error = "bad wal header: " + path + " has unsupported version " +
                std::to_string(version) + " (only version " +
                std::to_string(kWalFormatVersion) + " loads)";
  } else if (got < sizeof(header)) {
    out.status = got == 0 ? WalHeader::kEmpty : WalHeader::kTorn;
    out.error = "wal file " + path + " has a torn header; run recovery first";
  } else if (const uint32_t raw = DecodeU32(header + 8);
             !core::ValidScorerKind(raw)) {
    out.status = WalHeader::kBad;
    out.error = "bad wal header: " + path + " names unknown scorer id " +
                std::to_string(raw);
  } else {
    out.status = WalHeader::kOk;
    out.scorer = static_cast<core::ScorerKind>(raw);
  }
  return out;
}

}  // namespace

const char* UpdateKindName(UpdateKind kind) {
  return kind == UpdateKind::kInsert ? "insert" : "delete";
}

const char* WalIoStatusName(WalIoStatus status) {
  switch (status) {
    case WalIoStatus::kOk:
      return "ok";
    case WalIoStatus::kNotOpen:
      return "not-open";
    case WalIoStatus::kIoError:
      return "io-error";
    case WalIoStatus::kShortWrite:
      return "short-write";
  }
  return "?";
}

const char* WalTailStatusName(WalTailStatus status) {
  switch (status) {
    case WalTailStatus::kClean:
      return "clean";
    case WalTailStatus::kTruncatedRecord:
      return "truncated-record";
    case WalTailStatus::kChecksumMismatch:
      return "checksum-mismatch";
    case WalTailStatus::kOversizedRecord:
      return "oversized-record";
    case WalTailStatus::kMalformedRecord:
      return "malformed-record";
    case WalTailStatus::kBadFileHeader:
      return "bad-file-header";
  }
  return "?";
}

bool ReplayWal(const std::string& path,
               const std::function<void(const WalRecord&)>& fn,
               WalReplayResult* result, std::string* error) {
  *result = WalReplayResult{};
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // A log that was never created replays as empty — the first Open()
    // writes it.
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 && errno == ENOENT) return true;
    return SetError(error, "cannot open wal file " + path);
  }

  const WalHeader header = ReadWalHeader(in, path);
  switch (header.status) {
    case WalHeader::kEmpty:
      return true;  // fresh log
    case WalHeader::kTorn:
      // The initial header write itself was torn; nothing was ever logged.
      result->tail = WalTailStatus::kTruncatedRecord;
      return true;
    case WalHeader::kBad:
      result->tail = WalTailStatus::kBadFileHeader;
      return SetError(error, header.error);
    case WalHeader::kOk:
      break;
  }
  result->scorer = header.scorer;
  result->valid_bytes = kWalFileHeaderBytes;

  // Fixed stack buffer: a corrupt length prefix can never over-allocate.
  char payload[kMaxWalRecordBytes];
  char rec_header[kWalRecordHeaderBytes];
  while (true) {
    in.read(rec_header, sizeof(rec_header));
    const std::streamsize hdr_got = in.gcount();
    if (hdr_got == 0) break;  // clean EOF
    if (hdr_got < static_cast<std::streamsize>(sizeof(rec_header))) {
      result->tail = WalTailStatus::kTruncatedRecord;
      return true;
    }
    const uint32_t len = DecodeU32(rec_header);
    const uint64_t stored_sum = DecodeU64(rec_header + 4);
    if (len > kMaxWalRecordBytes) {
      result->tail = WalTailStatus::kOversizedRecord;
      return true;
    }
    if (len != kWalPayloadBytes) {
      result->tail = WalTailStatus::kMalformedRecord;
      return true;
    }
    in.read(payload, len);
    if (in.gcount() < static_cast<std::streamsize>(len)) {
      result->tail = WalTailStatus::kTruncatedRecord;
      return true;
    }
    if (core::Fnv1a(payload, len) != stored_sum) {
      result->tail = WalTailStatus::kChecksumMismatch;
      return true;
    }
    const WalRecord rec = DecodePayload(payload);
    if (fn) fn(rec);
    ++result->records;
    result->last_seq = rec.seq;
    result->valid_bytes += kWalRecordHeaderBytes + len;
  }
  return true;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool WalWriter::Open(const std::string& path, std::string* error,
                     core::ScorerKind scorer) {
  Close();
  last_status_ = WalIoStatus::kOk;
  last_errno_ = 0;
  tail_dirty_ = false;
  if (const auto hit = ESD_FAILPOINT("wal.open")) {
    last_status_ = WalIoStatus::kIoError;
    last_errno_ = hit.error_code;
    return SetError(error, "cannot open wal file " + path + ": " +
                               std::strerror(hit.error_code) +
                               " [injected]");
  }
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    last_status_ = WalIoStatus::kIoError;
    last_errno_ = errno;
    return SetError(error, "cannot open wal file " + path + ": " +
                               std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    Close();
    return SetError(error, "cannot stat wal file " + path);
  }
  bytes_ = static_cast<uint64_t>(st.st_size);
  if (bytes_ == 0) {
    // Fresh log: the header stamped with the caller's scorer.
    char header[kWalFileHeaderBytes];
    std::memcpy(header, kWalMagic, sizeof(kWalMagic));
    EncodeU32(header + 4, kWalFormatVersion);
    EncodeU32(header + 8, static_cast<uint32_t>(scorer));
    const util::WriteResult wr = util::WriteFully(fd_, header, sizeof(header));
    eintr_retries_ += wr.eintr_retries;
    if (!wr.ok) {
      last_status_ =
          wr.short_write ? WalIoStatus::kShortWrite : WalIoStatus::kIoError;
      last_errno_ = wr.error_code;
      Close();
      return SetError(error, std::string("wal header write failed: ") +
                                 std::strerror(wr.error_code));
    }
    if (!Sync(error)) {
      Close();
      return false;
    }
    bytes_ = kWalFileHeaderBytes;
    return true;
  }
  // Verify we are appending to our own format, not someone else's file,
  // and to our own scorer's log, not another engine's. Nothing is written
  // to a file that fails either check.
  std::ifstream in(path, std::ios::binary);
  const WalHeader header = ReadWalHeader(in, path);
  if (header.status != WalHeader::kOk) {
    Close();
    return SetError(error, header.error);
  }
  if (header.scorer != scorer) {
    Close();
    return SetError(
        error, "wal scorer mismatch: " + path + " belongs to scorer '" +
                   std::string(core::ScorerKindName(header.scorer)) +
                   "' but this index uses '" +
                   std::string(core::ScorerKindName(scorer)) + "'");
  }
  return true;
}

/// Truncate the file back to bytes_ — the last record boundary — so a
/// retried Append() never strands torn bytes under a new record. O_APPEND
/// writes land at the (restored) end of file, so no seek is needed.
bool WalWriter::RepairTail(std::string* error) {
  if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
    tail_dirty_ = true;
    return SetError(error, std::string("wal tail repair failed: ") +
                               std::strerror(errno));
  }
  tail_dirty_ = false;
  return true;
}

bool WalWriter::Append(const WalRecord& record, std::string* error) {
  if (fd_ < 0) {
    last_status_ = WalIoStatus::kNotOpen;
    return SetError(error, "wal writer is not open");
  }
  if (tail_dirty_ && !RepairTail(error)) {
    last_status_ = WalIoStatus::kIoError;
    last_errno_ = errno;
    return false;
  }
  if (const auto hit = ESD_FAILPOINT("wal.append")) {
    last_status_ = WalIoStatus::kIoError;
    last_errno_ = hit.error_code;
    return SetError(error, std::string("wal write failed: ") +
                               std::strerror(hit.error_code) + " [injected]");
  }
  char buf[kWalRecordHeaderBytes + kWalPayloadBytes];
  EncodePayload(record, buf + kWalRecordHeaderBytes);
  EncodeU32(buf, kWalPayloadBytes);
  EncodeU64(buf + 4, core::Fnv1a(buf + kWalRecordHeaderBytes,
                                 kWalPayloadBytes));
  const util::WriteResult wr =
      util::WriteFully(fd_, buf, sizeof(buf), "wal.short_write");
  eintr_retries_ += wr.eintr_retries;
  if (!wr.ok) {
    last_status_ =
        wr.short_write ? WalIoStatus::kShortWrite : WalIoStatus::kIoError;
    last_errno_ = wr.error_code;
    // Drop whatever partial bytes reached the file; ignore the repair's
    // own error string so the caller sees the root cause, but keep the
    // dirty flag for the next attempt if it failed.
    if (wr.bytes_written > 0 || wr.short_write) RepairTail(nullptr);
    if (wr.short_write) {
      return SetError(error,
                      tail_dirty_
                          ? "wal write torn mid-record; tail repair failed"
                          : "wal write torn mid-record; tail repaired");
    }
    return SetError(error, std::string("wal write failed: ") +
                               std::strerror(wr.error_code));
  }
  last_status_ = WalIoStatus::kOk;
  last_errno_ = 0;
  bytes_ += sizeof(buf);
  return true;
}

bool WalWriter::Sync(std::string* error) {
  if (fd_ < 0) {
    last_status_ = WalIoStatus::kNotOpen;
    return SetError(error, "wal writer is not open");
  }
  if (const auto hit = ESD_FAILPOINT("wal.fsync")) {
    last_status_ = WalIoStatus::kIoError;
    last_errno_ = hit.error_code;
    return SetError(error, std::string("wal fsync failed: ") +
                               std::strerror(hit.error_code) + " [injected]");
  }
  if (::fsync(fd_) != 0) {
    last_status_ = WalIoStatus::kIoError;
    last_errno_ = errno;
    return SetError(error,
                    std::string("wal fsync failed: ") + std::strerror(errno));
  }
  last_status_ = WalIoStatus::kOk;
  last_errno_ = 0;
  return true;
}

bool WalWriter::TruncateAll(std::string* error) {
  if (fd_ < 0) {
    last_status_ = WalIoStatus::kNotOpen;
    return SetError(error, "wal writer is not open");
  }
  if (const auto hit = ESD_FAILPOINT("wal.truncate")) {
    last_status_ = WalIoStatus::kIoError;
    last_errno_ = hit.error_code;
    return SetError(error, std::string("wal truncate failed: ") +
                               std::strerror(hit.error_code) + " [injected]");
  }
  if (::ftruncate(fd_, static_cast<off_t>(kWalFileHeaderBytes)) != 0) {
    last_status_ = WalIoStatus::kIoError;
    last_errno_ = errno;
    return SetError(error, std::string("wal truncate failed: ") +
                               std::strerror(errno));
  }
  bytes_ = kWalFileHeaderBytes;
  tail_dirty_ = false;
  return Sync(error);
}

}  // namespace esd::live
