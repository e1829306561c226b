#include "util/posix_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "fault/failpoint.h"

namespace esd::util {

namespace {

/// Bounded so a signal storm (or an EINTR-injecting fail point left on
/// forever) degrades into a typed error instead of an unkillable loop.
constexpr uint64_t kMaxEintrRetries = 1024;
constexpr int kMaxZeroProgressWrites = 8;

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

// Evaluates the fail point `<prefix>.<step>`.
fault::FaultHit StepFault(std::string_view prefix, const char* step) {
  (void)prefix;  // the macro discards its argument under ESD_FAULT=OFF
  (void)step;
  return ESD_FAILPOINT(std::string(prefix) + "." + step);
}

}  // namespace

WriteResult WriteFully(int fd, const char* data, size_t n,
                       const char* short_write_failpoint) {
  WriteResult result;
#if ESD_FAULT_ENABLED
  if (short_write_failpoint != nullptr) {
    if (const fault::FaultHit hit = fault::Evaluate(short_write_failpoint);
        hit.fired) {
      // Simulate the kernel accepting only part of the buffer: the torn
      // bytes genuinely land on disk so repair paths are exercised.
      size_t want = n / 2;
      while (want > 0) {
        const ssize_t w = ::write(fd, data, want);
        if (w <= 0) break;
        data += w;
        want -= static_cast<size_t>(w);
        result.bytes_written += static_cast<size_t>(w);
      }
      result.short_write = true;
      return result;
    }
  }
#else
  (void)short_write_failpoint;
#endif
  int zero_streak = 0;
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) {
        if (++result.eintr_retries > kMaxEintrRetries) {
          result.error_code = EINTR;
          return result;
        }
        continue;
      }
      result.error_code = errno;
      return result;
    }
    if (w == 0) {
      if (++zero_streak >= kMaxZeroProgressWrites) {
        result.short_write = true;
        return result;
      }
      continue;
    }
    zero_streak = 0;
    data += w;
    n -= static_cast<size_t>(w);
    result.bytes_written += static_cast<size_t>(w);
  }
  result.ok = true;
  return result;
}

bool WriteFileAtomically(const std::string& path, std::string_view bytes,
                         std::string_view failpoint_prefix, std::string* error,
                         const DirFsyncFailureHandler& on_dir_fsync_failure) {
  const std::string what(failpoint_prefix);
  const std::string tmp = path + ".tmp";
  if (const auto hit = StepFault(what, "open")) {
    return SetError(error, "cannot open " + tmp + " for writing: " +
                               std::strerror(hit.error_code) + " [injected]");
  }
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return SetError(error, "cannot open " + tmp + " for writing: " +
                               std::strerror(errno));
  }
  if (const auto hit = StepFault(what, "write")) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return SetError(error, what + " write failed: " +
                               std::strerror(hit.error_code) + " [injected]");
  }
  const WriteResult wr = WriteFully(fd, bytes.data(), bytes.size(),
                                    (what + ".short_write").c_str());
  if (!wr.ok) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return SetError(error, wr.short_write
                               ? what + " write torn mid-file"
                               : what + " write failed: " +
                                     std::strerror(wr.error_code));
  }
  bool synced = ::fsync(fd) == 0;
  if (const auto hit = StepFault(what, "fsync")) {
    synced = false;
    errno = hit.error_code;
  }
  ::close(fd);
  if (!synced) {
    ::unlink(tmp.c_str());
    return SetError(error, what + " fsync failed: " + std::strerror(errno));
  }
  if (const auto hit = StepFault(what, "rename")) {
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
  if (const auto hit = StepFault(what, "dir_fsync")) {
    dir_fsync_errno = hit.error_code;
  }
  if (dir_fsync_errno != 0 && on_dir_fsync_failure) {
    on_dir_fsync_failure(dir, dir_fsync_errno);
  }
  return true;
}

}  // namespace esd::util
