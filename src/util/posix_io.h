#ifndef ESD_UTIL_POSIX_IO_H_
#define ESD_UTIL_POSIX_IO_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace esd::util {

/// Outcome of one WriteFully call, typed so callers can distinguish a
/// plain IO error (errno in error_code) from a short write that made no
/// progress (short_write, no errno — the kernel accepted part of the
/// buffer and then stalled, or a wal.short_write-style fail point
/// simulated exactly that).
struct WriteResult {
  bool ok = false;
  bool short_write = false;
  int error_code = 0;        ///< errno of the failing write (0 otherwise)
  uint64_t eintr_retries = 0;
  size_t bytes_written = 0;  ///< bytes actually handed to the kernel

  explicit operator bool() const { return ok; }
};

/// write() until every byte is accepted. EINTR is retried explicitly (and
/// counted; a pathological signal storm gives up as an EINTR error after a
/// large bounded number of retries). A write() that repeatedly returns
/// zero progress gives up with the typed short_write outcome instead of
/// spinning. `short_write_failpoint`, when non-null, names an
/// ESD_FAILPOINT evaluated on entry; if it fires, half the buffer is
/// written for real and the call returns short_write — the torn-bytes
/// case durable-log writers must repair (see WalWriter::Append).
WriteResult WriteFully(int fd, const char* data, size_t n,
                       const char* short_write_failpoint = nullptr);

/// Called with the directory and errno when the post-rename directory
/// fsync of WriteFileAtomically fails.
using DirFsyncFailureHandler =
    std::function<void(const std::string& dir, int error_code)>;

/// Durable whole-file replace: writes `bytes` to `path`.tmp in the same
/// directory, fsyncs and closes it, renames it over `path`, then fsyncs the
/// directory. A crash or a failed step at any point leaves either the old
/// file or the new one, never a torn mix: on failure the tmp file is
/// removed, *error names the step, and false is returned. Each step has a
/// fail point named `<failpoint_prefix>.open`, `.write`, `.short_write`,
/// `.fsync`, `.rename` and `.dir_fsync`. A failed directory fsync does not
/// fail the call (the bytes are durable; only the rename's directory entry
/// may not survive a power cut): it goes to `on_dir_fsync_failure`, if set.
bool WriteFileAtomically(const std::string& path, std::string_view bytes,
                         std::string_view failpoint_prefix, std::string* error,
                         const DirFsyncFailureHandler& on_dir_fsync_failure =
                             {});

}  // namespace esd::util

#endif  // ESD_UTIL_POSIX_IO_H_
