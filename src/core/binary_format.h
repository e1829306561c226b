#ifndef ESD_CORE_BINARY_FORMAT_H_
#define ESD_CORE_BINARY_FORMAT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ios>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <type_traits>
#include <vector>

namespace esd::core {

// Whole slabs move through single stream ops; a narrowing cast (e.g.
// through `long`, 32-bit on LLP64 targets) would silently truncate >2 GiB
// blocks. std::streamsize must cover any in-memory block size.
static_assert(sizeof(std::streamsize) >= sizeof(size_t),
              "std::streamsize narrower than size_t: block IO would truncate");

/// Running FNV-1a over serialized payload bytes — the shared checksum of
/// every on-disk format in this repo (index files, snapshots, WAL records).
class Checksummer {
 public:
  void Feed(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// One-shot FNV-1a of a byte block (the WAL's per-record checksum).
inline uint64_t Fnv1a(const void* data, size_t n) {
  Checksummer sum;
  sum.Feed(data, n);
  return sum.value();
}

/// Checksumming stream writer shared by the binary formats (index files,
/// live snapshots). Values are written in native byte order.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(&value), sizeof(value));
    sum_.Feed(&value, sizeof(value));
  }
  void PutRaw(const void* data, size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    sum_.Feed(data, n);
  }
  /// Length-prefixed contiguous block: u64 element count, then the elements
  /// as one raw write.
  template <typename T>
  void PutArray(std::span<const T> a) {
    static_assert(std::is_trivially_copyable_v<T>);
    Put(static_cast<uint64_t>(a.size()));
    if (!a.empty()) PutRaw(a.data(), a.size() * sizeof(T));
  }
  uint64_t checksum() const { return sum_.value(); }
  bool ok() const { return static_cast<bool>(out_); }

 private:
  std::ostream& out_;
  Checksummer sum_;
};

/// Checksumming stream reader, hardened against corrupt or hostile files:
/// GetArray never trusts a length prefix with an allocation (see below).
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(in) {}

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    in_.read(reinterpret_cast<char*>(value), sizeof(T));
    if (!in_) return false;
    sum_.Feed(value, sizeof(T));
    return true;
  }
  bool GetRaw(void* data, size_t n) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (!in_) return false;
    sum_.Feed(data, n);
    return true;
  }
  /// Length-prefixed block, the inverse of BinaryWriter::PutArray. The
  /// element count comes straight from a possibly corrupt or hostile file,
  /// so it is never trusted with an allocation: when the stream length is
  /// known, a count exceeding the remaining bytes is rejected up front, and
  /// the payload is then read in bounded chunks so even an unseekable
  /// stream can only make us allocate one chunk past the bytes it actually
  /// holds.
  template <typename T>
  bool GetArray(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    if (!Get(&n)) return false;
    if (n > RemainingBytes() / sizeof(T)) {
      error_ = "corrupt index file: array length exceeds remaining bytes";
      return false;
    }
    out->clear();
    constexpr uint64_t kChunkElems =
        std::max<uint64_t>(1, (uint64_t{1} << 20) / sizeof(T));
    for (uint64_t done = 0; done < n;) {
      const uint64_t take = std::min(n - done, kChunkElems);
      out->resize(static_cast<size_t>(done + take));
      if (!GetRaw(out->data() + done, static_cast<size_t>(take) * sizeof(T))) {
        *out = {};
        error_ = "truncated index file: array shorter than its length prefix";
        return false;
      }
      done += take;
    }
    return true;
  }
  uint64_t checksum() const { return sum_.value(); }
  /// Parse-error detail from the last failing GetArray, or nullptr when the
  /// failure was a plain stream error.
  const char* error() const { return error_; }

 private:
  /// Bytes left between the read position and the end of the stream, or
  /// uint64 max when the stream is unseekable (no length to check against).
  uint64_t RemainingBytes() {
    const std::streampos cur = in_.tellg();
    if (cur == std::streampos(-1)) {
      return std::numeric_limits<uint64_t>::max();
    }
    in_.seekg(0, std::ios::end);
    const std::streampos end = in_.tellg();
    in_.seekg(cur);
    if (end == std::streampos(-1) || end < cur) return 0;
    return static_cast<uint64_t>(end - cur);
  }

  std::istream& in_;
  Checksummer sum_;
  const char* error_ = nullptr;
};

}  // namespace esd::core

#endif  // ESD_CORE_BINARY_FORMAT_H_
