#include "core/index_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <span>
#include <utility>

#include "core/binary_format.h"
#include "fault/failpoint.h"
#include "util/posix_io.h"

namespace esd::core {

namespace {

/// Shared by the path-based entry points: a fired index_io.save /
/// index_io.load fail point turns into the same typed "cannot open"-style
/// error a real filesystem failure would produce.
bool InjectedIoError(const char* point, const std::string& path,
                     const char* verb, std::string* error) {
  (void)point;  // the macro discards its argument under ESD_FAULT=OFF
  if (const auto hit = ESD_FAILPOINT(point)) {
    if (error != nullptr) {
      *error = std::string("cannot ") + verb + " " + path + ": " +
               std::strerror(hit.error_code) + " [injected]";
    }
    return true;
  }
  return false;
}

// The checksumming Reader/Writer pair and its hardened length-prefix
// handling live in core/binary_format.h, shared with the live-index
// snapshot and WAL formats.
using Reader = BinaryReader;
using Writer = BinaryWriter;

constexpr char kMagic[4] = {'E', 'S', 'D', 'X'};
constexpr uint32_t kIndexFormatVersion = 4;  // scorer id + frozen arrays

IndexIoResult Fail(IndexIoStatus status, std::string message) {
  return IndexIoResult{status, std::move(message)};
}

IndexIoResult FormatError(std::string message) {
  return Fail(IndexIoStatus::kFormatError, std::move(message));
}

/// Reads magic + version (the un-checksummed preamble).
IndexIoResult ReadVersionHeader(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return FormatError("bad magic: not an ESDIndex file");
  }
  uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) return FormatError("truncated index file");
  if (v != kIndexFormatVersion) {
    return FormatError("unsupported index version " + std::to_string(v) +
                       " (only version " +
                       std::to_string(kIndexFormatVersion) + " loads)");
  }
  return {};
}

/// Reads the scorer id (first checksummed field). A raw value that is not
/// a known ScorerKind is the typed kUnknownScorer error — the payload that
/// follows cannot be trusted to mean anything.
IndexIoResult ReadScorerField(Reader& r, ScorerKind* out) {
  uint32_t raw = 0;
  if (!r.Get(&raw)) return FormatError("truncated index file");
  if (!ValidScorerKind(raw)) {
    return Fail(
        IndexIoStatus::kUnknownScorer,
        "unknown scorer id " + std::to_string(raw) + " in index file");
  }
  *out = static_cast<ScorerKind>(raw);
  return {};
}

/// The kScorerMismatch error, emitted only after the checksum verified —
/// so "mismatch" always means a well-formed file of another scorer, never
/// a corrupt one.
IndexIoResult CheckExpectedScorer(ScorerKind got, ScorerKind expected) {
  if (got == expected) return {};
  return Fail(IndexIoStatus::kScorerMismatch,
              std::string("scorer mismatch: index file was built for '") +
                  std::string(ScorerKindName(got)) + "' (id " +
                  std::to_string(static_cast<uint32_t>(got)) +
                  ") but this engine expects '" +
                  std::string(ScorerKindName(expected)) + "' (id " +
                  std::to_string(static_cast<uint32_t>(expected)) + ")");
}

/// Reads the frozen payload (after the header/scorer) and verifies the
/// checksum. The parts still need FrozenEsdIndex::Adopt validation.
IndexIoResult ReadFrozenPayload(std::istream& in, Reader& r,
                                FrozenEsdIndex::Parts* out) {
  FrozenEsdIndex::Parts parts;
  if (!r.GetArray(&parts.edges) || !r.GetArray(&parts.live) ||
      !r.GetArray(&parts.size_offsets) || !r.GetArray(&parts.size_pool) ||
      !r.GetArray(&parts.sizes) || !r.GetArray(&parts.offsets) ||
      !r.GetArray(&parts.entries)) {
    return FormatError(r.error() != nullptr ? r.error()
                                            : "truncated index file");
  }
  uint64_t stored_checksum = 0;
  in.read(reinterpret_cast<char*>(&stored_checksum), sizeof(stored_checksum));
  if (!in || stored_checksum != r.checksum()) {
    return FormatError("checksum mismatch: index file corrupt");
  }
  *out = std::move(parts);
  return {};
}

}  // namespace

bool SerializeFrozenIndex(const FrozenEsdIndex& index, std::ostream& out,
                          std::string* error) {
  out.write(kMagic, sizeof(kMagic));
  uint32_t version = kIndexFormatVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));

  // A default-constructed index has empty offset arrays; serialize the
  // canonical single-zero tables so the file always round-trips through
  // Adopt's invariants.
  static constexpr uint64_t kZeroOffset = 0;
  std::span<const uint64_t> size_offsets = index.SizeOffsets();
  if (size_offsets.empty()) size_offsets = std::span(&kZeroOffset, 1);
  std::span<const uint64_t> slab_offsets = index.SlabOffsets();
  if (slab_offsets.empty()) slab_offsets = std::span(&kZeroOffset, 1);

  Writer w(out);
  w.Put(static_cast<uint32_t>(index.Scorer()));
  w.PutArray(index.Edges());
  w.PutArray(index.LiveMask());
  w.PutArray(size_offsets);
  w.PutArray(index.SizePool());
  w.PutArray(index.Sizes());
  w.PutArray(slab_offsets);
  w.PutArray(index.Entries());
  uint64_t checksum = w.checksum();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failure while serializing index";
    return false;
  }
  return true;
}

IndexIoResult DeserializeFrozenIndex(std::istream& in, FrozenEsdIndex* index,
                                     ScorerKind expected_scorer) {
  if (IndexIoResult res = ReadVersionHeader(in); !res) return res;
  Reader r(in);
  ScorerKind scorer = ScorerKind::kEsd;
  if (IndexIoResult res = ReadScorerField(r, &scorer); !res) return res;
  FrozenEsdIndex::Parts parts;
  if (IndexIoResult res = ReadFrozenPayload(in, r, &parts); !res) return res;
  if (IndexIoResult res = CheckExpectedScorer(scorer, expected_scorer);
      !res) {
    return res;
  }
  parts.scorer = scorer;
  std::string adopt_error;
  if (!FrozenEsdIndex::Adopt(std::move(parts), index, &adopt_error)) {
    return FormatError(std::move(adopt_error));
  }
  return {};
}

bool SaveFrozenIndex(const FrozenEsdIndex& index, const std::string& path,
                     std::string* error) {
  if (InjectedIoError("index_io.save", path, "write", error)) return false;
  // Serialized in memory first so the file is replaced in one rename: a
  // failed save leaves the previous index whole.
  std::ostringstream out(std::ios::binary);
  if (!SerializeFrozenIndex(index, out, error)) return false;
  return util::WriteFileAtomically(path, std::move(out).str(), "index_io",
                                   error);
}

IndexIoResult LoadFrozenIndex(const std::string& path, FrozenEsdIndex* index,
                              ScorerKind expected_scorer) {
  std::string injected;
  if (InjectedIoError("index_io.load", path, "read", &injected)) {
    return Fail(IndexIoStatus::kIoError, std::move(injected));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(IndexIoStatus::kIoError, "cannot open " + path);
  return DeserializeFrozenIndex(in, index, expected_scorer);
}

}  // namespace esd::core
