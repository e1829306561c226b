#ifndef ESD_CORE_INDEX_IO_H_
#define ESD_CORE_INDEX_IO_H_

#include <iosfwd>
#include <string>

#include "core/frozen_index.h"
#include "core/scorer.h"

namespace esd::core {

/// Binary serialization of the index, so a built index can be persisted
/// and loaded by later processes (the paper's motivating deployment: build
/// once in ~minutes, then answer queries in milliseconds forever).
///
/// One on-disk format, version 4: magic "ESDX" + u32 version (4), then a
/// checksummed payload — u32 scorer id (ScorerKind), followed by the seven
/// FrozenEsdIndex arrays written verbatim as length-prefixed contiguous
/// blocks (edges, live mask, multiset CSR offsets + pool, distinct sizes C,
/// slab offsets, slab entries) — and a trailing u64 FNV-1a checksum.
/// Contiguous writes, mmap-friendly layout, and a load path that is
/// validation + adoption — no rebuild step. Every other version number is
/// refused as kFormatError naming the version found.
///
/// The treap engine persists through the same file: save Freeze(index),
/// load Thaw(loaded). Both preserve the edge-id layout, freed slots and
/// scorer stamp.

/// Typed outcome of a checked load/save, so callers can distinguish "the
/// disk is broken" from "this file belongs to a different scorer".
enum class IndexIoStatus {
  kOk = 0,
  kIoError,         // cannot open / write failure (incl. injected faults)
  kFormatError,     // bad magic, version, truncation, checksum, validation
  kScorerMismatch,  // well-formed file, but built for a different scorer
  kUnknownScorer,   // scorer id field is not any known ScorerKind
};

struct IndexIoResult {
  IndexIoStatus status = IndexIoStatus::kOk;
  std::string message;  // empty on kOk
  explicit operator bool() const { return status == IndexIoStatus::kOk; }
};

/// Writes `index` stamped with its Scorer(), replacing `path` atomically
/// (util::WriteFileAtomically, fail points index_io.<step>): a failed save
/// leaves any previous file at `path` intact.
bool SaveFrozenIndex(const FrozenEsdIndex& index, const std::string& path,
                     std::string* error);
bool SerializeFrozenIndex(const FrozenEsdIndex& index, std::ostream& out,
                          std::string* error);

/// Loads a file written by SaveFrozenIndex, failing with kScorerMismatch
/// when its scorer id differs from `expected_scorer`.
IndexIoResult LoadFrozenIndex(const std::string& path, FrozenEsdIndex* index,
                              ScorerKind expected_scorer);
IndexIoResult DeserializeFrozenIndex(std::istream& in, FrozenEsdIndex* index,
                                     ScorerKind expected_scorer);

}  // namespace esd::core

#endif  // ESD_CORE_INDEX_IO_H_
