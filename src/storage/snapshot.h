// Snapshot: save/open an entire dictionary + triple store as one
// checksummed paged file (format.h).
//
// The contract is byte-identity: a store opened from a snapshot is
// indistinguishable from the fresh load that produced it — same TermIds
// (terms are re-interned in id order), same index runs (adopted verbatim,
// never re-sorted), same derived statistics (recomputed by the same code
// path Finalize uses). tests/storage_snapshot_test.cc enforces this
// differentially, down to classify/run/explain output bytes.
//
// `app_meta` is an opaque blob the storage layer round-trips untouched;
// the server layer uses it for workload metadata (generator entity lists)
// so `serve --snapshot` can rebuild templates without re-generating.
#ifndef RDFPARAMS_STORAGE_SNAPSHOT_H_
#define RDFPARAMS_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "storage/format.h"
#include "storage/snapshot_file.h"
#include "util/status.h"

namespace rdfparams::storage {

struct SaveOptions {
  uint32_t page_size = kDefaultPageSize;
  /// On-disk format to write. 2 (default) serializes the dictionary's raw
  /// arena/records/hash sections; 1 writes the legacy byte-stream
  /// dictionary for downgrade compatibility.
  uint32_t format_version = kFormatVersion;
};

/// Filled by Open when OpenOptions::stats is set: which path ran and where
/// the time went. Phase seconds are wall-clock (steady_clock).
struct OpenStats {
  uint32_t format_version = 0;
  bool mmap_used = false;
  double checksum_seconds = 0;  ///< whole-file CRC pass over the image
  double dict_seconds = 0;      ///< dictionary restore (re-intern or adopt)
  double runs_seconds = 0;      ///< index-run decode + adoption
  double meta_seconds = 0;      ///< app-meta read
};

struct OpenOptions {
  /// Verify the footer's whole-file CRC over the image before decoding
  /// anything; nothing is checked again afterwards. Catches flips in
  /// padding and page CRC fields that per-page checks cannot see. When
  /// off, each page CRC and raw-section CRC is checked before its bytes
  /// are used instead.
  bool verify_file_checksum = true;
  /// How the file's image is loaded (see MmapMode).
  MmapMode mmap = MmapMode::kAuto;
  /// When non-null, receives open-path statistics and phase timings.
  OpenStats* stats = nullptr;
};

/// Everything a snapshot restores.
struct OpenedSnapshot {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  std::string app_meta;       ///< empty when has_app_meta is false
  bool has_app_meta = false;  ///< whether the file carried an app-meta section
};

/// Decoded header plus file facts, for the CLI `open` (inspect) verb.
struct SnapshotInfo {
  SnapshotHeader header;
  uint64_t file_size = 0;
};

class Snapshot {
 public:
  /// Writes `dict` + `store` (+ optional `app_meta`, skipped when empty) to
  /// `path` atomically (temp file + rename). The store must be finalized;
  /// all built index runs are serialized, and the all-indexes flag records
  /// which set. Fails without touching `path` on any error.
  [[nodiscard]] static Status Save(const rdf::Dictionary& dict,
                     const rdf::TripleStore& store, std::string_view app_meta,
                     const std::string& path, const SaveOptions& options = {});

  /// Opens a snapshot: loads the file as one image (SnapshotFile),
  /// verifies checksums, restores the dictionary (v2: adopts the raw
  /// arena/records/hash sections verbatim, borrowed from the mapping when
  /// mmap'd, copied otherwise; v1: re-interns in id order), adopts the
  /// index runs, and returns the restored parts. Output is byte-identical
  /// across format versions and open modes. Any corruption or format
  /// violation is a clean DataLoss / ParseError — never a crash or a
  /// silently wrong store.
  [[nodiscard]] static Result<OpenedSnapshot> Open(const std::string& path,
                                     const OpenOptions& options = {});

  /// Validates checksums and returns the decoded header without restoring
  /// the store (the cheap integrity check behind the CLI `open` verb).
  [[nodiscard]] static Result<SnapshotInfo> Inspect(const std::string& path);
};

}  // namespace rdfparams::storage

#endif  // RDFPARAMS_STORAGE_SNAPSHOT_H_
