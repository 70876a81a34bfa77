// Fuzz harness for Snapshot::Open / Inspect (untrusted-input surface #3).
//
// The storage contract (storage/snapshot.h): any corruption or format
// violation is a clean DataLoss / ParseError — never a crash, hang, or
// silently wrong store. The harness materializes the input bytes as a
// snapshot file and opens it through the read path (MmapMode::kOff) with
// and without the whole-file checksum pass; inputs the strict pass accepts
// must also be accepted by the relaxed pass and restore identical store
// shapes. The zero-copy (mmap) open is run as a differential arm against
// the read path: on any accepted input both must restore the same
// dictionary and store.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "storage/snapshot.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace {

const std::string& TempPath() {
  static const std::string* path = [] {
    const char* dir = getenv("TMPDIR");
    std::string base = dir != nullptr && dir[0] != '\0' ? dir : "/tmp";
    return new std::string(base + "/rdfparams_fuzz_snapshot_" +
                           std::to_string(getpid()) + ".snap");
  }();
  return *path;
}

bool WriteInput(const uint8_t* data, size_t size) {
  std::FILE* f = std::fopen(TempPath().c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = size == 0 || std::fwrite(data, 1, size, f) == size;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using rdfparams::storage::OpenOptions;
  using rdfparams::storage::Snapshot;
  if (size > (4u << 20)) return 0;
  if (!WriteInput(data, size)) return 0;  // fs trouble, not a target bug

  // Inspect: cheap structural + checksum validation, must terminate
  // cleanly on arbitrary bytes.
  auto info = Snapshot::Inspect(TempPath());
  rdfparams::util::IgnoreStatus(info, "fuzz probe: crash/hang check only");

  // Both read-path arms pin kOff: kAuto would map on most platforms and
  // leave the differential below comparing mmap with mmap.
  OpenOptions strict;
  strict.verify_file_checksum = true;
  strict.mmap = rdfparams::storage::MmapMode::kOff;
  auto opened = Snapshot::Open(TempPath(), strict);

  OpenOptions relaxed;
  relaxed.verify_file_checksum = false;
  relaxed.mmap = rdfparams::storage::MmapMode::kOff;
  auto reopened = Snapshot::Open(TempPath(), relaxed);

  if (opened.ok()) {
    // The strict pass only adds checks, so its accepts are a subset.
    if (!reopened.ok()) std::abort();
    if (reopened->dict.size() != opened->dict.size()) std::abort();
    if (reopened->store.size() != opened->store.size()) std::abort();
    if (reopened->has_app_meta != opened->has_app_meta) std::abort();
    if (reopened->app_meta != opened->app_meta) std::abort();
    // A file Open accepts must also pass Inspect.
    if (!info.ok()) std::abort();
  }

  // Differential arm: zero-copy vs read path. Forced-mmap accepts must
  // match the read-path open exactly (kAuto would hide Map failures).
  if (rdfparams::util::MmapFile::Supported()) {
    OpenOptions mmapped = strict;
    mmapped.mmap = rdfparams::storage::MmapMode::kOn;
    auto borrowed = Snapshot::Open(TempPath(), mmapped);
    if (borrowed.ok() != opened.ok()) std::abort();
    if (borrowed.ok()) {
      if (borrowed->dict.size() != opened->dict.size()) std::abort();
      for (uint32_t id = 0; id < opened->dict.size(); ++id) {
        if (borrowed->dict.term(id) != opened->dict.term(id)) std::abort();
      }
      if (borrowed->store.size() != opened->store.size()) std::abort();
      if (borrowed->app_meta != opened->app_meta) std::abort();
    }
  }
  return 0;
}
