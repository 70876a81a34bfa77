#include "storage/snapshot.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "storage/snapshot_file.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/file_io.h"

namespace rdfparams::storage {

namespace {

/// Streams section payloads as sealed pages: fills one page buffer, seals
/// it with its page CRC, folds the sealed bytes into the running file CRC,
/// and appends it to the writer. EndSection zero-pads and flushes the
/// partial page so the next section starts on a fresh page.
class PageWriter {
 public:
  PageWriter(util::SequentialFileWriter* out, uint32_t page_size)
      : out_(out), page_(page_size, 0), payload_size_(PayloadSize(page_size)) {}

  uint64_t next_page() const { return next_page_; }
  uint32_t file_crc() const { return file_crc_; }

  /// Byte-stream discipline: bytes straddle pages freely.
  Status AppendBytes(const void* data, size_t n) {
    const uint8_t* src = static_cast<const uint8_t*>(data);
    while (n > 0) {
      size_t chunk = std::min(n, payload_size_ - pos_);
      std::memcpy(page_.data() + kPageCrcBytes + pos_, src, chunk);
      src += chunk;
      pos_ += chunk;
      n -= chunk;
      if (pos_ == payload_size_) RDFPARAMS_RETURN_NOT_OK(FlushPage());
    }
    return Status::OK();
  }

  /// Record discipline: the record never straddles a page.
  Status AppendRecord(const void* data, size_t n) {
    RDFPARAMS_DCHECK(n <= payload_size_);
    if (payload_size_ - pos_ < n) RDFPARAMS_RETURN_NOT_OK(FlushPage());
    std::memcpy(page_.data() + kPageCrcBytes + pos_, data, n);
    pos_ += n;
    return Status::OK();
  }

  /// Flushes the trailing partial page (zero padding already in place).
  Status EndSection() {
    if (pos_ > 0) RDFPARAMS_RETURN_NOT_OK(FlushPage());
    return Status::OK();
  }

  /// Raw discipline: `bytes` fill whole pages verbatim — no per-page CRC
  /// field — so the section is contiguous in the file and mmap-adoptable.
  /// The pages still count into the whole-file CRC like any others;
  /// per-section integrity is the table entry's own CRC32.
  Status AppendRawSection(std::string_view bytes) {
    RDFPARAMS_DCHECK(pos_ == 0);
    size_t off = 0;
    while (off < bytes.size()) {
      size_t chunk = std::min(page_.size(), bytes.size() - off);
      std::memcpy(page_.data(), bytes.data() + off, chunk);
      if (chunk < page_.size()) {
        std::memset(page_.data() + chunk, 0, page_.size() - chunk);
      }
      file_crc_ = util::Crc32Extend(file_crc_, page_.data(), page_.size());
      RDFPARAMS_RETURN_NOT_OK(out_->Append(page_.data(), page_.size()));
      ++next_page_;
      off += chunk;
    }
    std::memset(page_.data(), 0, page_.size());
    return Status::OK();
  }

  /// Writes one standalone page (header / footer) whose payload is
  /// `payload` followed by zeros. `count_in_file_crc` is false only for
  /// the footer, which the file CRC does not cover.
  Status WritePage(std::string_view payload, bool count_in_file_crc) {
    RDFPARAMS_DCHECK(pos_ == 0 && payload.size() <= payload_size_);
    std::memcpy(page_.data() + kPageCrcBytes, payload.data(), payload.size());
    return FlushPage(count_in_file_crc);
  }

 private:
  Status FlushPage(bool count_in_file_crc = true) {
    SealPage(next_page_, page_);
    if (count_in_file_crc) {
      file_crc_ = util::Crc32Extend(file_crc_, page_.data(), page_.size());
    }
    RDFPARAMS_RETURN_NOT_OK(out_->Append(page_.data(), page_.size()));
    ++next_page_;
    pos_ = 0;
    std::memset(page_.data(), 0, page_.size());
    return Status::OK();
  }

  util::SequentialFileWriter* out_;
  std::vector<uint8_t> page_;
  size_t payload_size_;
  size_t pos_ = 0;
  uint64_t next_page_ = 0;
  uint32_t file_crc_ = 0;
};

uint64_t DictionaryByteLength(const rdf::Dictionary& dict) {
  uint64_t n = 0;
  for (size_t i = 0; i < dict.size(); ++i) {
    const rdf::TermView t = dict.term(static_cast<rdf::TermId>(i));
    n += 1 + 4 + t.lexical.size() + 4 + t.datatype.size() + 4 + t.lang.size();
  }
  return n;
}

std::vector<rdf::IndexOrder> SerializedOrders(bool all_indexes) {
  std::vector<rdf::IndexOrder> orders = {
      rdf::IndexOrder::kSPO, rdf::IndexOrder::kPOS, rdf::IndexOrder::kOSP};
  if (all_indexes) {
    orders.insert(orders.end(), {rdf::IndexOrder::kSOP, rdf::IndexOrder::kPSO,
                                 rdf::IndexOrder::kOPS});
  }
  return orders;
}

/// Walks the pages of a byte-stream or record section over the image,
/// handing `fn` each page's payload in order. With `verify_pages` each
/// page CRC is checked before its payload is used.
template <typename Fn>
Status ForEachPayload(const SnapshotFile& file, const SectionInfo& section,
                      bool verify_pages, Fn&& fn) {
  const uint64_t page_size = file.page_size();
  for (uint64_t i = 0; i < section.page_count; ++i) {
    const uint64_t page_id = section.first_page + i;
    std::span<const uint8_t> page =
        file.image().subspan(page_id * page_size, page_size);
    if (verify_pages) RDFPARAMS_RETURN_NOT_OK(VerifyPage(page_id, page));
    fn(page.subspan(kPageCrcBytes));
  }
  return Status::OK();
}

/// A byte-stream section's payloads concatenated up to its byte_length.
Result<std::string> GatherBytes(const SnapshotFile& file,
                                const SectionInfo& section,
                                bool verify_pages) {
  std::string out;
  out.reserve(section.byte_length);
  RDFPARAMS_RETURN_NOT_OK(ForEachPayload(
      file, section, verify_pages, [&](std::span<const uint8_t> payload) {
        uint64_t n = std::min<uint64_t>(payload.size(),
                                        section.byte_length - out.size());
        out.append(reinterpret_cast<const char*>(payload.data()),
                   static_cast<size_t>(n));
      }));
  return out;
}

/// A raw section's meaningful bytes, a view into the image. With
/// `verify_section` the section CRC is checked first.
Result<std::string_view> RawSection(const SnapshotFile& file,
                                    const SectionInfo& section,
                                    bool verify_section) {
  std::string_view bytes(
      reinterpret_cast<const char*>(file.image().data()) +
          section.first_page * file.page_size(),
      section.byte_length);
  if (verify_section &&
      util::Crc32Seeded(section.kind, bytes.data(), bytes.size()) !=
          section.crc32) {
    return Status::DataLoss(file.path() + ": section " +
                            std::to_string(section.kind) +
                            " checksum mismatch");
  }
  return bytes;
}

/// v1: re-intern terms in id order. Interning is what rebuilds the
/// id<->term maps; the id check catches duplicate terms in the stream.
Status DecodeDictionaryV1(std::string_view bytes, uint64_t count,
                          rdf::Dictionary* dict) {
  util::Decoder dec(bytes);
  dict->Reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    rdf::Term term;
    RDFPARAMS_ASSIGN_OR_RETURN(uint8_t kind, dec.ReadU8());
    if (kind > static_cast<uint8_t>(rdf::TermKind::kLiteral)) {
      return Status::ParseError("invalid term kind " + std::to_string(kind));
    }
    term.kind = static_cast<rdf::TermKind>(kind);
    RDFPARAMS_ASSIGN_OR_RETURN(term.lexical, dec.ReadLengthPrefixed());
    RDFPARAMS_ASSIGN_OR_RETURN(term.datatype, dec.ReadLengthPrefixed());
    RDFPARAMS_ASSIGN_OR_RETURN(term.lang, dec.ReadLengthPrefixed());
    if (dict->Intern(std::move(term)) != i) {
      return Status::ParseError("duplicate term in snapshot dictionary");
    }
  }
  if (!dec.done()) {
    return Status::ParseError("dictionary section has " +
                              std::to_string(dec.remaining()) +
                              " trailing bytes");
  }
  return Status::OK();
}

Status ReadIndexRun(const SnapshotFile& file, const SectionInfo& section,
                    bool verify_pages, size_t dict_size,
                    std::vector<rdf::Triple>* out) {
  // Page-at-a-time bulk decode: a straight memcpy of each page's
  // fixed-size records (the serialized form is exactly the in-memory
  // Triple layout on little-endian platforms), with one branch-free
  // max-scan for the id bounds check afterwards — measurably faster than
  // per-triple decode on multi-hundred-thousand-triple runs.
  static_assert(sizeof(rdf::Triple) == kTripleBytes);
  static_assert(std::is_trivially_copyable_v<rdf::Triple>);
  const uint64_t per_page = TriplesPerPage(file.page_size());
  out->clear();
  out->resize(section.item_count);
  uint64_t filled = 0;
  RDFPARAMS_RETURN_NOT_OK(ForEachPayload(
      file, section, verify_pages, [&](std::span<const uint8_t> payload) {
        const uint8_t* p = payload.data();
        uint64_t n = std::min<uint64_t>(per_page, section.item_count - filled);
        if constexpr (std::endian::native == std::endian::little) {
          std::memcpy(out->data() + filled, p, n * kTripleBytes);
        } else {
          for (uint64_t i = 0; i < n; ++i, p += kTripleBytes) {
            (*out)[filled + i] = rdf::Triple(
                util::LoadU32(p), util::LoadU32(p + 4), util::LoadU32(p + 8));
          }
        }
        filled += n;
      }));
  rdf::TermId max_id = 0;
  for (const rdf::Triple& t : *out) {
    max_id = std::max(max_id, std::max(t.s, std::max(t.p, t.o)));
  }
  if (!out->empty() && max_id >= dict_size) {
    return Status::ParseError("snapshot triple refers to term id beyond "
                              "dictionary (" +
                              std::to_string(dict_size) + " terms)");
  }
  return Status::OK();
}

}  // namespace

Status Snapshot::Save(const rdf::Dictionary& dict,
                      const rdf::TripleStore& store, std::string_view app_meta,
                      const std::string& path, const SaveOptions& options) {
  if (!store.finalized()) {
    return Status::InvalidArgument("cannot snapshot an unfinalized store");
  }
  if (!ValidPageSize(options.page_size)) {
    return Status::InvalidArgument("invalid snapshot page size " +
                                   std::to_string(options.page_size));
  }
  if (options.format_version < kMinFormatVersion ||
      options.format_version > kFormatVersion) {
    return Status::InvalidArgument("cannot write snapshot format version " +
                                   std::to_string(options.format_version));
  }
  const bool v2 = options.format_version >= 2;
  const uint32_t page_size = options.page_size;
  const uint64_t payload = PayloadSize(page_size);
  const uint64_t per_page = TriplesPerPage(page_size);
  const bool all_indexes = store.all_indexes_built();

  // Section table first: the header is page 0, so every extent must be
  // known before any payload is written.
  SnapshotHeader header;
  header.version = options.format_version;
  header.page_size = page_size;
  header.flags = all_indexes ? kFlagAllIndexes : 0;
  uint64_t next_page = 1;
  auto add_section = [&](uint32_t kind, uint64_t byte_length,
                         uint64_t item_count, uint64_t page_count) {
    SectionInfo s;
    s.kind = kind;
    s.byte_length = byte_length;
    s.item_count = item_count;
    s.page_count = page_count;
    s.first_page = page_count == 0 ? 0 : next_page;
    next_page += page_count;
    header.sections.push_back(s);
  };
  auto add_raw_section = [&](uint32_t kind, std::string_view bytes,
                             uint64_t item_count) {
    add_section(kind, bytes.size(), item_count,
                RawSectionPages(bytes.size(), page_size));
    header.sections.back().crc32 =
        util::Crc32Seeded(kind, bytes.data(), bytes.size());
  };

  // v2: the dictionary's wire sections, serialized verbatim. The hash
  // section must have the canonical capacity for size() terms so open-time
  // validation can demand the exact shape; rebuild it when the live table
  // was over-Reserved.
  std::string hash_rebuilt;
  std::string_view hash_bytes;
  uint64_t dict_bytes = 0;
  if (v2) {
    if (dict.hash_is_canonical()) {
      hash_bytes = dict.hash_slots();
    } else {
      hash_rebuilt = dict.BuildHashSlots(rdf::HashCapacityFor(dict.size()));
      hash_bytes = hash_rebuilt;
    }
    add_raw_section(kSectionDictArena, dict.arena(), 0);
    add_raw_section(kSectionDictRecords, dict.records(), dict.size());
    add_raw_section(kSectionDictHash, hash_bytes, 0);
  } else {
    dict_bytes = DictionaryByteLength(dict);
    add_section(kSectionDictionary, dict_bytes, dict.size(),
                (dict_bytes + payload - 1) / payload);
  }
  for (rdf::IndexOrder order : SerializedOrders(all_indexes)) {
    uint64_t n = store.IndexRun(order).size();
    add_section(SectionKindForIndex(order), n * kTripleBytes, n,
                (n + per_page - 1) / per_page);
  }
  if (!app_meta.empty()) {
    add_section(kSectionAppMeta, app_meta.size(), 0,
                (app_meta.size() + payload - 1) / payload);
  }
  header.page_count = next_page + 1;  // + footer

  RDFPARAMS_ASSIGN_OR_RETURN(auto file, util::SequentialFileWriter::Create(path));
  PageWriter writer(file.get(), page_size);

  RDFPARAMS_ASSIGN_OR_RETURN(std::string header_payload,
                             EncodeHeaderPayload(header));
  RDFPARAMS_RETURN_NOT_OK(writer.WritePage(header_payload, true));

  if (v2) {
    RDFPARAMS_RETURN_NOT_OK(writer.AppendRawSection(dict.arena()));
    RDFPARAMS_RETURN_NOT_OK(writer.AppendRawSection(dict.records()));
    RDFPARAMS_RETURN_NOT_OK(writer.AppendRawSection(hash_bytes));
  } else {
    // v1: terms in id order, each (kind u8, lexical, datatype, lang).
    std::string record;
    for (size_t i = 0; i < dict.size(); ++i) {
      const rdf::TermView t = dict.term(static_cast<rdf::TermId>(i));
      record.clear();
      util::AppendU8(&record, static_cast<uint8_t>(t.kind));
      util::AppendLengthPrefixed(&record, t.lexical);
      util::AppendLengthPrefixed(&record, t.datatype);
      util::AppendLengthPrefixed(&record, t.lang);
      RDFPARAMS_RETURN_NOT_OK(writer.AppendBytes(record.data(), record.size()));
    }
    RDFPARAMS_RETURN_NOT_OK(writer.EndSection());
  }

  for (rdf::IndexOrder order : SerializedOrders(all_indexes)) {
    uint8_t buf[kTripleBytes];
    for (const rdf::Triple& t : store.IndexRun(order)) {
      util::StoreU32(buf, t.s);
      util::StoreU32(buf + 4, t.p);
      util::StoreU32(buf + 8, t.o);
      RDFPARAMS_RETURN_NOT_OK(writer.AppendRecord(buf, kTripleBytes));
    }
    RDFPARAMS_RETURN_NOT_OK(writer.EndSection());
  }

  if (!app_meta.empty()) {
    RDFPARAMS_RETURN_NOT_OK(
        writer.AppendBytes(app_meta.data(), app_meta.size()));
    RDFPARAMS_RETURN_NOT_OK(writer.EndSection());
  }

  if (writer.next_page() != header.page_count - 1) {
    return Status::Internal("snapshot layout drifted from section table");
  }
  RDFPARAMS_RETURN_NOT_OK(writer.WritePage(
      EncodeFooterPayload(header.page_count, writer.file_crc()), false));
  return file->Finish();
}

Result<OpenedSnapshot> Snapshot::Open(const std::string& path,
                                      const OpenOptions& options) {
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  OpenStats discard;
  OpenStats& stats = options.stats != nullptr ? *options.stats : discard;
  stats = OpenStats();

  RDFPARAMS_ASSIGN_OR_RETURN(SnapshotFile file,
                             SnapshotFile::Open(path, options.mmap));
  const SnapshotHeader& header = file.header();
  stats.format_version = header.version;
  stats.mmap_used = file.mapping() != nullptr;

  // One verification rule in both modes: the whole-file CRC covers every
  // byte before the footer, so once it passes the image is decoded with
  // no further checks. Without it, each page CRC and raw-section CRC is
  // checked before its bytes are used.
  const bool verify_parts = !options.verify_file_checksum;
  if (options.verify_file_checksum) {
    Clock::time_point t0 = Clock::now();
    RDFPARAMS_RETURN_NOT_OK(file.VerifyFileChecksum());
    stats.checksum_seconds = seconds_since(t0);
  }

  OpenedSnapshot out;

  Clock::time_point t_dict = Clock::now();
  if (header.version >= 2) {
    // v2: adopt the dictionary's wire sections verbatim — borrowed views
    // into the mapping, or copies out of a read image (freed when Open
    // returns).
    const SectionInfo* arena_s = header.FindSection(kSectionDictArena);
    const SectionInfo* records_s = header.FindSection(kSectionDictRecords);
    const SectionInfo* hash_s = header.FindSection(kSectionDictHash);
    if (arena_s == nullptr || records_s == nullptr || hash_s == nullptr) {
      return Status::ParseError(path +
                                ": snapshot is missing a dictionary section");
    }
    RDFPARAMS_ASSIGN_OR_RETURN(std::string_view arena,
                               RawSection(file, *arena_s, verify_parts));
    RDFPARAMS_ASSIGN_OR_RETURN(std::string_view records,
                               RawSection(file, *records_s, verify_parts));
    RDFPARAMS_ASSIGN_OR_RETURN(std::string_view slots,
                               RawSection(file, *hash_s, verify_parts));
    if (file.mapping() != nullptr) {
      RDFPARAMS_ASSIGN_OR_RETURN(
          out.dict, rdf::Dictionary::Adopt(arena, records, slots,
                                           records_s->item_count,
                                           file.mapping()));
    } else {
      RDFPARAMS_ASSIGN_OR_RETURN(
          out.dict, rdf::Dictionary::Adopt(
                        std::string(arena), std::string(records),
                        std::string(slots), records_s->item_count));
    }
  } else {
    const SectionInfo* dict_section = header.FindSection(kSectionDictionary);
    if (dict_section == nullptr) {
      return Status::ParseError(path + ": snapshot has no dictionary section");
    }
    RDFPARAMS_ASSIGN_OR_RETURN(std::string bytes,
                               GatherBytes(file, *dict_section, verify_parts));
    Status decoded =
        DecodeDictionaryV1(bytes, dict_section->item_count, &out.dict);
    if (!decoded.ok()) {
      // A record running past the section end is a format error too.
      return Status::ParseError(path + ": " + decoded.message());
    }
  }
  stats.dict_seconds = seconds_since(t_dict);

  // Index runs, adopted verbatim (validated sorted by AdoptSortedRuns).
  Clock::time_point t_runs = Clock::now();
  std::vector<rdf::Triple> runs[6];
  for (rdf::IndexOrder order : SerializedOrders(header.all_indexes())) {
    const SectionInfo* section = header.FindSection(SectionKindForIndex(order));
    if (section == nullptr) {
      return Status::ParseError(path + ": snapshot is missing the " +
                                rdf::IndexOrderName(order) + " index run");
    }
    RDFPARAMS_RETURN_NOT_OK(ReadIndexRun(file, *section, verify_parts,
                                         out.dict.size(),
                                         &runs[static_cast<size_t>(order)]));
  }
  RDFPARAMS_RETURN_NOT_OK(out.store.AdoptSortedRuns(
      std::move(runs[0]), std::move(runs[1]), std::move(runs[2]),
      std::move(runs[3]), std::move(runs[4]), std::move(runs[5]),
      header.all_indexes()));
  stats.runs_seconds = seconds_since(t_runs);

  Clock::time_point t_meta = Clock::now();
  const SectionInfo* meta = header.FindSection(kSectionAppMeta);
  if (meta != nullptr) {
    RDFPARAMS_ASSIGN_OR_RETURN(out.app_meta,
                               GatherBytes(file, *meta, verify_parts));
    out.has_app_meta = true;
  }
  stats.meta_seconds = seconds_since(t_meta);
  return out;
}

Result<SnapshotInfo> Snapshot::Inspect(const std::string& path) {
  RDFPARAMS_ASSIGN_OR_RETURN(SnapshotFile file,
                             SnapshotFile::Open(path, MmapMode::kAuto));
  RDFPARAMS_RETURN_NOT_OK(file.VerifyFileChecksum());
  SnapshotInfo info;
  info.header = file.header();
  info.file_size = file.image().size();
  return info;
}

}  // namespace rdfparams::storage
