#include "rdf/dictionary.h"

#include <bit>
#include <cstring>

#include "util/coding.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace rdfparams::rdf {

namespace {

// Record field byte offsets (see the layout comment in dictionary.h).
constexpr size_t kLexOff = 0, kLexLen = 4;
constexpr size_t kDtOff = 8, kDtLen = 12;
constexpr size_t kLangOff = 16, kLangLen = 20;
constexpr size_t kKindFlags = 24, kReserved = 28, kDoubleBits = 32;

constexpr uint32_t kKnownFlagMask =
    0xFFu | kTermFlagHasDouble | kTermFlagNumericType;

inline void StoreU64At(std::string* out, uint64_t v) {
  util::AppendU64(out, v);
}

}  // namespace

uint32_t HashCapacityFor(size_t n) {
  if (n == 0) return 0;
  uint64_t want = std::bit_ceil(static_cast<uint64_t>(n) * 2);
  if (want < 16) want = 16;
  return static_cast<uint32_t>(want);
}

uint64_t HashTermKey(TermKind kind, std::string_view lexical,
                     std::string_view datatype, std::string_view lang) {
  uint64_t h = util::HashCombine(util::Hash64(static_cast<uint64_t>(kind)),
                                 util::HashString(lexical));
  h = util::HashCombine(h, util::HashString(datatype));
  return util::HashCombine(h, util::HashString(lang));
}

TermView Dictionary::ViewAt(TermId id) const {
  std::string_view arena = ArenaBytes();
  const char* r = RecordBytes().data() + static_cast<size_t>(id) * kTermRecordBytes;
  TermView v;
  v.lexical = arena.substr(util::LoadU32(r + kLexOff), util::LoadU32(r + kLexLen));
  v.datatype = arena.substr(util::LoadU32(r + kDtOff), util::LoadU32(r + kDtLen));
  v.lang = arena.substr(util::LoadU32(r + kLangOff), util::LoadU32(r + kLangLen));
  uint32_t kf = util::LoadU32(r + kKindFlags);
  v.kind = static_cast<TermKind>(kf & 0xFFu);
  v.num.has_double = (kf & kTermFlagHasDouble) != 0;
  v.num.numeric_type = (kf & kTermFlagNumericType) != 0;
  v.num.value = std::bit_cast<double>(util::LoadU64(r + kDoubleBits));
  return v;
}

std::optional<TermId> Dictionary::Probe(TermKind kind, std::string_view lexical,
                                        std::string_view key_dt,
                                        std::string_view key_lang,
                                        uint64_t hash,
                                        size_t* insert_slot) const {
  std::string_view slots = SlotBytes();
  size_t capacity = slots.size() / 4;
  if (capacity == 0) return std::nullopt;
  size_t mask = capacity - 1;
  size_t idx = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t id = util::LoadU32(slots.data() + idx * 4);
    if (id == kEmptyHashSlot) {
      *insert_slot = idx;
      return std::nullopt;
    }
    TermView v = ViewAt(id);
    if (v.kind == kind && v.lexical == lexical) {
      auto [dt, lang] = TermKeyTail(v.kind, v.datatype, v.lang);
      if (dt == key_dt && lang == key_lang) return id;
    }
    idx = (idx + 1) & mask;
  }
}

void Dictionary::EnsureMutable() {
  if (pool_built_) return;
  if (borrowed_) {
    arena_owned_.assign(arena_);
    records_owned_.assign(records_);
    slots_owned_.assign(slots_);
    arena_ = records_ = slots_ = {};
    owner_.reset();
    borrowed_ = false;
  }
  // Rebuild the datatype/lang pool from the records: the first record
  // referencing a value references its first-appearance offset, so
  // try_emplace in id order reproduces the original pool exactly.
  for (size_t i = 0; i < size_; ++i) {
    const char* r = records_owned_.data() + i * kTermRecordBytes;
    uint32_t dt_len = util::LoadU32(r + kDtLen);
    if (dt_len > 0) {
      uint32_t off = util::LoadU32(r + kDtOff);
      value_pool_.try_emplace(arena_owned_.substr(off, dt_len),
                              std::make_pair(off, dt_len));
    }
    uint32_t lang_len = util::LoadU32(r + kLangLen);
    if (lang_len > 0) {
      uint32_t off = util::LoadU32(r + kLangOff);
      value_pool_.try_emplace(arena_owned_.substr(off, lang_len),
                              std::make_pair(off, lang_len));
    }
  }
  pool_built_ = true;
}

std::string Dictionary::BuildHashSlots(uint32_t capacity) const {
  std::string slots(static_cast<size_t>(capacity) * 4, '\xFF');
  if (capacity == 0) return slots;
  size_t mask = static_cast<size_t>(capacity) - 1;
  for (size_t i = 0; i < size_; ++i) {
    TermView v = ViewAt(static_cast<TermId>(i));
    auto [dt, lang] = TermKeyTail(v.kind, v.datatype, v.lang);
    uint64_t h = HashTermKey(v.kind, v.lexical, dt, lang);
    size_t idx = static_cast<size_t>(h) & mask;
    while (util::LoadU32(slots.data() + idx * 4) != kEmptyHashSlot) {
      idx = (idx + 1) & mask;
    }
    util::StoreU32(slots.data() + idx * 4, static_cast<uint32_t>(i));
  }
  return slots;
}

void Dictionary::Rehash(uint32_t capacity) {
  slots_owned_ = BuildHashSlots(capacity);
}

std::pair<uint32_t, uint32_t> Dictionary::InternValueBytes(std::string_view s) {
  if (s.empty()) return {0, 0};
  auto it = value_pool_.find(s);
  if (it != value_pool_.end()) return it->second;
  auto off = static_cast<uint32_t>(arena_owned_.size());
  auto len = static_cast<uint32_t>(s.size());
  arena_owned_.append(s);
  value_pool_.emplace(std::string(s), std::make_pair(off, len));
  return {off, len};
}

TermId Dictionary::Intern(const Term& term) {
  auto [key_dt, key_lang] = TermKeyTail(term.kind, term.datatype, term.lang);
  uint64_t hash = HashTermKey(term.kind, term.lexical, key_dt, key_lang);
  size_t insert_slot = 0;
  if (auto found = Probe(term.kind, term.lexical, key_dt, key_lang, hash,
                         &insert_slot)) {
    return *found;
  }
  EnsureMutable();
  TermId id = static_cast<TermId>(size_);
  RDFPARAMS_DCHECK(id != kInvalidTermId);
  uint32_t capacity = static_cast<uint32_t>(slots_owned_.size() / 4);
  if (2 * (size_ + 1) > capacity) {
    Rehash(HashCapacityFor(size_ + 1));
    auto found = Probe(term.kind, term.lexical, key_dt, key_lang, hash,
                       &insert_slot);
    RDFPARAMS_DCHECK(!found.has_value());
    (void)found;
  }

  RDFPARAMS_DCHECK(arena_owned_.size() + term.lexical.size() +
                       term.datatype.size() + term.lang.size() <=
                   0xFFFFFFFFull);
  auto lex_off = static_cast<uint32_t>(arena_owned_.size());
  auto lex_len = static_cast<uint32_t>(term.lexical.size());
  arena_owned_.append(term.lexical);
  auto [dt_off, dt_len] = InternValueBytes(term.datatype);
  auto [lang_off, lang_len] = InternValueBytes(term.lang);

  TermNumerics num = ComputeTermNumerics(term);
  uint32_t kind_flags = static_cast<uint32_t>(term.kind);
  if (num.has_double) kind_flags |= kTermFlagHasDouble;
  if (num.numeric_type) kind_flags |= kTermFlagNumericType;

  util::AppendU32(&records_owned_, lex_off);
  util::AppendU32(&records_owned_, lex_len);
  util::AppendU32(&records_owned_, dt_off);
  util::AppendU32(&records_owned_, dt_len);
  util::AppendU32(&records_owned_, lang_off);
  util::AppendU32(&records_owned_, lang_len);
  util::AppendU32(&records_owned_, kind_flags);
  util::AppendU32(&records_owned_, 0);
  StoreU64At(&records_owned_, std::bit_cast<uint64_t>(num.value));

  util::StoreU32(slots_owned_.data() + insert_slot * 4, id);
  ++size_;
  return id;
}

void Dictionary::Reserve(size_t n) {
  EnsureMutable();
  records_owned_.reserve(n * kTermRecordBytes);
  // Called once before a bulk intern (the v1 snapshot open), never per
  // chunk, so the exact reservation cannot turn into repeated regrowth.
  arena_owned_.reserve(arena_owned_.size() + n * 24);  // lint:allow(incremental-reserve): one-shot
  uint32_t capacity = HashCapacityFor(n < size_ ? size_ : n);
  if (static_cast<size_t>(capacity) * 4 > slots_owned_.size()) {
    Rehash(capacity);
  }
}

std::optional<TermId> Dictionary::Find(const Term& term) const {
  auto [key_dt, key_lang] = TermKeyTail(term.kind, term.datatype, term.lang);
  uint64_t hash = HashTermKey(term.kind, term.lexical, key_dt, key_lang);
  size_t slot = 0;
  return Probe(term.kind, term.lexical, key_dt, key_lang, hash, &slot);
}

std::optional<TermId> Dictionary::Find(const TermView& term) const {
  auto [key_dt, key_lang] = TermKeyTail(term.kind, term.datatype, term.lang);
  uint64_t hash = HashTermKey(term.kind, term.lexical, key_dt, key_lang);
  size_t slot = 0;
  return Probe(term.kind, term.lexical, key_dt, key_lang, hash, &slot);
}

std::optional<TermId> Dictionary::FindIri(std::string_view iri) const {
  uint64_t hash = HashTermKey(TermKind::kIri, iri, {}, {});
  size_t slot = 0;
  return Probe(TermKind::kIri, iri, {}, {}, hash, &slot);
}

TermView Dictionary::term(TermId id) const {
  RDFPARAMS_DCHECK(id < size_);
  return ViewAt(id);
}

std::string Dictionary::ToString(TermId id) const {
  if (id == kInvalidTermId) return "?";
  if (id >= size_) return "<bad-id>";
  return ViewAt(id).ToNTriples();
}

std::vector<TermId> Dictionary::FoldScratch(const ScratchDictionary& overlay) {
  RDFPARAMS_DCHECK(&overlay.base() == this);
  RDFPARAMS_DCHECK(overlay.base_size() <= size_);
  std::vector<TermId> map;
  map.reserve(overlay.num_scratch());
  for (size_t i = 0; i < overlay.num_scratch(); ++i) {
    map.push_back(Intern(overlay.scratch_term(i)));
  }
  return map;
}

Status Dictionary::ValidateSections(std::string_view arena,
                                    std::string_view records,
                                    std::string_view hash_slots,
                                    size_t num_terms) {
  if (num_terms >= kInvalidTermId) {
    return Status::DataLoss("dictionary: term count out of range");
  }
  if (records.size() != num_terms * kTermRecordBytes) {
    return Status::DataLoss(util::StringPrintf(
        "dictionary: record section is %zu bytes, want %zu for %zu terms",
        records.size(), num_terms * kTermRecordBytes, num_terms));
  }
  if (arena.size() > 0xFFFFFFFFull) {
    return Status::DataLoss("dictionary: arena exceeds 4 GiB offset range");
  }
  if (hash_slots.size() != static_cast<size_t>(HashCapacityFor(num_terms)) * 4) {
    return Status::DataLoss(util::StringPrintf(
        "dictionary: hash section is %zu bytes, want %zu for %zu terms",
        hash_slots.size(),
        static_cast<size_t>(HashCapacityFor(num_terms)) * 4, num_terms));
  }
  uint64_t arena_size = arena.size();
  for (size_t i = 0; i < num_terms; ++i) {
    const char* r = records.data() + i * kTermRecordBytes;
    uint32_t kf = util::LoadU32(r + kKindFlags);
    if ((kf & 0xFFu) > 2 || (kf & ~kKnownFlagMask) != 0) {
      return Status::DataLoss(
          util::StringPrintf("dictionary: record %zu has bad kind/flags", i));
    }
    if (util::LoadU32(r + kReserved) != 0) {
      return Status::DataLoss(util::StringPrintf(
          "dictionary: record %zu has nonzero reserved field", i));
    }
    for (size_t f : {kLexOff, kDtOff, kLangOff}) {
      uint64_t off = util::LoadU32(r + f);
      uint64_t len = util::LoadU32(r + f + 4);
      if (off + len > arena_size) {
        return Status::DataLoss(util::StringPrintf(
            "dictionary: record %zu field exceeds arena bounds", i));
      }
    }
  }
  std::vector<bool> seen(num_terms, false);
  size_t filled = 0;
  for (size_t s = 0; s * 4 < hash_slots.size(); ++s) {
    uint32_t id = util::LoadU32(hash_slots.data() + s * 4);
    if (id == kEmptyHashSlot) continue;
    if (id >= num_terms || seen[id]) {
      return Status::DataLoss(
          util::StringPrintf("dictionary: hash slot %zu holds bad id", s));
    }
    seen[id] = true;
    ++filled;
  }
  if (filled != num_terms) {
    return Status::DataLoss(util::StringPrintf(
        "dictionary: hash table holds %zu ids, want %zu", filled, num_terms));
  }
  return Status::OK();
}

Result<Dictionary> Dictionary::Adopt(std::string_view arena,
                                     std::string_view records,
                                     std::string_view hash_slots,
                                     size_t num_terms,
                                     std::shared_ptr<const void> owner) {
  RDFPARAMS_RETURN_NOT_OK(ValidateSections(arena, records, hash_slots,
                                           num_terms));
  Dictionary d;
  d.size_ = num_terms;
  d.arena_ = arena;
  d.records_ = records;
  d.slots_ = hash_slots;
  d.owner_ = std::move(owner);
  d.borrowed_ = true;
  d.pool_built_ = false;
  return d;
}

Result<Dictionary> Dictionary::Adopt(std::string arena, std::string records,
                                     std::string hash_slots,
                                     size_t num_terms) {
  RDFPARAMS_RETURN_NOT_OK(
      ValidateSections(arena, records, hash_slots, num_terms));
  Dictionary d;
  d.size_ = num_terms;
  d.arena_owned_ = std::move(arena);
  d.records_owned_ = std::move(records);
  d.slots_owned_ = std::move(hash_slots);
  d.pool_built_ = false;
  return d;
}

TermId ScratchDictionary::Intern(const Term& term) {
  if (auto base_id = base_.Find(term)) {
    // Ids past the snapshot would collide with overlay ids.
    RDFPARAMS_DCHECK(*base_id < base_size_);
    return *base_id;
  }
  std::string key = term.ToNTriples();
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  TermId id = static_cast<TermId>(base_size_ + local_.size());
  RDFPARAMS_DCHECK(id != kInvalidTermId);
  local_.push_back(term);
  index_.emplace(std::move(key), id);
  return id;
}

std::optional<TermId> ScratchDictionary::Find(const Term& term) const {
  if (auto base_id = base_.Find(term)) return base_id;
  auto it = index_.find(term.ToNTriples());
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

TermView ScratchDictionary::term(TermId id) const {
  if (id < base_size_) return base_.term(id);
  RDFPARAMS_DCHECK(id - base_size_ < local_.size());
  return local_[id - base_size_].view();
}

}  // namespace rdfparams::rdf
