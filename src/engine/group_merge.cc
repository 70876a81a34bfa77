#include "engine/group_merge.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "util/hash.h"
#include "util/thread_pool.h"

namespace rdfparams::engine {

using rdf::TermId;

bool MergeableAggregates(const sparql::SelectQuery& query) {
  for (const sparql::Aggregate& a : query.aggregates) {
    switch (a.kind) {
      case sparql::AggregateKind::kCount:
      case sparql::AggregateKind::kSum:
      case sparql::AggregateKind::kAvg:
      case sparql::AggregateKind::kMin:
      case sparql::AggregateKind::kMax:
        continue;
      // No default: adding an aggregate kind trips -Wswitch here, forcing
      // it to be classified before the parallel merge may touch it;
      // unclassified kinds fall through to the serial single-partial path.
    }
    return false;
  }
  return true;
}

Result<GroupBySpec> GroupBySpec::Compile(const sparql::SelectQuery& query,
                                         const std::vector<std::string>& vars) {
  GroupBySpec spec;
  spec.query = &query;
  for (const std::string& v : query.group_by) {
    int c = -1;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i] == v) c = static_cast<int>(i);
    }
    if (c < 0) {
      return Status::InvalidArgument("GROUP BY variable ?" + v +
                                     " not bound by the pattern");
    }
    spec.group_cols.push_back(c);
  }
  spec.n_agg = query.aggregates.size();
  spec.agg_cols.assign(spec.n_agg, -1);
  spec.needs_value.assign(spec.n_agg, 0);
  for (size_t a = 0; a < spec.n_agg; ++a) {
    spec.needs_value[a] =
        query.aggregates[a].kind != sparql::AggregateKind::kCount ? 1 : 0;
    if (query.aggregates[a].var.empty()) continue;  // COUNT(*)
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i] == query.aggregates[a].var) {
        spec.agg_cols[a] = static_cast<int>(i);
      }
    }
    if (spec.agg_cols[a] < 0) {
      return Status::InvalidArgument("aggregate variable ?" +
                                     query.aggregates[a].var +
                                     " not bound by the pattern");
    }
  }
  return spec;
}

namespace {

/// Open-addressing slot of `hash` in a power-of-2 table of `mask + 1`.
size_t SlotOf(uint64_t hash, size_t mask) {
  return static_cast<size_t>(util::Hash64(hash)) & mask;
}

}  // namespace

PartialAggTable::PartialAggTable(const GroupBySpec* spec)
    : spec_(spec),
      key_width_(spec->group_cols.size()),
      n_agg_(spec->n_agg),
      scratch_key_(spec->group_cols.size()) {}

void PartialAggTable::Clear() {
  keys_.clear();
  hashes_.clear();
  count_.clear();
  sum_.clear();
  min_.clear();
  max_.clear();
  std::fill(slots_.begin(), slots_.end(), 0u);
}

void PartialAggTable::Rehash(size_t slots) {
  slots_.assign(slots, 0u);
  const size_t mask = slots - 1;
  for (size_t g = 0; g < hashes_.size(); ++g) {
    size_t i = SlotOf(hashes_[g], mask);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(g + 1);
  }
}

uint32_t PartialAggTable::FindOrCreate(uint64_t hash, const TermId* key) {
  // Keep the load factor at or below 1/2.
  if (2 * (hashes_.size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const size_t mask = slots_.size() - 1;
  size_t i = SlotOf(hash, mask);
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const uint32_t g = slots_[i] - 1;
    if (hashes_[g] == hash &&
        std::equal(key, key + key_width_, keys_.data() + g * key_width_)) {
      return g;
    }
  }
  const uint32_t g = static_cast<uint32_t>(hashes_.size());
  slots_[i] = g + 1;
  hashes_.push_back(hash);
  keys_.insert(keys_.end(), key, key + key_width_);
  count_.push_back(0);
  sum_.resize(sum_.size() + n_agg_, 0.0);
  min_.resize(min_.size() + n_agg_, std::numeric_limits<double>::infinity());
  max_.resize(max_.size() + n_agg_, -std::numeric_limits<double>::infinity());
  return g;
}

void PartialAggTable::AddRows(const AggSlice& slice) {
  for (size_t r = 0; r < slice.rows; ++r) {
    uint64_t h = 0xabcdef;
    for (size_t k = 0; k < key_width_; ++k) {
      scratch_key_[k] = slice.keys[k][r];
      h = util::HashCombine(h, scratch_key_[k]);
    }
    const uint32_t g = FindOrCreate(h, scratch_key_.data());
    ++count_[g];
    double* sum = sum_.data() + g * n_agg_;
    double* mn = min_.data() + g * n_agg_;
    double* mx = max_.data() + g * n_agg_;
    for (size_t a = 0; a < n_agg_; ++a) {
      if (slice.values[a].empty()) continue;  // COUNT — no value needed
      const double x = slice.values[a][r];
      sum[a] += x;
      mn[a] = std::min(mn[a], x);
      mx[a] = std::max(mx[a], x);
    }
  }
}

void PartialAggTable::MergeFrom(const PartialAggTable& other) {
  for (size_t src = 0; src < other.hashes_.size(); ++src) {
    const uint32_t g = FindOrCreate(
        other.hashes_[src], other.keys_.data() + src * key_width_);
    count_[g] += other.count_[src];
    for (size_t a = 0; a < n_agg_; ++a) {
      const size_t d = g * n_agg_ + a;
      const size_t s = src * n_agg_ + a;
      sum_[d] += other.sum_[s];
      min_[d] = std::min(min_[d], other.min_[s]);
      max_[d] = std::max(max_[d], other.max_[s]);
    }
  }
}

Result<BindingTable> PartialAggTable::Finish(DictAccess* dict) const {
  const sparql::SelectQuery& query = *spec_->query;
  std::vector<std::string> out_vars = query.group_by;
  for (const sparql::Aggregate& a : query.aggregates) {
    out_vars.push_back(a.as_name);
  }

  // Ascending group-key order: independent of hash iteration order, slice
  // width, and thread count. Keys are unique, so std::sort suffices.
  const size_t groups = hashes_.size();
  auto key_of = [&](uint32_t g) { return keys_.data() + g * key_width_; };
  std::vector<uint32_t> order(groups);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(key_of(a), key_of(a) + key_width_,
                                        key_of(b), key_of(b) + key_width_);
  });

  BindingTable out(out_vars);
  out.Reserve(groups);
  std::vector<TermId> row(out_vars.size());
  for (uint32_t g : order) {
    std::copy(key_of(g), key_of(g) + key_width_, row.begin());
    size_t k = key_width_;
    const double count = static_cast<double>(count_[g]);
    for (size_t a = 0; a < n_agg_; ++a) {
      const size_t i = g * n_agg_ + a;
      double value = 0;
      switch (query.aggregates[a].kind) {
        case sparql::AggregateKind::kCount: value = count; break;
        case sparql::AggregateKind::kSum: value = sum_[i]; break;
        case sparql::AggregateKind::kAvg:
          value = count_[g] > 0 ? sum_[i] / count : 0.0;
          break;
        case sparql::AggregateKind::kMin:
          value = count_[g] > 0 ? min_[i] : 0.0;
          break;
        case sparql::AggregateKind::kMax:
          value = count_[g] > 0 ? max_[i] : 0.0;
          break;
      }
      row[k++] = dict->Intern(rdf::Term::Double(value));
    }
    out.AppendRow(row);
  }
  return out;
}

double NumericDecoder::Get(TermId id, const DictAccess& dict) {
  if (id == rdf::kInvalidTermId) {  // the empty-slot marker; never cached
    return dict.term(id).AsDouble().value_or(0.0);
  }
  if (2 * (used_ + 1) > ids_.size()) {
    std::vector<TermId> old_ids = std::move(ids_);
    std::vector<double> old_values = std::move(values_);
    const size_t slots = std::max<size_t>(64, 2 * old_ids.size());
    ids_.assign(slots, rdf::kInvalidTermId);
    values_.assign(slots, 0.0);
    for (size_t i = 0; i < old_ids.size(); ++i) {
      if (old_ids[i] == rdf::kInvalidTermId) continue;
      size_t j = SlotOf(old_ids[i], slots - 1);
      while (ids_[j] != rdf::kInvalidTermId) j = (j + 1) & (slots - 1);
      ids_[j] = old_ids[i];
      values_[j] = old_values[i];
    }
  }
  const size_t mask = ids_.size() - 1;
  size_t i = SlotOf(id, mask);
  for (; ids_[i] != rdf::kInvalidTermId; i = (i + 1) & mask) {
    if (ids_[i] == id) return values_[i];
  }
  ids_[i] = id;
  values_[i] = dict.term(id).AsDouble().value_or(0.0);
  ++used_;
  return values_[i];
}

// ---------------------------------------------------------------------------
// GroupByStream
// ---------------------------------------------------------------------------

struct GroupByStream::Slice {
  explicit Slice(const GroupBySpec* spec) : partial(spec) {
    in.keys.resize(spec->group_cols.size());
    for (auto& k : in.keys) k.reserve(kAggSliceRows);
    in.values.resize(spec->n_agg);
    for (size_t a = 0; a < spec->n_agg; ++a) {
      if (spec->agg_cols[a] >= 0 && spec->needs_value[a]) {
        in.values[a].reserve(kAggSliceRows);
      }
    }
  }
  AggSlice in;
  PartialAggTable partial;
  /// The partial is complete (set by the task under mu_; read lock-free).
  std::atomic<bool> done{false};
};

GroupByStream::GroupByStream(const GroupBySpec* spec, const DictAccess& dict,
                             util::ThreadPool* pool, size_t max_pending)
    : spec_(spec),
      dict_(dict),
      pool_(pool),
      max_pending_(std::max<size_t>(2, max_pending) * kSlicesPerTask),
      sliced_(MergeableAggregates(*spec->query)),
      merged_(spec),
      filling_(std::make_unique<Slice>(spec)) {}

GroupByStream::~GroupByStream() {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return running_ == 0; });
}

std::unique_ptr<GroupByStream::Slice> GroupByStream::NewSlice() {
  if (!free_.empty()) {
    std::unique_ptr<Slice> s = std::move(free_.back());
    free_.pop_back();
    return s;
  }
  return std::make_unique<Slice>(spec_);
}

void GroupByStream::Add(std::span<const std::span<const TermId>> cols,
                        const uint32_t* sel, size_t n) {
  const size_t width = spec_->group_cols.size();
  size_t i = 0;
  while (i < n) {
    AggSlice& in = filling_->in;
    const size_t take = std::min(n - i, kAggSliceRows - in.rows);
    // Copies rows [i, i + take) of the window through `put`, honoring the
    // selection vector.
    auto each_row = [&](auto&& put) {
      if (sel != nullptr) {
        for (size_t j = i; j < i + take; ++j) put(sel[j]);
      } else {
        for (size_t j = i; j < i + take; ++j) put(j);
      }
    };
    for (size_t k = 0; k < width; ++k) {
      const TermId* src =
          cols[static_cast<size_t>(spec_->group_cols[k])].data();
      std::vector<TermId>& dst = in.keys[k];
      each_row([&](size_t r) { dst.push_back(src[r]); });
    }
    for (size_t a = 0; a < spec_->n_agg; ++a) {
      if (spec_->agg_cols[a] < 0 || !spec_->needs_value[a]) continue;
      const TermId* src =
          cols[static_cast<size_t>(spec_->agg_cols[a])].data();
      std::vector<double>& dst = in.values[a];
      each_row([&](size_t r) { dst.push_back(decoder_.Get(src[r], dict_)); });
    }
    in.rows += take;
    i += take;
    if (in.rows == kAggSliceRows) Flush();
  }
}

void GroupByStream::Flush() {
  Slice& s = *filling_;
  if (s.in.rows == 0) return;
  if (!sliced_) {
    // Unmergeable aggregates: one accumulator over the whole stream, in
    // row order — the canonical tree degenerates to a single partial.
    merged_.AddRows(s.in);
    s.in.Clear();
    return;
  }
  if (pool_ == nullptr) {
    s.partial.AddRows(s.in);
    merged_.MergeFrom(s.partial);
    s.partial.Clear();
    s.in.Clear();
    return;
  }
  // Bound memory before adding another slice: fold the oldest unfolded
  // slices (blocking on their tasks when necessary).
  while (pending_.size() >= max_pending_) FoldOldest(/*block=*/true);
  filling_->done.store(false, std::memory_order_relaxed);
  pending_.push_back(std::move(filling_));
  if (++unsubmitted_ == task_slices_) {
    SubmitUnsubmitted();
    // Ramp the task size up geometrically: short streams still spread
    // over the pool, long ones amortize each wake over kSlicesPerTask.
    task_slices_ = std::min(2 * task_slices_, kSlicesPerTask);
  }
  filling_ = NewSlice();
  while (!pending_.empty() && FoldOldest(/*block=*/false)) {
  }
}

void GroupByStream::SubmitUnsubmitted() {
  if (unsubmitted_ == 0) return;
  std::vector<Slice*> batch;
  for (size_t i = pending_.size() - unsubmitted_; i < pending_.size(); ++i) {
    batch.push_back(pending_[i].get());
  }
  unsubmitted_ = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++running_;
  }
  pool_->Submit([this, batch = std::move(batch)] {
    for (Slice* s : batch) {
      s->partial.AddRows(s->in);
      {
        std::lock_guard<std::mutex> lock(mu_);
        s->done.store(true, std::memory_order_release);
      }
      cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    cv_.notify_all();
  });
}

void GroupByStream::RunUnsubmittedInline() {
  for (size_t i = pending_.size() - unsubmitted_; i < pending_.size(); ++i) {
    Slice& s = *pending_[i];
    s.partial.AddRows(s.in);
    s.done.store(true, std::memory_order_relaxed);
  }
  unsubmitted_ = 0;
}

bool GroupByStream::FoldOldest(bool block) {
  Slice* s = pending_.front().get();
  if (!s->done.load(std::memory_order_acquire)) {
    if (!block) return false;
    if (pending_.size() <= unsubmitted_) {
      // No task covers the oldest slice yet: rather than waking a worker
      // and waiting for it, reduce the unsubmitted tail right here.
      RunUnsubmittedInline();
    } else {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock,
               [&] { return s->done.load(std::memory_order_acquire); });
    }
  }
  // Always the oldest slice: the fold order is the determinism anchor.
  merged_.MergeFrom(s->partial);
  s->partial.Clear();
  s->in.Clear();
  free_.push_back(std::move(pending_.front()));
  pending_.pop_front();
  return true;
}

Result<BindingTable> GroupByStream::Finish(DictAccess* dict) {
  Flush();
  while (!pending_.empty()) FoldOldest(/*block=*/true);
  return merged_.Finish(dict);
}

Result<BindingTable> GroupByAggregate(const sparql::SelectQuery& query,
                                      const BindingTable& input,
                                      DictAccess* dict,
                                      util::ThreadPool* pool) {
  RDFPARAMS_ASSIGN_OR_RETURN(GroupBySpec spec,
                             GroupBySpec::Compile(query, input.vars()));
  std::vector<std::span<const TermId>> cols;
  for (size_t c = 0; c < input.num_vars(); ++c) cols.push_back(input.col(c));
  const size_t threads = pool != nullptr ? pool->size() + 1 : 1;
  GroupByStream stream(&spec, *dict, pool, /*max_pending=*/threads + 1);
  stream.Add(cols, nullptr, input.num_rows());
  return stream.Finish(dict);
}

}  // namespace rdfparams::engine
