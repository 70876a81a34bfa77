#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "engine/group_merge.h"
#include "engine/parallel_sort.h"
#include "util/hash.h"
#include "util/timer.h"

namespace rdfparams::engine {

namespace {

using rdf::kWildcardId;
using rdf::TermId;
using sparql::SelectQuery;
using sparql::Slot;
using sparql::TriplePattern;

/// Resolves a constant slot against the dictionary. Returns false when the
/// constant does not occur in the data at all (empty result).
bool ResolveConst(const Slot& slot, const DictAccess& dict, TermId* out) {
  auto id = dict.Find(slot.term);
  if (!id) return false;
  *out = *id;
  return true;
}

/// Hash of one row's join key (a subset of its columns).
uint64_t KeyHashAt(const BindingTable& t, size_t row,
                   const std::vector<int>& cols) {
  uint64_t h = 0x12345678abcdef01ULL;
  for (int c : cols) {
    h = util::HashCombine(h, t.at(row, static_cast<size_t>(c)));
  }
  return h;
}

/// Key hashes of rows [row_begin, row_end), computed column-wise into
/// `out` (length row_end - row_begin). Combines columns in the same order
/// as KeyHashAt, so the values are identical — this is purely the
/// cache-friendly batched form the vectorized probe and the partitioned
/// build use.
void ComputeKeyHashes(const BindingTable& t, const std::vector<int>& cols,
                      size_t row_begin, size_t row_end, uint64_t* out) {
  const size_t n = row_end - row_begin;
  std::fill(out, out + n, 0x12345678abcdef01ULL);
  for (int c : cols) {
    std::span<const TermId> col = t.col(static_cast<size_t>(c));
    for (size_t i = 0; i < n; ++i) {
      out[i] = util::HashCombine(out[i], col[row_begin + i]);
    }
  }
}

bool KeyEqualsAt(const BindingTable& a, size_t ra,
                 const std::vector<int>& acols, const BindingTable& b,
                 size_t rb, const std::vector<int>& bcols) {
  for (size_t i = 0; i < acols.size(); ++i) {
    if (a.at(ra, static_cast<size_t>(acols[i])) !=
        b.at(rb, static_cast<size_t>(bcols[i]))) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Index join kernels (per-row probe, merge sweep, chunked materialization)
// ---------------------------------------------------------------------------

/// Precomputed wiring for probing one triple pattern per outer row.
struct IndexJoinPlan {
  struct VarSlot {
    rdf::TriplePos pos;
    int outer_col;  // >= 0: bound from the outer row; -1: free
    int out_col;    // output column (free vars)
    std::string name;
  };
  std::vector<VarSlot> var_slots;
  TermId cs = kWildcardId, cp = kWildcardId, co = kWildcardId;
  bool absent_const = false;  // a constant term absent from the data
  /// A free variable repeated across slots (e.g. ?x p ?x): the per-triple
  /// equality check only exists in the row kernel, so the chunked
  /// materializer must not be used.
  bool repeated_free = false;
  /// Index into var_slots of the single outer-bound slot, or -1 when zero
  /// or several slots bind from the outer row. A valid key_slot with
  /// var_slots.size() <= 2 leaves at most one free slot, which is what
  /// makes the merge sweep's run order index-independent (see
  /// rdf::PatternSweep) — the static half of merge-join eligibility.
  int key_slot = -1;
  std::vector<std::string> out_vars;
  size_t outer_width = 0;
};

Result<IndexJoinPlan> PrepareIndexJoin(const TriplePattern& tp,
                                       const std::vector<std::string>& outer,
                                       const DictAccess& dict) {
  if (tp.s.is_param() || tp.p.is_param() || tp.o.is_param()) {
    return Status::InvalidArgument("executor got an unbound %parameter");
  }
  IndexJoinPlan plan;
  plan.outer_width = outer.size();
  if (tp.s.is_const() && !ResolveConst(tp.s, dict, &plan.cs)) {
    plan.absent_const = true;
  }
  if (tp.p.is_const() && !ResolveConst(tp.p, dict, &plan.cp)) {
    plan.absent_const = true;
  }
  if (tp.o.is_const() && !ResolveConst(tp.o, dict, &plan.co)) {
    plan.absent_const = true;
  }

  auto outer_col = [&](const std::string& name) {
    for (size_t i = 0; i < outer.size(); ++i) {
      if (outer[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  auto classify = [&](const Slot& slot, rdf::TriplePos pos) {
    if (!slot.is_var()) return;
    plan.var_slots.push_back({pos, outer_col(slot.name), -1, slot.name});
  };
  classify(tp.s, rdf::TriplePos::kS);
  classify(tp.p, rdf::TriplePos::kP);
  classify(tp.o, rdf::TriplePos::kO);

  plan.out_vars = outer;
  for (auto& vs : plan.var_slots) {
    if (vs.outer_col >= 0) continue;
    bool seen = false;
    for (size_t i = outer.size(); i < plan.out_vars.size(); ++i) {
      if (plan.out_vars[i] == vs.name) {
        vs.out_col = static_cast<int>(i);
        seen = true;
        break;
      }
    }
    if (!seen) {
      vs.out_col = static_cast<int>(plan.out_vars.size());
      plan.out_vars.push_back(vs.name);
    } else {
      plan.repeated_free = true;
    }
  }
  int bound_slots = 0;
  for (size_t i = 0; i < plan.var_slots.size(); ++i) {
    if (plan.var_slots[i].outer_col >= 0) {
      ++bound_slots;
      plan.key_slot = static_cast<int>(i);
    }
  }
  if (bound_slots != 1 || plan.var_slots.size() > 2) plan.key_slot = -1;
  return plan;
}

/// Streams the join of rows [row_begin, row_end) of `outer_table` with the
/// plan's pattern; calls emit(row_span) per result row in outer-row order.
/// `range_for(s, p, o)` supplies the matching triples for one resolved
/// pattern — the store's per-row index probe, or a PatternSweep run for
/// the merge join (identical contents and order when the sweep is
/// eligible, so the two parameterizations emit identical rows). Returns
/// the number of probed base rows. The range form is what the
/// morsel-parallel driver slices over; this row-at-a-time body is also the
/// chunk_rows = 0 reference kernel.
template <typename RangeFor, typename Emit>
uint64_t RunIndexJoinRows(const IndexJoinPlan& plan,
                          const BindingTable& outer_table, size_t row_begin,
                          size_t row_end, RangeFor&& range_for, Emit&& emit) {
  if (plan.absent_const) return 0;
  std::vector<TermId> row(plan.out_vars.size());
  uint64_t probed = 0;
  for (size_t r = row_begin; r < row_end; ++r) {
    TermId s = plan.cs, p = plan.cp, o = plan.co;
    for (const auto& vs : plan.var_slots) {
      if (vs.outer_col >= 0) {
        TermId v = outer_table.at(r, static_cast<size_t>(vs.outer_col));
        switch (vs.pos) {
          case rdf::TriplePos::kS: s = v; break;
          case rdf::TriplePos::kP: p = v; break;
          case rdf::TriplePos::kO: o = v; break;
        }
      }
    }
    std::span<const rdf::Triple> range = range_for(s, p, o);
    probed += range.size();
    for (const rdf::Triple& t : range) {
      bool ok = true;
      for (size_t c = 0; c < plan.outer_width; ++c) {
        row[c] = outer_table.at(r, c);
      }
      for (size_t i = plan.outer_width; i < plan.out_vars.size(); ++i) {
        row[i] = kWildcardId;
      }
      for (const auto& vs : plan.var_slots) {
        if (vs.outer_col >= 0) continue;
        TermId v = GetPos(t, vs.pos);
        size_t col = static_cast<size_t>(vs.out_col);
        if (row[col] != kWildcardId && row[col] != v) {
          ok = false;  // repeated free variable mismatch (e.g. ?x p ?x)
          break;
        }
        row[col] = v;
      }
      if (ok) emit(std::span<const TermId>(row));
    }
  }
  return probed;
}

/// Chunked form of RunIndexJoinRows for patterns without repeated free
/// variables: walks outer rows [row_begin, row_end) and collects the
/// (outer row, matching triple) pairs, handing them to
/// on_window(rows, triples) in windows of at most `window_rows` matches —
/// a window may end inside one outer row's range, so its size stays
/// bounded however large a range is. Match order is (outer row ascending,
/// triples in range order), exactly the row kernel's emission order, so
/// every consumer sees the same sequence at every window size. Returns the
/// number of probed base rows.
template <typename RangeFor, typename OnWindow>
uint64_t ForEachIndexJoinWindow(const IndexJoinPlan& plan,
                                const BindingTable& outer_table,
                                size_t row_begin, size_t row_end,
                                uint64_t window_rows, RangeFor&& range_for,
                                OnWindow&& on_window) {
  RDFPARAMS_DCHECK(!plan.repeated_free);
  if (plan.absent_const) return 0;
  const size_t cap = static_cast<size_t>(window_rows);
  uint64_t probed = 0;
  std::vector<uint32_t> match_rows;
  std::vector<const rdf::Triple*> match_triples;
  auto flush = [&] {
    if (match_rows.empty()) return;
    on_window(std::span<const uint32_t>(match_rows),
              std::span<const rdf::Triple* const>(match_triples));
    match_rows.clear();
    match_triples.clear();
  };
  for (size_t r = row_begin; r < row_end; ++r) {
    TermId s = plan.cs, p = plan.cp, o = plan.co;
    for (const auto& vs : plan.var_slots) {
      if (vs.outer_col >= 0) {
        TermId v = outer_table.at(r, static_cast<size_t>(vs.outer_col));
        switch (vs.pos) {
          case rdf::TriplePos::kS: s = v; break;
          case rdf::TriplePos::kP: p = v; break;
          case rdf::TriplePos::kO: o = v; break;
        }
      }
    }
    std::span<const rdf::Triple> range = range_for(s, p, o);
    probed += range.size();
    for (size_t off = 0; off < range.size();) {
      const size_t take = std::min(range.size() - off, cap - match_rows.size());
      for (size_t k = off; k < off + take; ++k) {
        match_rows.push_back(static_cast<uint32_t>(r));
        match_triples.push_back(&range[k]);
      }
      off += take;
      if (match_rows.size() == cap) flush();
    }
  }
  flush();
  return probed;
}

/// Writes one index-join match window's output columns through `dst(c)`,
/// which returns the column to append to or nullptr for a column nobody
/// reads: outer columns as gathers, each free variable's column straight
/// from the matched triples. Without repeated frees, every output column
/// beyond the outer width belongs to exactly one free slot.
template <typename Dst>
void MaterializeIndexJoinWindow(const IndexJoinPlan& plan,
                                const BindingTable& outer_table,
                                std::span<const uint32_t> rows,
                                std::span<const rdf::Triple* const> triples,
                                Dst&& dst) {
  for (size_t c = 0; c < plan.outer_width; ++c) {
    if (std::vector<TermId>* col = dst(c)) {
      GatherAppend(col, outer_table.col(c).data(), rows);
    }
  }
  for (const auto& vs : plan.var_slots) {
    if (vs.outer_col >= 0) continue;
    std::vector<TermId>* col = dst(static_cast<size_t>(vs.out_col));
    if (col == nullptr) continue;
    GrowFor(col, triples.size());
    for (const rdf::Triple* t : triples) col->push_back(GetPos(*t, vs.pos));
  }
}

/// Chunked materializing index join: ForEachIndexJoinWindow into `out`.
/// Byte-identical to the row kernel for every chunk size.
template <typename RangeFor>
uint64_t RunIndexJoinChunked(const IndexJoinPlan& plan,
                             const BindingTable& outer_table,
                             size_t row_begin, size_t row_end,
                             uint64_t chunk_rows, RangeFor&& range_for,
                             BindingTable* out) {
  const uint64_t probed = ForEachIndexJoinWindow(
      plan, outer_table, row_begin, row_end, chunk_rows, range_for,
      [&](std::span<const uint32_t> rows,
          std::span<const rdf::Triple* const> triples) {
        MaterializeIndexJoinWindow(
            plan, outer_table, rows, triples,
            [&](size_t c) { return &out->MutableCol(c); });
      });
  out->CheckAligned();
  return probed;
}

/// Runtime half of the merge-join decision (the static half is
/// IndexJoinPlan::key_slot): the optimizer hinted it, the options allow
/// it, a covering sorted index run exists, and the outer key column is
/// observed non-decreasing — checked, never assumed, because re-sorting
/// would change the emission order the determinism contract fixes.
/// Depends only on plan, options, and materialized input, so the choice
/// is identical at every thread count, morsel size, and chunk size.
struct MergeJoinChoice {
  bool use = false;
  rdf::TriplePos key_pos = rdf::TriplePos::kS;
};

MergeJoinChoice ChooseMergeJoin(const rdf::TripleStore& store,
                                const IndexJoinPlan& plan,
                                const BindingTable& outer_table, bool hint,
                                bool enabled) {
  MergeJoinChoice choice;
  if (!enabled || !hint || plan.key_slot < 0 || plan.absent_const) {
    return choice;
  }
  const auto& key = plan.var_slots[static_cast<size_t>(plan.key_slot)];
  choice.key_pos = key.pos;
  rdf::PatternSweep sweep(store, key.pos, plan.cs, plan.cp, plan.co);
  if (!sweep.valid()) return choice;
  std::span<const TermId> col =
      outer_table.col(static_cast<size_t>(key.outer_col));
  choice.use = std::is_sorted(col.begin(), col.end());
  return choice;
}

// ---------------------------------------------------------------------------
// Hash join kernels
// ---------------------------------------------------------------------------

struct HashJoinPlan {
  std::vector<int> build_key;
  std::vector<int> probe_key;
  std::vector<int> probe_extra;  // probe columns appended to the output
  std::vector<std::string> out_vars;
};

HashJoinPlan PrepareHashJoin(const std::vector<std::string>& build_vars,
                             const std::vector<std::string>& probe_vars) {
  HashJoinPlan plan;
  auto probe_col = [&](const std::string& name) {
    for (size_t j = 0; j < probe_vars.size(); ++j) {
      if (probe_vars[j] == name) return static_cast<int>(j);
    }
    return -1;
  };
  for (size_t i = 0; i < build_vars.size(); ++i) {
    int j = probe_col(build_vars[i]);
    if (j >= 0) {
      plan.build_key.push_back(static_cast<int>(i));
      plan.probe_key.push_back(j);
    }
  }
  plan.out_vars = build_vars;
  for (size_t j = 0; j < probe_vars.size(); ++j) {
    bool in_build = false;
    for (const std::string& v : build_vars) {
      if (v == probe_vars[j]) {
        in_build = true;
        break;
      }
    }
    if (!in_build) {
      plan.out_vars.push_back(probe_vars[j]);
      plan.probe_extra.push_back(static_cast<int>(j));
    }
  }
  return plan;
}

/// Cross-product kernel over build rows [row_begin, row_end), emitting in
/// (build row, probe row) order — the range form is what both the serial
/// join and the morsel-parallel driver call.
template <typename Emit>
void CrossJoinRange(const HashJoinPlan& plan, const BindingTable& build,
                    const BindingTable& probe, size_t row_begin,
                    size_t row_end, Emit&& emit) {
  std::vector<TermId> row(plan.out_vars.size());
  for (size_t i = row_begin; i < row_end; ++i) {
    for (size_t j = 0; j < probe.num_rows(); ++j) {
      size_t k = 0;
      for (size_t c = 0; c < build.num_vars(); ++c) row[k++] = build.at(i, c);
      for (int c : plan.probe_extra) {
        row[k++] = probe.at(j, static_cast<size_t>(c));
      }
      emit(std::span<const TermId>(row));
    }
  }
}

/// Columnar form of CrossJoinRange for one build row, used by the
/// streaming aggregate's root: appends the output rows (build row i) x
/// (probe rows [j0, j1)) through `dst(c)` (nullptr: a column nobody
/// reads) — build columns as runs of one value, probe-extra columns as
/// contiguous copies.
template <typename Dst>
void AppendCrossRows(const HashJoinPlan& plan, const BindingTable& build,
                     const BindingTable& probe, size_t i, size_t j0,
                     size_t j1, Dst&& dst) {
  const size_t build_width = build.num_vars();
  for (size_t c = 0; c < build_width; ++c) {
    if (std::vector<TermId>* col = dst(c)) {
      col->insert(col->end(), j1 - j0, build.at(i, c));
    }
  }
  for (size_t e = 0; e < plan.probe_extra.size(); ++e) {
    if (std::vector<TermId>* col = dst(build_width + e)) {
      const TermId* src =
          probe.col(static_cast<size_t>(plan.probe_extra[e])).data();
      col->insert(col->end(), src + j0, src + j1);
    }
  }
}

/// Keyed-probe kernel over probe rows [row_begin, row_end).
/// `lookup(hash)` returns the bucket of ascending build row ids for a key
/// hash (nullptr on no match) — a single hash table for the serial join, a
/// per-partition table for the parallel one; the emitted sequence is the
/// same either way, which is what makes the parallel join byte-identical.
/// This row-at-a-time body is the chunk_rows = 0 reference kernel.
template <typename Lookup, typename Emit>
void ProbeHashRange(const HashJoinPlan& plan, const BindingTable& build,
                    const BindingTable& probe, size_t row_begin,
                    size_t row_end, Lookup&& lookup, Emit&& emit) {
  std::vector<TermId> row(plan.out_vars.size());
  for (size_t j = row_begin; j < row_end; ++j) {
    const std::vector<uint32_t>* bucket =
        lookup(KeyHashAt(probe, j, plan.probe_key));
    if (bucket == nullptr) continue;
    for (uint32_t i : *bucket) {
      if (!KeyEqualsAt(build, i, plan.build_key, probe, j, plan.probe_key)) {
        continue;
      }
      size_t k = 0;
      for (size_t c = 0; c < build.num_vars(); ++c) row[k++] = build.at(i, c);
      for (int c : plan.probe_extra) {
        row[k++] = probe.at(j, static_cast<size_t>(c));
      }
      emit(std::span<const TermId>(row));
    }
  }
}

/// Chunked form of ProbeHashRange: per chunk_rows-row window of the probe
/// input, computes key hashes column-wise and collects the (build row,
/// probe row) match pairs in (probe row ascending, bucket order), handing
/// them to on_window(build_rows, probe_rows) in windows of at most
/// `chunk_rows` matches (a window may end inside a bucket). Same match
/// sequence as the row kernel at every chunk size.
template <typename Lookup, typename OnWindow>
void ForEachHashMatchWindow(const HashJoinPlan& plan,
                            const BindingTable& build,
                            const BindingTable& probe, size_t row_begin,
                            size_t row_end, uint64_t chunk_rows,
                            Lookup&& lookup, OnWindow&& on_window) {
  const size_t cap = static_cast<size_t>(chunk_rows);
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> match_build;
  std::vector<uint32_t> match_probe;
  auto flush = [&] {
    if (match_build.empty()) return;
    on_window(std::span<const uint32_t>(match_build),
              std::span<const uint32_t>(match_probe));
    match_build.clear();
    match_probe.clear();
  };
  for (size_t lo = row_begin; lo < row_end; lo += cap) {
    const size_t hi = std::min(row_end, lo + cap);
    hashes.resize(hi - lo);
    ComputeKeyHashes(probe, plan.probe_key, lo, hi, hashes.data());
    for (size_t j = lo; j < hi; ++j) {
      const std::vector<uint32_t>* bucket = lookup(hashes[j - lo]);
      if (bucket == nullptr) continue;
      for (uint32_t i : *bucket) {
        if (!KeyEqualsAt(build, i, plan.build_key, probe, j,
                         plan.probe_key)) {
          continue;
        }
        match_build.push_back(i);
        match_probe.push_back(static_cast<uint32_t>(j));
        if (match_build.size() == cap) flush();
      }
    }
  }
  flush();
}

/// Writes one hash-join match window's output columns through `dst(c)`
/// (nullptr: a column nobody reads): build columns and probe-extra
/// columns as gathers.
template <typename Dst>
void MaterializeHashWindow(const HashJoinPlan& plan, const BindingTable& build,
                           const BindingTable& probe,
                           std::span<const uint32_t> build_rows,
                           std::span<const uint32_t> probe_rows, Dst&& dst) {
  const size_t build_width = build.num_vars();
  for (size_t c = 0; c < build_width; ++c) {
    if (std::vector<TermId>* col = dst(c)) {
      GatherAppend(col, build.col(c).data(), build_rows);
    }
  }
  for (size_t e = 0; e < plan.probe_extra.size(); ++e) {
    if (std::vector<TermId>* col = dst(build_width + e)) {
      GatherAppend(
          col, probe.col(static_cast<size_t>(plan.probe_extra[e])).data(),
          probe_rows);
    }
  }
}

/// Chunked materializing probe: ForEachHashMatchWindow into `out`.
template <typename Lookup>
void ProbeHashChunked(const HashJoinPlan& plan, const BindingTable& build,
                      const BindingTable& probe, size_t row_begin,
                      size_t row_end, uint64_t chunk_rows, Lookup&& lookup,
                      BindingTable* out) {
  ForEachHashMatchWindow(
      plan, build, probe, row_begin, row_end, chunk_rows, lookup,
      [&](std::span<const uint32_t> build_rows,
          std::span<const uint32_t> probe_rows) {
        MaterializeHashWindow(plan, build, probe, build_rows, probe_rows,
                              [&](size_t c) { return &out->MutableCol(c); });
      });
  out->CheckAligned();
}

/// Single-table build side of a keyed hash join: full key hash -> build
/// row ids, ascending.
using HashBuckets = std::unordered_map<uint64_t, std::vector<uint32_t>>;

HashBuckets BuildHashTable(const HashJoinPlan& plan,
                           const BindingTable& build) {
  HashBuckets table;
  table.reserve(build.num_rows() * 2);
  std::vector<uint64_t> hashes(build.num_rows());
  ComputeKeyHashes(build, plan.build_key, 0, build.num_rows(), hashes.data());
  for (size_t i = 0; i < build.num_rows(); ++i) {
    table[hashes[i]].push_back(static_cast<uint32_t>(i));
  }
  return table;
}

/// Bucket lookup over a single-table build (nullptr on no match).
auto BucketLookup(const HashBuckets& table) {
  return [&table](uint64_t h) -> const std::vector<uint32_t>* {
    auto it = table.find(h);
    return it == table.end() ? nullptr : &it->second;
  };
}

/// Serial hash join, streaming row emission (the chunk_rows = 0 reference
/// kernel of the materializing join and of the streaming aggregate root).
template <typename Emit>
void RunHashJoin(const HashJoinPlan& plan, const BindingTable& build,
                 const BindingTable& probe, Emit&& emit) {
  if (plan.build_key.empty()) {
    CrossJoinRange(plan, build, probe, 0, build.num_rows(), emit);
    return;
  }
  const HashBuckets table = BuildHashTable(plan, build);
  ProbeHashRange(plan, build, probe, 0, probe.num_rows(), BucketLookup(table),
                 emit);
}

// ---------------------------------------------------------------------------
// Morsel-parallel drivers
//
// Both drivers share one determinism recipe: the probe-side input is cut
// into fixed `morsel_size`-row slices, slice m writes only into its own
// output table and counter slot, and the slices are concatenated in slice
// order afterwards. Because the serial kernels emit in input-row order,
// the merged table is byte-identical to a serial run for every thread
// count, morsel size, and scheduling interleaving; the counters are
// integers, so their reduction is order-independent too. Workers touch
// only read-only state (store, materialized inputs) — never the
// dictionary, which interns lazily on the calling thread.
// ---------------------------------------------------------------------------

/// The shared morsel scaffold: cuts [0, n) into `morsel_size`-row slices,
/// runs kernel(row_lo, row_hi, &slice) per slice on the pool (one slice =
/// one scheduling unit), merges the private slice tables into `out` in
/// slice order, and returns the sum of the kernels' counter results.
template <typename Kernel>
uint64_t ForEachMorselSlice(util::ThreadPool* pool, uint64_t n,
                            uint64_t morsel_size,
                            const std::vector<std::string>& out_vars,
                            BindingTable* out, Kernel&& kernel) {
  const uint64_t num_morsels = (n + morsel_size - 1) / morsel_size;
  std::vector<BindingTable> slices(num_morsels, BindingTable(out_vars));
  std::vector<uint64_t> counters(num_morsels, 0);
  pool->ParallelFor(
      0, num_morsels,
      [&](uint64_t lo, uint64_t hi) {
        for (uint64_t m = lo; m < hi; ++m) {
          size_t row_lo = static_cast<size_t>(m * morsel_size);
          size_t row_hi = static_cast<size_t>(
              std::min<uint64_t>(n, row_lo + morsel_size));
          counters[m] = kernel(row_lo, row_hi, &slices[m]);
        }
      },
      /*chunk=*/1);
  size_t total_rows = 0;
  for (const BindingTable& s : slices) total_rows += s.num_rows();
  out->Reserve(total_rows);
  uint64_t total_counter = 0;
  for (uint64_t m = 0; m < num_morsels; ++m) {
    out->Append(slices[m]);
    total_counter += counters[m];
  }
  return total_counter;
}

/// Build-side hash table partitioned by join-key hash. Partition p holds
/// exactly the build rows whose key hash routes to p, bucketed by the full
/// hash with ascending row ids — the same rows, in the same order, a
/// single-table build would store for those keys, so probe results are
/// independent of the partition count.
struct PartitionedHashTable {
  std::vector<std::unordered_map<uint64_t, std::vector<uint32_t>>> parts;
};

PartitionedHashTable BuildPartitioned(const HashJoinPlan& plan,
                                      const BindingTable& build,
                                      size_t num_partitions,
                                      util::ThreadPool* pool) {
  PartitionedHashTable table;
  table.parts.resize(num_partitions);
  const size_t n = build.num_rows();
  // Pass 1: key hashes, computed column-wise in parallel.
  std::vector<uint64_t> hashes(n);
  pool->ParallelFor(0, n, [&](uint64_t lo, uint64_t hi) {
    ComputeKeyHashes(build, plan.build_key, static_cast<size_t>(lo),
                     static_cast<size_t>(hi), hashes.data() + lo);
  });
  // Pass 2: bucket ascending row ids per partition. A single serial pass:
  // trivially order-preserving and O(n) appends — cheap next to hashing
  // and map construction.
  std::vector<std::vector<uint32_t>> rows_of(num_partitions);
  for (size_t i = 0; i < n; ++i) {
    rows_of[hashes[i] % num_partitions].push_back(static_cast<uint32_t>(i));
  }
  // Pass 3: per-partition map construction in parallel; each builder only
  // touches its own rows, and ascending insertion preserves the bucket
  // order a single-table build would produce.
  pool->ParallelFor(
      0, num_partitions,
      [&](uint64_t lo, uint64_t hi) {
        for (uint64_t p = lo; p < hi; ++p) {
          auto& part = table.parts[p];
          part.reserve(rows_of[p].size() * 2);
          for (uint32_t i : rows_of[p]) {
            part[hashes[i]].push_back(i);
          }
        }
      },
      /*chunk=*/1);
  return table;
}

/// Output rows a serial join reserves before it runs: the optimizer's
/// estimate, so that an accurate estimate leaves nothing for GrowFor to
/// regrow (each regrowth briefly holds the old and the new column), capped
/// at kMaxPresizeRows so an overestimate reserves at most that much
/// untouched capacity per column. An underestimate just grows from there.
constexpr double kMaxPresizeRows = 1 << 22;

size_t PresizeRows(const opt::PlanNode& join) {
  const double est = join.est_cardinality;
  if (!(est > 0)) return 0;  // no estimate (hand-built plans), or NaN
  return static_cast<size_t>(std::min(est, kMaxPresizeRows));
}

/// Filter compiled against a concrete schema for per-row evaluation.
struct CompiledFilter {
  const sparql::FilterCondition* f = nullptr;
  int lhs_col = -1;
  int rhs_col = -1;           // -1: constant
  TermId rhs_const = rdf::kInvalidTermId;
};

/// One columnar window of the streaming aggregate's root output. Only the
/// columns some consumer reads are filled (the rest stay empty), and the
/// buffers are reused window after window.
struct RootWindow {
  explicit RootWindow(size_t width) : cols(width), needed(width, 0) {}

  void need(int c) {
    if (c >= 0) needed[static_cast<size_t>(c)] = 1;
  }
  /// The materializers' column accessor: nullptr for unread columns.
  auto Dst() {
    return [this](size_t c) -> std::vector<TermId>* {
      return needed[c] ? &cols[c] : nullptr;
    };
  }
  /// Appends one emitted row's read columns; returns the new row count.
  size_t AppendRow(std::span<const TermId> row) {
    for (size_t c = 0; c < cols.size(); ++c) {
      if (needed[c]) cols[c].push_back(row[c]);
    }
    return ++rows;
  }
  void Clear() {
    for (auto& c : cols) c.clear();
    rows = 0;
  }

  std::vector<std::vector<TermId>> cols;
  std::vector<char> needed;
  size_t rows = 0;
};

/// Constant-rhs filter evaluator for the vectorized path: an exact
/// transcription of Executor::EvalFilter + rdf::Term::Compare with every
/// rhs-only quantity — kind rank, numeric decode (one strtod instead of
/// one per row) — hoisted out of the loop. Decision-for-decision identical
/// to the reference kernel by construction; the chunk-size differential
/// tests pin it to EvalFilter (the chunk_rows = 0 path).
struct ConstRhsFilter {
  const sparql::FilterCondition* f = nullptr;
  TermId rhs = rdf::kInvalidTermId;
  rdf::TermView b;  // meaningful only when rhs != kInvalidTermId
  int rank_b = 0;
  bool b_numeric = false;
  std::optional<double> b_num;

  static int Rank(const rdf::TermView& t) {
    if (t.is_blank()) return 0;
    if (t.is_iri()) return 1;
    return 2;  // literal
  }

  void Prepare(const sparql::FilterCondition& filter, TermId rhs_const,
               const DictAccess& dict) {
    f = &filter;
    rhs = rhs_const;
    if (rhs == rdf::kInvalidTermId) return;
    b = dict.term(rhs);
    rank_b = Rank(b);
    b_numeric = b.is_numeric();
    if (b_numeric) b_num = b.AsDouble();
  }

  bool Eval(TermId lhs, const DictAccess& dict) const {
    using sparql::CompareOp;
    if (f->op == CompareOp::kEq && lhs == rhs) return true;
    if (f->op == CompareOp::kNe && lhs == rhs) return false;
    if (lhs == rdf::kInvalidTermId || rhs == rdf::kInvalidTermId) {
      return f->op == CompareOp::kNe;
    }
    const rdf::TermView a = dict.term(lhs);
    int cmp;
    int rank_a = Rank(a);
    if (rank_a != rank_b) {
      cmp = rank_a < rank_b ? -1 : 1;
    } else {
      cmp = 2;  // sentinel: not decided yet
      if (a.is_literal() && a.is_numeric() && b_numeric) {
        auto a_num = a.AsDouble();
        if (a_num && b_num) {
          cmp = *a_num < *b_num ? -1 : (*a_num > *b_num ? 1 : 0);
        }
      }
      if (cmp == 2) {
        int c = a.lexical.compare(b.lexical);
        if (c == 0) c = a.datatype.compare(b.datatype);
        if (c == 0) c = a.lang.compare(b.lang);
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
    }
    switch (f->op) {
      case CompareOp::kEq: return cmp == 0;
      case CompareOp::kNe: return cmp != 0;
      case CompareOp::kLt: return cmp < 0;
      case CompareOp::kLe: return cmp <= 0;
      case CompareOp::kGt: return cmp > 0;
      case CompareOp::kGe: return cmp >= 0;
    }
    return false;
  }
};

}  // namespace

Result<BindingTable> Executor::ExecScan(const SelectQuery& query,
                                        const opt::PlanNode& node,
                                        std::vector<char>* filter_done,
                                        ExecutionStats* stats) {
  const TriplePattern& tp = query.patterns[node.pattern_index];
  if (tp.s.is_param() || tp.p.is_param() || tp.o.is_param()) {
    return Status::InvalidArgument("executor got an unbound %parameter");
  }

  std::vector<std::string> vars = tp.Variables();
  BindingTable out(vars);

  TermId s = kWildcardId, p = kWildcardId, o = kWildcardId;
  if (tp.s.is_const() && !ResolveConst(tp.s, dacc_, &s)) return out;
  if (tp.p.is_const() && !ResolveConst(tp.p, dacc_, &p)) return out;
  if (tp.o.is_const() && !ResolveConst(tp.o, dacc_, &o)) return out;

  int s_col = tp.s.is_var() ? out.VarIndex(tp.s.name) : -1;
  int p_col = tp.p.is_var() ? out.VarIndex(tp.p.name) : -1;
  int o_col = tp.o.is_var() ? out.VarIndex(tp.o.name) : -1;

  bool s_eq_p = tp.s.is_var() && tp.p.is_var() && tp.s.name == tp.p.name;
  bool s_eq_o = tp.s.is_var() && tp.o.is_var() && tp.s.name == tp.o.name;
  bool p_eq_o = tp.p.is_var() && tp.o.is_var() && tp.p.name == tp.o.name;

  auto range = store_.Range(store_.ChooseIndex(s, p, o), s, p, o);
  if (chunk_rows_ > 0 && !s_eq_p && !s_eq_o && !p_eq_o) {
    // Columnar fill: without repeated-variable constraints every matching
    // triple survives and each variable owns one column, so the output is
    // one strided pass per bound column over the contiguous index run.
    out.Reserve(range.size());
    if (s_col >= 0) {
      auto& dst = out.MutableCol(static_cast<size_t>(s_col));
      for (const rdf::Triple& t : range) dst.push_back(t.s);
    }
    if (p_col >= 0) {
      auto& dst = out.MutableCol(static_cast<size_t>(p_col));
      for (const rdf::Triple& t : range) dst.push_back(t.p);
    }
    if (o_col >= 0) {
      auto& dst = out.MutableCol(static_cast<size_t>(o_col));
      for (const rdf::Triple& t : range) dst.push_back(t.o);
    }
    out.CheckAligned();
  } else {
    std::vector<TermId> row(vars.size());
    out.Reserve(range.size());
    for (const rdf::Triple& t : range) {
      if (s_eq_p && t.s != t.p) continue;
      if (s_eq_o && t.s != t.o) continue;
      if (p_eq_o && t.p != t.o) continue;
      if (s_col >= 0) row[static_cast<size_t>(s_col)] = t.s;
      if (p_col >= 0) row[static_cast<size_t>(p_col)] = t.p;
      if (o_col >= 0) row[static_cast<size_t>(o_col)] = t.o;
      out.AppendRow(row);
    }
  }
  stats->scan_rows += out.num_rows();
  RDFPARAMS_RETURN_NOT_OK(ApplyFilters(query, filter_done, &out));
  return out;
}

Result<BindingTable> Executor::ExecIndexJoin(const SelectQuery& query,
                                             const opt::PlanNode& join,
                                             const opt::PlanNode& outer,
                                             const opt::PlanNode& inner_scan,
                                             std::vector<char>* filter_done,
                                             ExecutionStats* stats) {
  RDFPARAMS_ASSIGN_OR_RETURN(
      BindingTable outer_table, ExecNode(query, outer, filter_done, stats));
  const TriplePattern& tp = query.patterns[inner_scan.pattern_index];
  RDFPARAMS_ASSIGN_OR_RETURN(IndexJoinPlan plan,
                             PrepareIndexJoin(tp, outer_table.vars(), dacc_));
  BindingTable out(plan.out_vars);

  const MergeJoinChoice merge = ChooseMergeJoin(
      store_, plan, outer_table, join.merge_join_hint, enable_merge_join_);
  const bool chunked = chunk_rows_ > 0 && !plan.repeated_free;

  // One outer-row slice, through whichever kernel pair the options chose.
  // Each slice gets a private sweep cursor: within a slice of a globally
  // sorted key column the keys are still non-decreasing, so the morsel
  // driver composes with the merge join unchanged.
  auto run_slice = [&](size_t row_lo, size_t row_hi,
                       BindingTable* slice) -> uint64_t {
    auto probe_range = [&](TermId s, TermId p, TermId o) {
      return store_.Range(store_.ChooseIndex(s, p, o), s, p, o);
    };
    auto row_emit = [&](std::span<const TermId> row) {
      slice->AppendRow(row);
    };
    if (merge.use) {
      rdf::PatternSweep sweep(store_, merge.key_pos, plan.cs, plan.cp,
                              plan.co);
      auto sweep_range = [&](TermId s, TermId p, TermId o) {
        return sweep.Next(GetPos(rdf::Triple(s, p, o), merge.key_pos));
      };
      return chunked ? RunIndexJoinChunked(plan, outer_table, row_lo, row_hi,
                                           chunk_rows_, sweep_range, slice)
                     : RunIndexJoinRows(plan, outer_table, row_lo, row_hi,
                                        sweep_range, row_emit);
    }
    return chunked ? RunIndexJoinChunked(plan, outer_table, row_lo, row_hi,
                                         chunk_rows_, probe_range, slice)
                   : RunIndexJoinRows(plan, outer_table, row_lo, row_hi,
                                      probe_range, row_emit);
  };

  if (exec_threads_ > 1 && outer_table.num_rows() > morsel_size_) {
    stats->scan_rows +=
        ForEachMorselSlice(EnsurePool(), outer_table.num_rows(), morsel_size_,
                           plan.out_vars, &out, run_slice);
  } else {
    out.Reserve(PresizeRows(join));
    stats->scan_rows += run_slice(0, outer_table.num_rows(), &out);
  }
  stats->intermediate_rows += out.num_rows();
  RDFPARAMS_RETURN_NOT_OK(ApplyFilters(query, filter_done, &out));
  return out;
}

Result<BindingTable> Executor::ExecJoin(const SelectQuery& query,
                                        const opt::PlanNode& node,
                                        std::vector<char>* filter_done,
                                        ExecutionStats* stats) {
  // Prefer an index nested-loop join when either input is a bare scan: the
  // scan side is probed through the store's indexes, never materialized.
  if (node.right->is_scan()) {
    return ExecIndexJoin(query, node, *node.left, *node.right, filter_done,
                         stats);
  }
  if (node.left->is_scan()) {
    return ExecIndexJoin(query, node, *node.right, *node.left, filter_done,
                         stats);
  }
  RDFPARAMS_ASSIGN_OR_RETURN(
      BindingTable build, ExecNode(query, *node.left, filter_done, stats));
  RDFPARAMS_ASSIGN_OR_RETURN(
      BindingTable probe, ExecNode(query, *node.right, filter_done, stats));
  HashJoinPlan plan = PrepareHashJoin(build.vars(), probe.vars());
  BindingTable out(plan.out_vars);
  if (exec_threads_ > 1 &&
      build.num_rows() + probe.num_rows() > morsel_size_) {
    // The optimizer's hint is a floor, not a ceiling: when the estimate
    // undershoots the actual build size, resize from the materialized row
    // count (both inputs are thread-count-independent, so the partition
    // count — which never affects results anyway — stays deterministic).
    size_t partitions = std::max<size_t>(
        node.partition_hint,
        opt::HashJoinPartitionHint(static_cast<double>(build.num_rows())));
    if (plan.build_key.empty()) {
      // Cross product: morsels over the build side (the serial outer
      // loop), through the same kernel the serial join uses.
      ForEachMorselSlice(
          EnsurePool(), build.num_rows(), morsel_size_, plan.out_vars, &out,
          [&](size_t row_lo, size_t row_hi, BindingTable* slice) {
            CrossJoinRange(plan, build, probe, row_lo, row_hi,
                           [&](std::span<const TermId> row) {
                             slice->AppendRow(row);
                           });
            return uint64_t{0};
          });
    } else {
      PartitionedHashTable table =
          BuildPartitioned(plan, build, partitions, EnsurePool());
      auto lookup = [&](uint64_t h) -> const std::vector<uint32_t>* {
        const auto& part = table.parts[h % partitions];
        auto it = part.find(h);
        return it == part.end() ? nullptr : &it->second;
      };
      ForEachMorselSlice(
          EnsurePool(), probe.num_rows(), morsel_size_, plan.out_vars, &out,
          [&](size_t row_lo, size_t row_hi, BindingTable* slice) {
            if (chunk_rows_ > 0) {
              ProbeHashChunked(plan, build, probe, row_lo, row_hi,
                               chunk_rows_, lookup, slice);
            } else {
              ProbeHashRange(plan, build, probe, row_lo, row_hi, lookup,
                             [&](std::span<const TermId> row) {
                               slice->AppendRow(row);
                             });
            }
            return uint64_t{0};
          });
    }
  } else if (chunk_rows_ > 0 && !plan.build_key.empty()) {
    out.Reserve(PresizeRows(node));
    const HashBuckets table = BuildHashTable(plan, build);
    ProbeHashChunked(plan, build, probe, 0, probe.num_rows(), chunk_rows_,
                     BucketLookup(table), &out);
  } else {
    out.Reserve(PresizeRows(node));
    RunHashJoin(plan, build, probe,
                [&](std::span<const TermId> row) { out.AppendRow(row); });
  }
  stats->intermediate_rows += out.num_rows();
  RDFPARAMS_RETURN_NOT_OK(ApplyFilters(query, filter_done, &out));
  return out;
}

Result<BindingTable> Executor::ExecNode(const SelectQuery& query,
                                        const opt::PlanNode& node,
                                        std::vector<char>* filter_done,
                                        ExecutionStats* stats) {
  if (node.is_scan()) return ExecScan(query, node, filter_done, stats);
  return ExecJoin(query, node, filter_done, stats);
}

bool Executor::EvalFilter(const sparql::FilterCondition& f, TermId lhs,
                          TermId rhs) const {
  using sparql::CompareOp;
  if (f.op == CompareOp::kEq && lhs == rhs) return true;
  if (f.op == CompareOp::kNe && lhs == rhs) return false;
  if (lhs == rdf::kInvalidTermId || rhs == rdf::kInvalidTermId) {
    return f.op == CompareOp::kNe;
  }
  const rdf::TermView a = dacc_.term(lhs);
  const rdf::TermView b = dacc_.term(rhs);
  int cmp = a.Compare(b);
  switch (f.op) {
    case CompareOp::kEq: return cmp == 0;
    case CompareOp::kNe: return cmp != 0;
    case CompareOp::kLt: return cmp < 0;
    case CompareOp::kLe: return cmp <= 0;
    case CompareOp::kGt: return cmp > 0;
    case CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

Status Executor::ApplyFilters(const SelectQuery& query,
                              std::vector<char>* filter_done,
                              BindingTable* table) {
  for (size_t fi = 0; fi < query.filters.size(); ++fi) {
    if ((*filter_done)[fi]) continue;
    const sparql::FilterCondition& f = query.filters[fi];
    int lhs_col = table->VarIndex(f.lhs_var);
    if (lhs_col < 0) continue;
    int rhs_col = -1;
    TermId rhs_const = rdf::kInvalidTermId;
    if (f.rhs.is_var()) {
      rhs_col = table->VarIndex(f.rhs.name);
      if (rhs_col < 0) continue;  // not yet available
    } else if (f.rhs.is_const()) {
      // Intern so comparisons against fresh constants work numerically.
      rhs_const = dacc_.Intern(f.rhs.term);
    } else {
      return Status::InvalidArgument("filter still has an unbound %parameter");
    }
    (*filter_done)[fi] = 1;

    BindingTable kept(table->vars());
    const size_t n = table->num_rows();
    if (chunk_rows_ == 0) {
      // Row-at-a-time reference path: evaluate and copy row by row.
      std::vector<TermId> row(table->num_vars());
      for (size_t r = 0; r < n; ++r) {
        TermId lhs = table->at(r, static_cast<size_t>(lhs_col));
        TermId rhs = rhs_col >= 0 ? table->at(r, static_cast<size_t>(rhs_col))
                                  : rhs_const;
        if (!EvalFilter(f, lhs, rhs)) continue;
        for (size_t c = 0; c < row.size(); ++c) row[c] = table->at(r, c);
        kept.AppendRow(row);
      }
    } else {
      // Vectorized path: evaluate over the lhs/rhs columns only, build a
      // per-chunk selection vector, gather survivors column-wise. With a
      // constant rhs, everything about the rhs term — kind rank, numeric
      // decode — is hoisted out of the loop (see ConstRhsFilter), where the
      // reference kernel re-derives it per row inside Term::Compare.
      std::span<const TermId> lhs_vals =
          table->col(static_cast<size_t>(lhs_col));
      std::span<const TermId> rhs_vals;
      if (rhs_col >= 0) rhs_vals = table->col(static_cast<size_t>(rhs_col));
      ConstRhsFilter const_eval;
      if (rhs_col < 0) const_eval.Prepare(f, rhs_const, dacc_);
      std::vector<uint32_t> sel;
      sel.reserve(static_cast<size_t>(
          std::min<uint64_t>(chunk_rows_, static_cast<uint64_t>(n))));
      for (size_t lo = 0; lo < n; lo += static_cast<size_t>(chunk_rows_)) {
        const size_t hi =
            std::min(n, lo + static_cast<size_t>(chunk_rows_));
        sel.clear();
        if (rhs_col >= 0) {
          for (size_t r = lo; r < hi; ++r) {
            if (EvalFilter(f, lhs_vals[r], rhs_vals[r])) {
              sel.push_back(static_cast<uint32_t>(r));
            }
          }
        } else {
          for (size_t r = lo; r < hi; ++r) {
            if (const_eval.Eval(lhs_vals[r], dacc_)) {
              sel.push_back(static_cast<uint32_t>(r));
            }
          }
        }
        kept.AppendGather(*table, sel);
      }
    }
    *table = std::move(kept);
  }
  return Status::OK();
}

Status Executor::SortRows(const SelectQuery& query, BindingTable* table) {
  if (query.order_by.empty() || table->num_rows() == 0) return Status::OK();
  std::vector<int> key_cols;
  std::vector<bool> desc;
  for (const sparql::OrderKey& k : query.order_by) {
    int c = table->VarIndex(k.var);
    if (c < 0) {
      return Status::InvalidArgument("ORDER BY variable ?" + k.var +
                                     " not available");
    }
    key_cols.push_back(c);
    desc.push_back(k.descending);
  }
  // Decode each distinct key term once into a totally-ranked sort key so
  // the comparator never re-parses lexical forms. Rank: blanks < IRIs <
  // numeric literals < other literals, numerics by value with NaN after
  // every number. Separating numeric from non-numeric literals by rank
  // (instead of comparing them lexicographically as Term::Compare would)
  // keeps the comparator a strict weak ordering — mixing numeric and
  // lexicographic comparisons in one column is not transitive, and the
  // parallel merge (like std::stable_sort itself) requires strictness.
  struct DecodedKey {
    uint8_t rank = 3;
    bool is_nan = false;
    double value = 0;
  };
  std::unordered_map<TermId, DecodedKey> decoded;
  auto decode = [&](TermId id) {
    auto it = decoded.find(id);
    if (it != decoded.end()) return;
    DecodedKey key;
    const rdf::TermView term = dacc_.term(id);
    if (term.is_blank()) {
      key.rank = 0;
    } else if (term.is_iri()) {
      key.rank = 1;
    } else if (term.is_numeric()) {
      if (auto v = term.AsDouble()) {
        key.rank = 2;
        key.is_nan = std::isnan(*v);
        key.value = *v;
      }
    }
    decoded.emplace(id, key);
  };
  // One contiguous pass per key column (the column-major layout's natural
  // decode order; the memo makes visit order irrelevant to the values).
  std::vector<std::span<const TermId>> key_vals;
  for (int c : key_cols) {
    key_vals.push_back(table->col(static_cast<size_t>(c)));
    for (TermId id : key_vals.back()) decode(id);
  }
  auto cmp_ids = [&](TermId va, TermId vb) -> int {
    if (va == vb) return 0;
    const DecodedKey& ka = decoded.find(va)->second;
    const DecodedKey& kb = decoded.find(vb)->second;
    if (ka.rank != kb.rank) return ka.rank < kb.rank ? -1 : 1;
    if (ka.rank == 2) {
      if (ka.is_nan || kb.is_nan) {
        if (ka.is_nan == kb.is_nan) return 0;  // NaN ties with NaN only
        return kb.is_nan ? -1 : 1;             // numbers before NaN
      }
      return ka.value < kb.value ? -1 : (ka.value > kb.value ? 1 : 0);
    }
    return dacc_.term(va).Compare(dacc_.term(vb));
  };
  auto less = [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      int cmp = cmp_ids(key_vals[k][a], key_vals[k][b]);
      if (cmp == 0) continue;
      return desc[k] ? cmp > 0 : cmp < 0;
    }
    return false;
  };
  // Identical permutation with or without the pool (see parallel_sort.h);
  // the pool only buys wall time on large inputs.
  const bool parallel = exec_threads_ > 1 && parallel_sort_ &&
                        table->num_rows() > morsel_size_;
  std::vector<uint32_t> order =
      StableSortPermutation(table->num_rows(), less,
                            parallel ? EnsurePool() : nullptr, morsel_size_);
  BindingTable sorted(table->vars());
  sorted.AppendGather(*table, order);
  *table = std::move(sorted);
  return Status::OK();
}

void Executor::DeduplicatePreservingOrder(BindingTable* table) {
  const size_t n = table->num_rows();
  // Row hashes computed column-wise; the combine order (column 0, 1, ...)
  // matches the old row-major loop, so the hashes are identical.
  std::vector<uint64_t> hashes(n, 0x9e3779b9);
  for (size_t c = 0; c < table->num_vars(); ++c) {
    std::span<const TermId> col = table->col(c);
    for (size_t r = 0; r < n; ++r) {
      hashes[r] = util::HashCombine(hashes[r], col[r]);
    }
  }
  auto rows_equal = [&](size_t a, size_t b) {
    for (size_t c = 0; c < table->num_vars(); ++c) {
      if (table->at(a, c) != table->at(b, c)) return false;
    }
    return true;
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> seen;
  std::vector<uint32_t> keep;
  for (size_t r = 0; r < n; ++r) {
    std::vector<uint32_t>& bucket = seen[hashes[r]];
    bool dup = false;
    for (uint32_t prev : bucket) {
      if (rows_equal(prev, r)) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      bucket.push_back(static_cast<uint32_t>(r));
      keep.push_back(static_cast<uint32_t>(r));
    }
  }
  BindingTable out(table->vars());
  out.AppendGather(*table, keep);
  *table = std::move(out);
}

void Executor::ApplyLimitOffset(const SelectQuery& query,
                                BindingTable* table) {
  if (query.offset <= 0 && query.limit < 0) return;
  size_t begin = std::min<size_t>(static_cast<size_t>(
                                      std::max<int64_t>(query.offset, 0)),
                                  table->num_rows());
  size_t end = table->num_rows();
  if (query.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(query.limit));
  }
  BindingTable out(table->vars());
  out.AppendRange(*table, begin, end);
  *table = std::move(out);
}

Result<BindingTable> Executor::ApplyModifiers(const SelectQuery& query,
                                              BindingTable table) {
  // 1. GROUP BY + aggregates (when not already done by the streaming
  // path): the canonical sliced reduction of group_merge.h, on the pool
  // when the options allow it — same result either way.
  if (!query.aggregates.empty()) {
    const bool parallel = exec_threads_ > 1 && parallel_group_by_ &&
                          table.num_rows() > kAggSliceRows;
    RDFPARAMS_ASSIGN_OR_RETURN(
        table, GroupByAggregate(query, table, &dacc_,
                                parallel ? EnsurePool() : nullptr));
  }
  return FinishModifiers(query, std::move(table));
}

Result<BindingTable> Executor::FinishModifiers(const SelectQuery& query,
                                               BindingTable table) {
  // 2. Projection (before DISTINCT, which SPARQL applies post-projection).
  std::vector<std::string> proj = query.select_vars;
  if (!query.aggregates.empty()) {
    if (proj.empty()) {
      proj = table.vars();  // group keys + aggregate outputs
    } else {
      for (const sparql::Aggregate& a : query.aggregates) {
        if (std::find(proj.begin(), proj.end(), a.as_name) == proj.end()) {
          proj.push_back(a.as_name);
        }
      }
    }
  }
  if (!proj.empty()) {
    std::vector<int> cols;
    for (const std::string& v : proj) {
      int c = table.VarIndex(v);
      if (c < 0) {
        return Status::InvalidArgument("SELECT variable ?" + v +
                                       " not bound by the pattern");
      }
      cols.push_back(c);
    }
    bool keys_survive = true;
    for (const sparql::OrderKey& k : query.order_by) {
      if (std::find(proj.begin(), proj.end(), k.var) == proj.end()) {
        keys_survive = false;
        break;
      }
    }
    if (!keys_survive) {
      RDFPARAMS_RETURN_NOT_OK(SortRows(query, &table));
    }
    // Projection is a column permutation (with possible duplicates): one
    // whole-column copy per projected column, no per-row loop.
    BindingTable out(proj);
    for (size_t k = 0; k < cols.size(); ++k) {
      std::span<const TermId> src =
          table.col(static_cast<size_t>(cols[k]));
      out.MutableCol(k).assign(src.begin(), src.end());
    }
    out.CheckAligned();
    if (!keys_survive) {
      table = std::move(out);
      if (query.distinct) DeduplicatePreservingOrder(&table);
      ApplyLimitOffset(query, &table);
      return table;
    }
    table = std::move(out);
  }

  // 3. DISTINCT.
  if (query.distinct) DeduplicatePreservingOrder(&table);

  // 4. ORDER BY.
  RDFPARAMS_RETURN_NOT_OK(SortRows(query, &table));

  // 5. OFFSET / LIMIT.
  ApplyLimitOffset(query, &table);
  return table;
}

Result<BindingTable> Executor::ExecuteStreamingAggregate(
    const SelectQuery& query, const opt::PlanNode& root,
    std::vector<char>* filter_done, ExecutionStats* stats) {
  // Execute children normally (their filters apply inside), then stream
  // the root join's output straight into the group-by sink in columnar
  // windows — the root output is never materialized. This is what lets
  // cross-product aggregates (BSBM-BI Q4's with/without price ratio) run
  // at generic product types without exhausting memory.
  RDFPARAMS_DCHECK(root.is_join());

  // Figure out the output schema and the window source. `produce(window,
  // window_rows, consume)` fills `window` and hands it to consume()
  // whenever it holds window_rows rows; the caller flushes the rest.
  auto stream = [&](const std::vector<std::string>& schema,
                    auto&& produce) -> Result<BindingTable> {
    // Compile remaining filters against the root schema.
    std::vector<CompiledFilter> filters;
    for (size_t fi = 0; fi < query.filters.size(); ++fi) {
      if ((*filter_done)[fi]) continue;
      const sparql::FilterCondition& f = query.filters[fi];
      CompiledFilter cf;
      cf.f = &f;
      for (size_t i = 0; i < schema.size(); ++i) {
        if (schema[i] == f.lhs_var) cf.lhs_col = static_cast<int>(i);
        if (f.rhs.is_var() && schema[i] == f.rhs.name) {
          cf.rhs_col = static_cast<int>(i);
        }
      }
      if (cf.lhs_col < 0) continue;
      if (f.rhs.is_var() && cf.rhs_col < 0) continue;
      if (f.rhs.is_param()) {
        return Status::InvalidArgument(
            "filter still has an unbound %parameter");
      }
      if (f.rhs.is_const()) {
        cf.rhs_const = dacc_.Intern(f.rhs.term);
      }
      (*filter_done)[fi] = 1;
      filters.push_back(cf);
    }
    // Prepared after all interning, so the hoisted rhs views stay valid.
    std::vector<ConstRhsFilter> const_evals(filters.size());
    for (size_t k = 0; k < filters.size(); ++k) {
      if (filters[k].rhs_col < 0) {
        const_evals[k].Prepare(*filters[k].f, filters[k].rhs_const, dacc_);
      }
    }

    RDFPARAMS_ASSIGN_OR_RETURN(GroupBySpec spec,
                               GroupBySpec::Compile(query, schema));
    // The root probe stays on the calling thread (it feeds this sink in a
    // fixed stream order), but full canonical slices of its output are
    // reduced on the pool while the stream keeps producing.
    const bool parallel = exec_threads_ > 1 && parallel_group_by_;
    GroupByStream sink(&spec, dacc_, parallel ? EnsurePool() : nullptr,
                       /*max_pending=*/exec_threads_ + 1);

    // Only the columns the filters, group keys and aggregate values read
    // are filled; the rest of the window stays empty.
    RootWindow window(schema.size());
    for (const CompiledFilter& cf : filters) {
      window.need(cf.lhs_col);
      window.need(cf.rhs_col);
    }
    for (int c : spec.group_cols) window.need(c);
    for (size_t a = 0; a < spec.n_agg; ++a) {
      if (spec.needs_value[a]) window.need(spec.agg_cols[a]);
    }

    uint64_t rows = 0;
    std::vector<std::span<const TermId>> views(schema.size());
    std::vector<uint32_t> sel;
    auto consume = [&](RootWindow& w) {
      if (w.rows == 0) return;
      rows += w.rows;
      for (size_t c = 0; c < views.size(); ++c) views[c] = w.cols[c];
      if (filters.empty()) {
        sink.Add(views, nullptr, w.rows);
        w.Clear();
        return;
      }
      // Residual filters as a selection vector, narrowed filter by filter.
      sel.resize(w.rows);
      std::iota(sel.begin(), sel.end(), uint32_t{0});
      for (size_t k = 0; k < filters.size(); ++k) {
        const CompiledFilter& cf = filters[k];
        std::span<const TermId> lhs = views[static_cast<size_t>(cf.lhs_col)];
        std::span<const TermId> rhs;
        if (cf.rhs_col >= 0) rhs = views[static_cast<size_t>(cf.rhs_col)];
        size_t kept = 0;
        for (uint32_t r : sel) {
          bool pass;
          if (cf.rhs_col >= 0) {
            pass = EvalFilter(*cf.f, lhs[r], rhs[r]);
          } else if (chunk_rows_ == 0) {  // the reference kernel
            pass = EvalFilter(*cf.f, lhs[r], cf.rhs_const);
          } else {
            pass = const_evals[k].Eval(lhs[r], dacc_);
          }
          if (pass) sel[kept++] = r;
        }
        sel.resize(kept);
      }
      sink.Add(views, sel.data(), sel.size());
      w.Clear();
    };
    const size_t window_rows =
        chunk_rows_ > 0 ? static_cast<size_t>(chunk_rows_) : 1024;
    produce(window, window_rows, consume);
    consume(window);
    stats->intermediate_rows += rows;
    RDFPARAMS_ASSIGN_OR_RETURN(BindingTable grouped, sink.Finish(&dacc_));
    return FinishModifiers(query, std::move(grouped));
  };

  if (root.right->is_scan() || root.left->is_scan()) {
    const opt::PlanNode& outer =
        root.right->is_scan() ? *root.left : *root.right;
    const opt::PlanNode& inner =
        root.right->is_scan() ? *root.right : *root.left;
    RDFPARAMS_ASSIGN_OR_RETURN(
        BindingTable outer_table, ExecNode(query, outer, filter_done, stats));
    const TriplePattern& tp = query.patterns[inner.pattern_index];
    RDFPARAMS_ASSIGN_OR_RETURN(
        IndexJoinPlan plan, PrepareIndexJoin(tp, outer_table.vars(), dacc_));
    // The root probe runs serially so the sink sees one fixed stream
    // order (the determinism anchor for floating-point sums); the sink
    // itself reduces full slices on the pool, and child nodes above
    // already ran with the parallel operators. The merge sweep slots in
    // when chosen — it feeds the sink the identical row sequence.
    const MergeJoinChoice merge =
        ChooseMergeJoin(store_, plan, outer_table, root.merge_join_hint,
                        enable_merge_join_);
    const bool chunked = chunk_rows_ > 0 && !plan.repeated_free;
    return stream(plan.out_vars, [&](RootWindow& w, size_t window_rows,
                                     auto&& consume) {
      auto run = [&](auto&& range_for) {
        if (chunked) {
          return ForEachIndexJoinWindow(
              plan, outer_table, 0, outer_table.num_rows(), window_rows,
              range_for,
              [&](std::span<const uint32_t> rows,
                  std::span<const rdf::Triple* const> triples) {
                MaterializeIndexJoinWindow(plan, outer_table, rows, triples,
                                           w.Dst());
                w.rows = rows.size();
                consume(w);
              });
        }
        return RunIndexJoinRows(plan, outer_table, 0, outer_table.num_rows(),
                                range_for,
                                [&](std::span<const TermId> row) {
                                  if (w.AppendRow(row) == window_rows) {
                                    consume(w);
                                  }
                                });
      };
      if (merge.use) {
        rdf::PatternSweep sweep(store_, merge.key_pos, plan.cs, plan.cp,
                                plan.co);
        stats->scan_rows += run([&](TermId s, TermId p, TermId o) {
          return sweep.Next(GetPos(rdf::Triple(s, p, o), merge.key_pos));
        });
      } else {
        stats->scan_rows += run([&](TermId s, TermId p, TermId o) {
          return store_.Range(store_.ChooseIndex(s, p, o), s, p, o);
        });
      }
    });
  }
  RDFPARAMS_ASSIGN_OR_RETURN(
      BindingTable build, ExecNode(query, *root.left, filter_done, stats));
  RDFPARAMS_ASSIGN_OR_RETURN(
      BindingTable probe, ExecNode(query, *root.right, filter_done, stats));
  HashJoinPlan plan = PrepareHashJoin(build.vars(), probe.vars());
  return stream(plan.out_vars, [&](RootWindow& w, size_t window_rows,
                                   auto&& consume) {
    if (chunk_rows_ == 0) {
      RunHashJoin(plan, build, probe, [&](std::span<const TermId> row) {
        if (w.AppendRow(row) == window_rows) consume(w);
      });
    } else if (plan.build_key.empty()) {
      // Cross product: (build row, probe rows) runs, cut to fill windows.
      for (size_t i = 0; i < build.num_rows(); ++i) {
        for (size_t j = 0; j < probe.num_rows();) {
          const size_t take =
              std::min(probe.num_rows() - j, window_rows - w.rows);
          AppendCrossRows(plan, build, probe, i, j, j + take, w.Dst());
          w.rows += take;
          j += take;
          if (w.rows == window_rows) consume(w);
        }
      }
    } else {
      const HashBuckets table = BuildHashTable(plan, build);
      ForEachHashMatchWindow(
          plan, build, probe, 0, probe.num_rows(), window_rows,
          BucketLookup(table),
          [&](std::span<const uint32_t> build_rows,
              std::span<const uint32_t> probe_rows) {
            MaterializeHashWindow(plan, build, probe, build_rows, probe_rows,
                                  w.Dst());
            w.rows = build_rows.size();
            consume(w);
          });
    }
  });
}

Result<BindingTable> Executor::Execute(const SelectQuery& query,
                                       const opt::PlanNode& plan,
                                       ExecutionStats* stats,
                                       const ExecOptions& options) {
  // Resolve the intra-query parallel state for this call; the worker pool
  // itself is created lazily by the first operator that goes parallel.
  exec_threads_ = util::ThreadPool::ResolveThreads(options.threads);
  morsel_size_ = std::max<uint64_t>(1, options.morsel_size);
  parallel_group_by_ = options.parallel_group_by;
  parallel_sort_ = options.parallel_sort;
  chunk_rows_ = options.chunk_rows;
  enable_merge_join_ = options.enable_merge_join;

  ExecutionStats local;
  util::WallTimer timer;
  std::vector<char> filter_done(query.filters.size(), 0);

  BindingTable table;
  if (!query.aggregates.empty() && plan.is_join()) {
    RDFPARAMS_ASSIGN_OR_RETURN(
        table, ExecuteStreamingAggregate(query, plan, &filter_done, &local));
  } else {
    RDFPARAMS_ASSIGN_OR_RETURN(table,
                               ExecNode(query, plan, &filter_done, &local));
  }
  for (size_t fi = 0; fi < filter_done.size(); ++fi) {
    if (!filter_done[fi]) {
      return Status::InvalidArgument(
          "filter references a variable not bound by the pattern: " +
          query.filters[fi].ToString());
    }
  }
  if (query.aggregates.empty() || plan.is_scan()) {
    RDFPARAMS_ASSIGN_OR_RETURN(table, ApplyModifiers(query, std::move(table)));
  }
  local.wall_seconds = timer.ElapsedSeconds();
  local.result_rows = table.num_rows();
  if (stats != nullptr) *stats = local;
  return table;
}

util::ThreadPool* Executor::EnsurePool() {
  if (owned_pool_ == nullptr || owned_pool_->size() != exec_threads_ - 1) {
    owned_pool_ = std::make_unique<util::ThreadPool>(exec_threads_ - 1);
  }
  return owned_pool_.get();
}

Result<BindingTable> Executor::OptimizeAndExecute(
    const SelectQuery& query, ExecutionStats* stats,
    const opt::OptimizeOptions& optimize_options,
    const ExecOptions& exec_options) {
  RDFPARAMS_ASSIGN_OR_RETURN(
      opt::OptimizedPlan plan,
      opt::Optimize(query, store_, base_dict(), optimize_options));
  return Execute(query, *plan.root, stats, exec_options);
}

Result<BindingTable> ExecuteNaive(const SelectQuery& query,
                                  const rdf::TripleStore& store,
                                  rdf::Dictionary* dict) {
  // Left-deep, in-text-order execution: the plan is pattern 0 joined with
  // pattern 1, joined with pattern 2, ... regardless of cost. Shares the
  // executor's operators so only the plan shape is "naive".
  if (query.patterns.empty()) {
    return Status::InvalidArgument("query has no patterns");
  }
  std::unique_ptr<opt::PlanNode> root =
      opt::PlanNode::MakeScan(0, rdf::IndexOrder::kSPO);
  for (size_t i = 1; i < query.patterns.size(); ++i) {
    auto rhs = opt::PlanNode::MakeScan(i, rdf::IndexOrder::kSPO);
    root = opt::PlanNode::MakeJoin(std::move(root), std::move(rhs), {});
  }
  Executor exec(store, dict);
  ExecutionStats stats;
  return exec.Execute(query, *root, &stats);
}

}  // namespace rdfparams::engine
