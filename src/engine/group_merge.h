// Parallel group-by reduction with a deterministic merge.
//
// The classic way to parallelize GROUP BY — thread-local hash tables merged
// at the end — is unusable here, because the executor promises results that
// are byte-identical to a serial run at every thread count and morsel size,
// and floating-point aggregate sums depend on their accumulation order.
//
// The fix is to make the reduction tree *canonical* instead of schedule-
// shaped. Input rows are cut into fixed kAggSliceRows-row slices (a
// constant, deliberately independent of ExecOptions::morsel_size); each
// slice accumulates its rows, in row order, into a private PartialAggTable;
// the partials are then folded left-to-right in ascending slice order:
//
//     merged = ((((empty + p0) + p1) + p2) + ...)
//
// Every floating-point addition in that tree is fixed by the input row
// order alone, so computing the slice partials serially or on any number of
// worker threads yields bit-identical sums. Serial execution runs the same
// tree — it IS the reference, not a separate code path. COUNT/MIN/MAX merge
// exactly (order-insensitive); SUM/AVG merge deterministically because the
// fold order is fixed.
//
// Workers never read the dictionary: the streaming sink (GroupByStream)
// decodes aggregate inputs on the calling thread, once per distinct term,
// and hands slices of decoded doubles to the partial tables.
//
// Output order is part of the contract too: Finish() emits groups in
// ascending group-key order (lexicographic over the key TermId tuples),
// which is independent of hash-table iteration order, thread count, and
// slice width. Aggregate output literals are interned by the calling
// thread in that same order, so scratch-dictionary ids are stable across
// execution configurations as well.
#ifndef RDFPARAMS_ENGINE_GROUP_MERGE_H_
#define RDFPARAMS_ENGINE_GROUP_MERGE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "engine/binding_table.h"
#include "engine/dict_access.h"
#include "sparql/algebra.h"
#include "util/status.h"

namespace rdfparams::util {
class ThreadPool;
}

namespace rdfparams::engine {

/// Canonical slice width (input rows) for group-by partials. A fixed
/// constant — NOT ExecOptions::morsel_size — so the floating-point
/// reduction tree, and therefore the result, is identical at every thread
/// count and morsel size. Only scheduling varies with the exec options.
inline constexpr uint64_t kAggSliceRows = 2048;

/// True when every aggregate in `query` can be merged across slice
/// partials without changing its value relative to the canonical fold
/// (COUNT/MIN/MAX exactly; SUM/AVG via the fixed slice-order fold).
/// Aggregate kinds this module does not know how to merge make the
/// executor fall back to a single serial partial covering all rows.
bool MergeableAggregates(const sparql::SelectQuery& query);

/// Compiled grouping wiring: column positions of the GROUP BY keys and of
/// each aggregate's input within a concrete schema.
struct GroupBySpec {
  /// Input columns holding the GROUP BY variables, in GROUP BY order.
  std::vector<int> group_cols;
  /// Per aggregate: input column of its argument, or -1 for COUNT(*).
  std::vector<int> agg_cols;
  /// Per aggregate: whether the numeric value is needed (false for COUNT).
  std::vector<char> needs_value;
  /// Number of aggregates (== query->aggregates.size()).
  size_t n_agg = 0;
  /// The query this spec was compiled from (not owned).
  const sparql::SelectQuery* query = nullptr;

  /// Resolves `query`'s GROUP BY and aggregate variables against the input
  /// schema `vars`; errors on variables the pattern does not bind.
  [[nodiscard]] static Result<GroupBySpec> Compile(const sparql::SelectQuery& query,
                                     const std::vector<std::string>& vars);
};

/// One slice of group-by input, column-wise and already decoded: the
/// GROUP BY key columns, and for every aggregate that needs a value its
/// argument's numeric value per row. The streaming sink fills slices on
/// the calling thread, so partial tables never touch the dictionary.
struct AggSlice {
  std::vector<std::vector<rdf::TermId>> keys;  ///< [group col][row]
  std::vector<std::vector<double>> values;     ///< [aggregate][row]; empty
                                               ///< for COUNT / COUNT(*)
  size_t rows = 0;

  void Clear() {
    for (auto& k : keys) k.clear();
    for (auto& v : values) v.clear();
    rows = 0;
  }
};

/// Partial aggregate table for one slice of input rows (or for a merge of
/// consecutive slices). Accumulates per-group COUNT/SUM/MIN/MAX state in
/// flat arrays behind an open-addressing index, so Clear() keeps every
/// buffer and a reused table fills without allocating.
class PartialAggTable {
 public:
  explicit PartialAggTable(const GroupBySpec* spec);

  /// Folds the slice's rows into their groups, in row order (creating a
  /// group on first sight).
  void AddRows(const AggSlice& slice);

  /// Merges `other` into this table. Deterministic as long as callers
  /// always fold partials in ascending slice order: for each group,
  /// exactly one `sum += other.sum` per slice, in slice order.
  void MergeFrom(const PartialAggTable& other);

  /// Emits the grouped output — group-key columns followed by aggregate
  /// outputs — with groups in ascending group-key order. Interns aggregate
  /// literals through `dict` (calling-thread only).
  [[nodiscard]] Result<BindingTable> Finish(DictAccess* dict) const;

  /// Drops every group but keeps the buffers' capacity.
  void Clear();

  size_t num_groups() const { return hashes_.size(); }

 private:
  /// Index of the group with `key` (key_width_ ids), created on a miss.
  uint32_t FindOrCreate(uint64_t hash, const rdf::TermId* key);
  void Rehash(size_t slots);

  const GroupBySpec* spec_;
  size_t key_width_;
  size_t n_agg_;
  // Per group g, in first-seen order: key ids at [g * key_width_, ...),
  // aggregate slots at [g * n_agg_, ...). Every row bumps all of a
  // group's COUNTs alike, so one row count per group serves them all.
  std::vector<rdf::TermId> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint64_t> count_;
  std::vector<double> sum_;
  std::vector<double> min_;
  std::vector<double> max_;
  std::vector<uint32_t> slots_;  // group + 1, 0 = empty; power-of-2 size
  std::vector<rdf::TermId> scratch_key_;
};

/// Memo of aggregate input values: each distinct term is decoded through
/// the dictionary once per stream and found by an open-addressing probe
/// afterwards. Memory and decode work grow with the distinct terms seen,
/// never with the dictionary. Calling-thread only.
class NumericDecoder {
 public:
  double Get(rdf::TermId id, const DictAccess& dict);

 private:
  std::vector<rdf::TermId> ids_;  // kInvalidTermId = empty slot
  std::vector<double> values_;
  size_t used_ = 0;
};

/// Streaming group-by sink: the canonical sliced reduction fed with
/// columnar windows, in bounded memory. Rows collect into kAggSliceRows-row
/// slices on the calling thread — group keys copied, aggregate values
/// decoded through one NumericDecoder — and each full slice becomes one
/// partial table. With a pool, slice partials are computed as Submit()
/// tasks of up to kSlicesPerTask slices while the stream keeps producing,
/// and the calling thread folds finished partials in ascending slice order
/// as soon as they complete; at most `max_pending` tasks' worth of slices
/// are buffered-or-unfolded at any time, so a cross-product stream never
/// materializes. Without a pool the same slices are computed and folded
/// inline. Both modes evaluate the identical reduction tree (fixed by the
/// stream order and kAggSliceRows alone), so results are byte-identical.
/// Slices and partials are recycled: steady-state streaming allocates
/// nothing per slice.
class GroupByStream {
 public:
  GroupByStream(const GroupBySpec* spec, const DictAccess& dict,
                util::ThreadPool* pool, size_t max_pending);
  /// Outstanding slice tasks point into the stream, so unwinding past it
  /// must drain them before the members die.
  ~GroupByStream();

  /// Feeds rows of a columnar window in order: rows sel[0..n) when `sel`
  /// is non-null, rows [0, n) otherwise. `cols[c]` is column c of the
  /// schema the spec was compiled against; only group-key and aggregate
  /// value columns are read. Slices are cut at exactly kAggSliceRows fed
  /// rows, wherever that falls within a window.
  void Add(std::span<const std::span<const rdf::TermId>> cols,
           const uint32_t* sel, size_t n);

  /// Flushes the trailing partial slice, waits for outstanding slice
  /// tasks, folds everything in slice order, and emits the grouped table.
  [[nodiscard]] Result<BindingTable> Finish(DictAccess* dict);

 private:
  struct Slice;

  /// Slices per pool task. Waking a pool worker cost up to ~250 us of the
  /// producing thread's time on a 4-vCPU virtual machine — more than
  /// reducing a slice — so a task must carry enough slices to amortize it
  /// (measured on BSBM Q4 at the root type: 8 slices per task left the
  /// pooled sink slower than the serial one, 64 made it faster).
  static constexpr size_t kSlicesPerTask = 64;

  void Flush();
  /// Submits the slices at the back of pending_ that no task covers yet
  /// as one pool task.
  void SubmitUnsubmitted();
  /// Reduces those slices on the calling thread instead.
  void RunUnsubmittedInline();
  std::unique_ptr<Slice> NewSlice();
  /// Folds the oldest unfolded slice; with block=false only when its task
  /// has finished. Returns whether it folded.
  bool FoldOldest(bool block);

  const GroupBySpec* spec_;
  const DictAccess& dict_;
  util::ThreadPool* pool_;
  const size_t max_pending_;
  const bool sliced_;
  NumericDecoder decoder_;
  PartialAggTable merged_;

  std::unique_ptr<Slice> filling_;
  std::deque<std::unique_ptr<Slice>> pending_;  // unfolded, slice order
  size_t unsubmitted_ = 0;  // trailing pending_ slices not yet submitted
  size_t task_slices_ = 1;  // slices in the next task (<= kSlicesPerTask)
  std::vector<std::unique_ptr<Slice>> free_;

  std::mutex mu_;
  std::condition_variable cv_;
  size_t running_ = 0;  // submitted but unfinished tasks (guarded by mu_)
};

/// Group-by driver for a materialized input table: streams `input` through
/// a GroupByStream (slice partials on `pool` when non-null, inline
/// otherwise — same result either way) and returns the grouped table in
/// ascending group-key order.
[[nodiscard]] Result<BindingTable> GroupByAggregate(const sparql::SelectQuery& query,
                                      const BindingTable& input,
                                      DictAccess* dict,
                                      util::ThreadPool* pool);

}  // namespace rdfparams::engine

#endif  // RDFPARAMS_ENGINE_GROUP_MERGE_H_
