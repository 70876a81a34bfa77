// Query executor: runs an optimized plan over the store and applies the
// query's solution modifiers (FILTER / GROUP BY / DISTINCT / ORDER BY /
// LIMIT). Records wall time and the *observed* C_out (the summed sizes of
// all join outputs), which the paper correlates with runtime (Section III).
//
// With ExecOptions::threads > 1 the executor parallelizes inside a single
// query — morsel-driven index-join probes, partitioned hash joins, the
// group-by reduction, and the ORDER BY merge sort — while guaranteeing
// results byte-identical to a serial run (see exec_options.h and
// docs/ARCHITECTURE.md for the determinism contract).
//
// Independently of threading, the hot operators process the columnar
// BindingTable in ExecOptions::chunk_rows-row chunks (vectorized filters
// with selection vectors, batched hash computation, gather-based
// materialization) and an index join whose outer key column is sorted can
// run as a merge join over the covering sorted index run instead of
// per-row index probes (ExecOptions::enable_merge_join, hinted by the
// optimizer). Both are schedule knobs: results stay byte-identical at
// every chunk size and with the merge join on or off.
#ifndef RDFPARAMS_ENGINE_EXECUTOR_H_
#define RDFPARAMS_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "engine/binding_table.h"
#include "engine/dict_access.h"
#include "engine/exec_options.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan.h"
#include "rdf/triple_store.h"
#include "sparql/algebra.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rdfparams::engine {

/// Counters recorded by one Execute call. All fields except wall_seconds
/// are part of the determinism contract: identical at every thread count
/// and morsel size.
struct ExecutionStats {
  /// Measured wall time of the Execute call (a measurement, not a value —
  /// excluded from the byte-identical guarantee).
  double wall_seconds = 0;
  /// Observed C_out: total rows emitted by join operators (incl. the root).
  uint64_t intermediate_rows = 0;
  /// Rows produced by index scans (not part of C_out; diagnostic only).
  uint64_t scan_rows = 0;
  /// Rows in the final result table (after all solution modifiers).
  uint64_t result_rows = 0;
};

class Executor {
 public:
  /// Mutable-dictionary mode: aggregation interns freshly computed
  /// literals (averages, counts) directly into `dict`, so callers can
  /// decode every id in the result table through it.
  Executor(const rdf::TripleStore& store, rdf::Dictionary* dict)
      : store_(store), dict_(dict), dacc_(dict) {}

  /// Read-only mode: `dict` is never mutated. Terms the execution has to
  /// intern (filter constants, aggregate output literals) go into a
  /// private ScratchDictionary overlay, which makes one base dictionary
  /// safely shareable across concurrently running executors. Result ids
  /// >= dict.size() (only produced by aggregate queries) resolve through
  /// scratch_dict().
  Executor(const rdf::TripleStore& store, const rdf::Dictionary& dict)
      : store_(store), scratch_(std::in_place, dict), dacc_(&*scratch_) {}

  /// The overlay in read-only mode; nullptr in mutable-dictionary mode.
  const rdf::ScratchDictionary* scratch_dict() const {
    return scratch_ ? &*scratch_ : nullptr;
  }

  /// Executes a pre-optimized plan for `query`. With options.threads > 1
  /// the index-join probe loop runs as morsels over the outer input, hash
  /// joins build/probe partitioned tables in parallel, group-by reduces
  /// through per-slice partial tables, and ORDER BY runs a parallel merge
  /// sort; results and stats counters are byte-identical to the serial
  /// run (see ExecOptions).
  [[nodiscard]] Result<BindingTable> Execute(const sparql::SelectQuery& query,
                               const opt::PlanNode& plan,
                               ExecutionStats* stats,
                               const ExecOptions& options = {});

  /// Optimizes (C_out DP) and executes in one call.
  [[nodiscard]] Result<BindingTable> OptimizeAndExecute(
      const sparql::SelectQuery& query, ExecutionStats* stats,
      const opt::OptimizeOptions& optimize_options = {},
      const ExecOptions& exec_options = {});

  /// Legacy alias for OptimizeAndExecute with serial execution.
  [[nodiscard]] Result<BindingTable> Run(const sparql::SelectQuery& query,
                           ExecutionStats* stats,
                           const opt::OptimizeOptions& options = {}) {
    return OptimizeAndExecute(query, stats, options);
  }

 private:
  [[nodiscard]] Result<BindingTable> ExecNode(const sparql::SelectQuery& query,
                                const opt::PlanNode& node,
                                std::vector<char>* filter_done,
                                ExecutionStats* stats);
  [[nodiscard]] Result<BindingTable> ExecScan(const sparql::SelectQuery& query,
                                const opt::PlanNode& node,
                                std::vector<char>* filter_done,
                                ExecutionStats* stats);
  [[nodiscard]] Result<BindingTable> ExecJoin(const sparql::SelectQuery& query,
                                const opt::PlanNode& node,
                                std::vector<char>* filter_done,
                                ExecutionStats* stats);

  /// Index nested-loop join: materializes `outer`, then probes the store
  /// directly for each outer row through the `inner` scan node's pattern
  /// (no materialization of the inner side). Chosen whenever one input of
  /// `join` is a scan — this is what makes selective parameters genuinely
  /// cheap, as in real RDF engines. With the join's merge_join_hint and a
  /// runtime-verified sorted outer key column, the per-row probes become
  /// one co-sequential merge sweep over the covering sorted index run —
  /// identical output either way.
  [[nodiscard]] Result<BindingTable> ExecIndexJoin(const sparql::SelectQuery& query,
                                     const opt::PlanNode& join,
                                     const opt::PlanNode& outer,
                                     const opt::PlanNode& inner_scan,
                                     std::vector<char>* filter_done,
                                     ExecutionStats* stats);

  /// Applies all not-yet-applied filters whose variables are available.
  [[nodiscard]] Status ApplyFilters(const sparql::SelectQuery& query,
                      std::vector<char>* filter_done, BindingTable* table);

  /// Streams the root join's output, in columnar windows, into the
  /// group-by reduction without materializing it. Used for aggregate
  /// queries; essential when the root is a voluminous cross product. The
  /// root probe itself stays on the calling thread, but full canonical
  /// slices of its output are handed to the worker pool as they fill (see
  /// GroupByStream in group_merge.h).
  [[nodiscard]] Result<BindingTable> ExecuteStreamingAggregate(
      const sparql::SelectQuery& query, const opt::PlanNode& root,
      std::vector<char>* filter_done, ExecutionStats* stats);

  [[nodiscard]] Result<BindingTable> ApplyModifiers(const sparql::SelectQuery& query,
                                      BindingTable table);

  /// Projection / DISTINCT / ORDER BY / LIMIT (everything after grouping).
  [[nodiscard]] Result<BindingTable> FinishModifiers(const sparql::SelectQuery& query,
                                       BindingTable table);

  /// Stable-sorts rows by the query's ORDER BY keys (numeric-aware, with a
  /// total-ordering rank so NaN and mixed numeric/lexicographic keys stay
  /// well-defined). Runs the parallel merge sort when the current
  /// ExecOptions allow it — same permutation either way.
  [[nodiscard]] Status SortRows(const sparql::SelectQuery& query, BindingTable* table);

  /// Removes duplicate rows, keeping first occurrences.
  void DeduplicatePreservingOrder(BindingTable* table);

  void ApplyLimitOffset(const sparql::SelectQuery& query, BindingTable* table);

  bool EvalFilter(const sparql::FilterCondition& f, rdf::TermId lhs,
                  rdf::TermId rhs) const;

  /// Base dictionary for the optimizer (const either way).
  const rdf::Dictionary& base_dict() const {
    return dict_ != nullptr ? *dict_ : scratch_->base();
  }

  const rdf::TripleStore& store_;
  rdf::Dictionary* dict_ = nullptr;                  // mutable mode
  std::optional<rdf::ScratchDictionary> scratch_;    // read-only mode
  DictAccess dacc_;

  // --- intra-query parallel state (set per Execute call) ---
  /// Resolved exec-thread count for the current Execute call (1 = serial).
  /// Workers only ever touch read-only state (store, base dictionary,
  /// materialized inputs): scratch interning always runs on the calling
  /// thread, and never while workers hold a DictAccess.
  size_t exec_threads_ = 1;
  uint64_t morsel_size_ = 1024;
  /// Per-call copies of the operator switches (see ExecOptions).
  bool parallel_group_by_ = true;
  bool parallel_sort_ = true;
  /// Vectorization chunk width; 0 selects the row-at-a-time reference
  /// kernels (see ExecOptions::chunk_rows).
  uint64_t chunk_rows_ = 1024;
  bool enable_merge_join_ = true;
  /// Returns the worker pool sized to exec_threads_, creating it lazily at
  /// the first operator that actually goes parallel (small inputs never
  /// pay for thread spawns) and reusing it across Execute calls.
  util::ThreadPool* EnsurePool();
  std::unique_ptr<util::ThreadPool> owned_pool_;
};

/// Reference evaluator: executes the BGP by naive left-to-right nested
/// loops without any optimizer involvement. Used by tests to validate the
/// executor/optimizer pair (results must match for every plan).
[[nodiscard]] Result<BindingTable> ExecuteNaive(const sparql::SelectQuery& query,
                                  const rdf::TripleStore& store,
                                  rdf::Dictionary* dict);

}  // namespace rdfparams::engine

#endif  // RDFPARAMS_ENGINE_EXECUTOR_H_
