// Columnar materialized table of variable bindings (TermIds).
//
// Storage is one contiguous TermId vector per variable (column-major), the
// layout the vectorized operators in executor.cc want: a filter touches only
// the columns it compares, a hash probe hashes a whole key column slice, and
// ORDER BY / DISTINCT / projection materialize through column-wise gathers.
// Row order is still the table's logical order — every append/gather
// preserves it, which is what keeps results byte-identical across chunk
// sizes (see docs/ARCHITECTURE.md, "Columnar execution").
#ifndef RDFPARAMS_ENGINE_BINDING_TABLE_H_
#define RDFPARAMS_ENGINE_BINDING_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rdf/dictionary.h"

namespace rdfparams::engine {

/// Makes room for `extra` more elements of `v`, growing the capacity
/// geometrically. Chunked kernels append one window at a time; reserving
/// exactly size() + extra there would reallocate — and copy the whole
/// column — on every window (O(n^2 / window) copying plus a fresh large
/// mapping per window), where geometric growth keeps appends amortized
/// O(1). The factor is 1.5, not 2: below the golden ratio, the blocks a
/// growing column frees can coalesce into room for its later growth (on
/// the run-bsbm benchmark, doubling raised peak RSS ~10% over exact
/// reserves, 1.5 by 0-5%).
template <typename T>
void GrowFor(std::vector<T>* v, size_t extra) {
  const size_t need = v->size() + extra;
  if (need > v->capacity()) {
    v->reserve(std::max(need, v->capacity() + v->capacity() / 2));
  }
}

/// Appends src[rows[0]], src[rows[1]], ... to `dst`: one gathered column.
inline void GatherAppend(std::vector<rdf::TermId>* dst,
                         const rdf::TermId* src,
                         std::span<const uint32_t> rows) {
  GrowFor(dst, rows.size());
  for (uint32_t r : rows) dst->push_back(src[r]);
}

/// Intermediate and final results of query execution. Columns are named by
/// the variables they bind; rows are tuples of TermIds.
class BindingTable {
 public:
  BindingTable() = default;
  explicit BindingTable(std::vector<std::string> vars);

  const std::vector<std::string>& vars() const { return vars_; }
  size_t num_vars() const { return vars_.size(); }
  /// All columns are kept equal-length (checked), so any one is the row
  /// count. A zero-variable table has no columns and reports zero rows —
  /// appends to it are no-ops, matching the historical row-major behavior
  /// the executor's empty-schema paths rely on.
  size_t num_rows() const { return cols_.empty() ? 0 : cols_[0].size(); }

  /// Column position of `var`, or -1.
  int VarIndex(const std::string& var) const;

  /// Contiguous column `c` — the vectorized operators' read path.
  std::span<const rdf::TermId> col(size_t c) const {
    return {cols_[c].data(), cols_[c].size()};
  }
  rdf::TermId at(size_t row, size_t col) const { return cols_[col][row]; }

  /// Appends a row; `values.size()` must equal num_vars().
  void AppendRow(std::span<const rdf::TermId> values);
  void AppendRow(std::initializer_list<rdf::TermId> values);

  /// Appends all rows of `other` (same column count required, one
  /// column-wise memcpy each). Used to merge per-worker output slices in
  /// slice order.
  void Append(const BindingTable& other);

  /// Appends src rows [begin, end) in order (same column count required).
  void AppendRange(const BindingTable& src, size_t begin, size_t end);

  /// Appends src rows selected by `rows`, in selection order — the
  /// materialization step for filter selection vectors, ORDER BY
  /// permutations, and DISTINCT survivors. Column-wise: one pass per
  /// column over the selection. `src` must have the same column count.
  void AppendGather(const BindingTable& src, std::span<const uint32_t> rows);

  /// Direct mutable access to column `c` for bulk kernel writes (chunked
  /// join materialization). Callers must leave every column equal-length
  /// again before the table is read — CheckAligned() asserts exactly that.
  std::vector<rdf::TermId>& MutableCol(size_t c) { return cols_[c]; }

  /// Debug-asserts that all columns have equal length (the columnar
  /// analog of the old row-major `data_.size() % vars_.size() == 0`
  /// invariant; catches ragged appends early). Compiled out in release.
  void CheckAligned() const;

  /// Structural equality: same column names in the same order, same rows
  /// in the same order (one flat vector compare per column).
  bool operator==(const BindingTable& other) const {
    return vars_ == other.vars_ && cols_ == other.cols_;
  }

  void Reserve(size_t rows) {
    for (auto& c : cols_) c.reserve(rows);
  }
  void Clear() {
    for (auto& c : cols_) c.clear();
  }

  /// Renders up to `max_rows` rows through the dictionary (debug/examples).
  std::string ToString(const rdf::Dictionary& dict,
                       size_t max_rows = 20) const;

 private:
  std::vector<std::string> vars_;
  std::vector<std::vector<rdf::TermId>> cols_;  // cols_[c][r]; equal lengths
};

}  // namespace rdfparams::engine

#endif  // RDFPARAMS_ENGINE_BINDING_TABLE_H_
