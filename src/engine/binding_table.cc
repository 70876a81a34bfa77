#include "engine/binding_table.h"

#include "util/status.h"

namespace rdfparams::engine {

BindingTable::BindingTable(std::vector<std::string> vars)
    : vars_(std::move(vars)), cols_(vars_.size()) {}

int BindingTable::VarIndex(const std::string& var) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

void BindingTable::AppendRow(std::span<const rdf::TermId> values) {
  RDFPARAMS_DCHECK(values.size() == vars_.size());
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(values[c]);
}

void BindingTable::AppendRow(std::initializer_list<rdf::TermId> values) {
  AppendRow(std::span<const rdf::TermId>(values.begin(), values.size()));
}

void BindingTable::Append(const BindingTable& other) {
  RDFPARAMS_DCHECK(other.vars_.size() == vars_.size());
  other.CheckAligned();
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].insert(cols_[c].end(), other.cols_[c].begin(),
                    other.cols_[c].end());
  }
}

void BindingTable::AppendRange(const BindingTable& src, size_t begin,
                               size_t end) {
  RDFPARAMS_DCHECK(src.vars_.size() == vars_.size());
  RDFPARAMS_DCHECK(begin <= end && end <= src.num_rows());
  for (size_t c = 0; c < cols_.size(); ++c) {
    const auto& s = src.cols_[c];
    cols_[c].insert(cols_[c].end(), s.begin() + static_cast<long>(begin),
                    s.begin() + static_cast<long>(end));
  }
}

void BindingTable::AppendGather(const BindingTable& src,
                                std::span<const uint32_t> rows) {
  RDFPARAMS_DCHECK(src.vars_.size() == vars_.size());
  src.CheckAligned();
  for (size_t c = 0; c < cols_.size(); ++c) {
    GatherAppend(&cols_[c], src.cols_[c].data(), rows);
  }
}

void BindingTable::CheckAligned() const {
  for (size_t c = 1; c < cols_.size(); ++c) {
    RDFPARAMS_DCHECK(cols_[c].size() == cols_[0].size() &&
                     "ragged BindingTable columns");
  }
}

std::string BindingTable::ToString(const rdf::Dictionary& dict,
                                   size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (i > 0) out += "\t";
    out += "?" + vars_[i];
  }
  out += "\n";
  size_t n = std::min(num_rows(), max_rows);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < vars_.size(); ++c) {
      if (c > 0) out += "\t";
      out += dict.ToString(at(r, c));
    }
    out += "\n";
  }
  if (num_rows() > n) {
    out += "... (" + std::to_string(num_rows() - n) + " more rows)\n";
  }
  return out;
}

}  // namespace rdfparams::engine
