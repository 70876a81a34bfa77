#include "sparql/query_template.h"

#include "sparql/parser.h"

namespace rdfparams::sparql {

QueryTemplate::QueryTemplate(std::string name, SelectQuery query)
    : name_(std::move(name)), query_(std::move(query)) {
  parameter_names_ = query_.ParameterNames();
}

Result<QueryTemplate> QueryTemplate::Parse(std::string name,
                                           std::string_view text) {
  RDFPARAMS_ASSIGN_OR_RETURN(SelectQuery q, ParseQuery(text));
  return QueryTemplate(std::move(name), std::move(q));
}

namespace {

void SubstituteSlot(Slot* slot, const std::map<std::string, rdf::Term>& values) {
  if (!slot->is_param()) return;
  auto it = values.find(slot->name);
  if (it != values.end()) {
    *slot = Slot::Const(it->second);
  }
}

}  // namespace

Result<SelectQuery> QueryTemplate::BindNamed(
    const std::map<std::string, rdf::Term>& values) const {
  for (const std::string& p : parameter_names_) {
    if (values.find(p) == values.end()) {
      return Status::InvalidArgument("template " + name_ +
                                     ": missing binding for %" + p);
    }
  }
  SelectQuery q = query_;
  for (TriplePattern& tp : q.patterns) {
    SubstituteSlot(&tp.s, values);
    SubstituteSlot(&tp.p, values);
    SubstituteSlot(&tp.o, values);
  }
  for (FilterCondition& f : q.filters) {
    SubstituteSlot(&f.rhs, values);
  }
  RDFPARAMS_DCHECK(q.IsGround());
  return q;
}

Status QueryTemplate::CheckArity(const ParameterBinding& binding) const {
  if (binding.values.size() != parameter_names_.size()) {
    return Status::InvalidArgument(
        "template " + name_ + ": expected " +
        std::to_string(parameter_names_.size()) + " parameters, got " +
        std::to_string(binding.values.size()));
  }
  return Status::OK();
}

Result<SelectQuery> QueryTemplate::Bind(const ParameterBinding& binding,
                                        const rdf::Dictionary& dict) const {
  RDFPARAMS_RETURN_NOT_OK(CheckArity(binding));
  std::map<std::string, rdf::Term> values;
  for (size_t i = 0; i < parameter_names_.size(); ++i) {
    values[parameter_names_[i]] = dict.term(binding.values[i]).ToTerm();
  }
  return BindNamed(values);
}

}  // namespace rdfparams::sparql
