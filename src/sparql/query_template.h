// Query templates with named substitution parameters — the unit of work of
// the paper. A template is a SelectQuery whose %parameters are replaced by
// concrete terms (a ParameterBinding) to obtain executable queries.
#ifndef RDFPARAMS_SPARQL_QUERY_TEMPLATE_H_
#define RDFPARAMS_SPARQL_QUERY_TEMPLATE_H_

#include <map>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "sparql/algebra.h"
#include "util/status.h"

namespace rdfparams::sparql {

/// One assignment of terms to the template's parameters, in the order of
/// QueryTemplate::parameter_names().
struct ParameterBinding {
  std::vector<rdf::TermId> values;

  bool operator==(const ParameterBinding& other) const {
    return values == other.values;
  }
  bool operator<(const ParameterBinding& other) const {
    return values < other.values;
  }
};

/// A named query template (e.g. "BSBM-BI Q4") plus its parameter list.
class QueryTemplate {
 public:
  QueryTemplate() = default;
  QueryTemplate(std::string name, SelectQuery query);

  /// Parses the text and wraps it. Fails if the text is malformed.
  [[nodiscard]] static Result<QueryTemplate> Parse(std::string name, std::string_view text);

  const std::string& name() const { return name_; }
  const SelectQuery& query() const { return query_; }

  /// Parameter names in first-occurrence order.
  const std::vector<std::string>& parameter_names() const {
    return parameter_names_;
  }
  size_t arity() const { return parameter_names_.size(); }

  /// InvalidArgument unless `binding` holds one value per parameter: the
  /// check Bind makes before substituting.
  [[nodiscard]] Status CheckArity(const ParameterBinding& binding) const;

  /// Substitutes the binding (positional, aligned with parameter_names())
  /// and returns a ground query. Fails on arity mismatch.
  [[nodiscard]] Result<SelectQuery> Bind(const ParameterBinding& binding,
                           const rdf::Dictionary& dict) const;

  /// Substitutes by name; every parameter must be present.
  [[nodiscard]] Result<SelectQuery> BindNamed(
      const std::map<std::string, rdf::Term>& values) const;

 private:
  std::string name_;
  SelectQuery query_;
  std::vector<std::string> parameter_names_;
};

}  // namespace rdfparams::sparql

#endif  // RDFPARAMS_SPARQL_QUERY_TEMPLATE_H_
