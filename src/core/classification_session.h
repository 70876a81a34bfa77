// Incremental, signature-deduped parameter classification.
//
// A ClassificationSession answers repeated ClassifyParameters-style calls
// over one (template, store, dictionary) while persisting everything the
// expensive stage computed:
//
//   * a binding memo: candidate binding -> cardinality-signature id, so a
//     binding classified by an earlier call never re-enters the pipeline;
//   * a signature memo: signature -> {est_cout, fingerprint}, so a fresh
//     binding whose optimizer inputs were already seen skips the DP;
//   * the shared CardinalityCache (owned unless the options supply one),
//     so leaf counts and pair-join counts carry across calls.
//
// Growing the candidate budget (the ROADMAP's 2k -> 100k case) therefore
// only pays for the new suffix: ParameterDomain::Enumerate(100k) mostly
// re-produces bindings the 2k call already classified (always, once the
// budget covers the whole domain), and the new bindings collapse onto the
// signatures the skewed value distribution already exposed.
//
// Determinism contract: Classify(domain, k) is byte-identical — classes,
// fractions, representatives, class_of_candidate, and the first error in
// enumeration order — to a fresh ClassifyParameters call with the same
// options and budget, at every thread count, regardless of the session's
// history. The proof obligation is the signature property (equal
// signatures => equal Optimize() results; see optimizer/join_graph.h)
// plus enumeration-order merges everywhere else.
//
// The template compiles once per session into an opt::JoinGraph: its
// constants resolve to ids once, and its parameter-free leaves and pairs
// are counted once, on the calling thread, before any worker starts.
// Each binding's signature then substitutes the binding's ids into the
// compiled patterns, and the DP runs straight on each distinct signature.
//
// Sessions are single-caller objects (internal parallelism only); the
// referenced template/store/dictionary must outlive the session and stay
// frozen, exactly like the one-shot classifier's arguments.
#ifndef RDFPARAMS_CORE_CLASSIFICATION_SESSION_H_
#define RDFPARAMS_CORE_CLASSIFICATION_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan_classifier.h"
#include "optimizer/batch_cardinality.h"
#include "optimizer/cardinality_cache.h"
#include "optimizer/join_graph.h"

namespace rdfparams::core {

class ClassificationSession {
 public:
  /// `options.max_candidates` is ignored here; every Classify call passes
  /// its own budget. `options.optimizer.cardinality_cache`, when set,
  /// must outlive the session; otherwise the session owns one.
  ClassificationSession(const sparql::QueryTemplate& tmpl,
                        const rdf::TripleStore& store,
                        const rdf::Dictionary& dict,
                        const ClassifyOptions& options = {});

  ClassificationSession(const ClassificationSession&) = delete;
  ClassificationSession& operator=(const ClassificationSession&) = delete;

  /// Classifies domain.Enumerate(max_candidates). See the header comment
  /// for the reuse and determinism guarantees. On error the session state
  /// is unchanged (no partial memoization).
  [[nodiscard]] Result<Classification> Classify(const ParameterDomain& domain,
                                  uint64_t max_candidates);

  /// Statistics of the most recent Classify call (also copied to
  /// options.stats when that was set, on success and on error alike; a
  /// failed call reports the progress made up to the failure).
  const ClassifyStats& last_stats() const { return last_stats_; }

  /// Memoized bindings / distinct signatures accumulated so far.
  size_t memoized_bindings() const { return candidate_memo_.size(); }
  size_t memoized_signatures() const { return results_.size(); }

 private:
  /// Outcome of one DP run, shared by every binding with the signature.
  struct SignatureResult {
    double est_cout = 0;
    uint32_t fingerprint_id = 0;  // index into fingerprints_
  };

  uint32_t InternFingerprint(std::string fingerprint);

  const sparql::QueryTemplate& tmpl_;
  const rdf::TripleStore& store_;
  const rdf::Dictionary& dict_;
  ClassifyOptions options_;
  std::unique_ptr<opt::CardinalityCache> owned_cache_;
  opt::CardinalityCache* cache_;
  /// Owns the compiled template (batch_.graph()).
  opt::BatchCardinality batch_;
  /// batch_.graph().GroundSignature(), computed by the first Classify that
  /// needs a signature.
  std::optional<opt::CardinalitySignature> ground_signature_;

  // Session memory. results_ is indexed by signature id; ids are dense
  // and append-only, so memo entries from earlier calls stay valid.
  std::map<sparql::ParameterBinding, uint32_t> candidate_memo_;
  std::unordered_map<opt::CardinalitySignature, uint32_t, opt::SignatureHash>
      signature_ids_;
  std::vector<SignatureResult> results_;
  std::vector<std::string> fingerprints_;
  std::map<std::string, uint32_t> fingerprint_ids_;
  ClassifyStats last_stats_;
};

}  // namespace rdfparams::core

#endif  // RDFPARAMS_CORE_CLASSIFICATION_SESSION_H_
