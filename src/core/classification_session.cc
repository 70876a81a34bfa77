#include "core/classification_session.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <utility>

#include "optimizer/optimizer.h"
#include "util/thread_pool.h"

namespace rdfparams::core {

ClassificationSession::ClassificationSession(const sparql::QueryTemplate& tmpl,
                                             const rdf::TripleStore& store,
                                             const rdf::Dictionary& dict,
                                             const ClassifyOptions& options)
    : tmpl_(tmpl),
      store_(store),
      dict_(dict),
      options_(options),
      owned_cache_(options.optimizer.cardinality_cache == nullptr
                       ? std::make_unique<opt::CardinalityCache>()
                       : nullptr),
      cache_(options.optimizer.cardinality_cache != nullptr
                 ? options.optimizer.cardinality_cache
                 : owned_cache_.get()),
      batch_(tmpl_, store_, dict_, cache_) {
  options_.optimizer.cardinality_cache = cache_;
}

uint32_t ClassificationSession::InternFingerprint(std::string fingerprint) {
  auto [it, inserted] = fingerprint_ids_.emplace(
      std::move(fingerprint), static_cast<uint32_t>(fingerprints_.size()));
  if (inserted) fingerprints_.push_back(it->first);
  return it->second;
}

Result<Classification> ClassificationSession::Classify(
    const ParameterDomain& domain, uint64_t max_candidates) {
  last_stats_ = ClassifyStats{};
  // Every exit syncs options_.stats with last_stats_, so an error call
  // reports the progress made up to the failure instead of leaving the
  // caller's struct stale from an earlier call.
  auto fail = [&](Status status) {
    if (options_.stats != nullptr) *options_.stats = last_stats_;
    return status;
  };
  if (Status st = domain.Validate(tmpl_); !st.ok()) return fail(std::move(st));
  std::vector<sparql::ParameterBinding> candidates =
      domain.Enumerate(max_candidates);
  if (candidates.empty()) {
    return fail(Status::InvalidArgument("parameter domain is empty"));
  }
  const size_t n = candidates.size();
  const uint64_t cache_hits_before = cache_->hits();
  const uint64_t cache_misses_before = cache_->misses();

  // Stage 0 — split candidates into memoized bindings and fresh ones.
  constexpr uint32_t kNoSignature = 0xFFFFFFFFu;
  std::vector<uint32_t> sig_of_candidate(n, kNoSignature);
  std::vector<size_t> fresh;  // candidate indices, ascending
  for (size_t i = 0; i < n; ++i) {
    auto it = candidate_memo_.find(candidates[i]);
    if (it != candidate_memo_.end()) {
      sig_of_candidate[i] = it->second;
    } else {
      fresh.push_back(i);
    }
  }
  last_stats_.num_candidates = n;
  last_stats_.reused_candidates = n - fresh.size();

  // Stage 1 — batch leaf counting: one co-sequential index sweep per
  // single-parameter pattern pre-fills the shared cache with every leaf
  // count the fresh candidates will need.
  if (!fresh.empty()) {
    opt::BatchPrefillStats prefill = batch_.PrefillLeafCounts(candidates, fresh);
    last_stats_.batched_counts = prefill.batched_counts;
    last_stats_.unbatched_patterns = prefill.unbatched_patterns;
    // Stage 1b — pair-join prefill: one count table per parameter-free
    // side answers the exact pair-join count of every fresh value, so
    // stage 2 finds them in the cache instead of counting per candidate.
    last_stats_.prefilled_pair_joins =
        batch_.PrefillPairJoins(candidates, fresh);
  }

  // The template's parameter-free leaves and pairs, counted once here
  // rather than by every worker that first misses them.
  const opt::JoinGraph& graph = batch_.graph();
  const opt::CardinalityEstimator est(store_, dict_, cache_);
  if (!fresh.empty() && !ground_signature_.has_value()) {
    ground_signature_ = graph.GroundSignature(est);
  }

  const size_t threads = util::ThreadPool::ResolveThreads(options_.threads);
  util::ThreadPool pool(threads - 1);
  util::FirstFailureTracker tracker(n);
  std::vector<Status> failures(n);

  // Stage 2 — cardinality signatures for the fresh candidates: each
  // binding's ids substituted into the compiled graph (no Bind, no
  // dictionary lookup). Workers write to disjoint per-candidate slots;
  // the shared cache is internally synchronized; so the outcome is
  // independent of scheduling.
  std::vector<opt::CardinalitySignature> fresh_sigs(fresh.size());
  std::vector<uint8_t> computed(fresh.size(), 0);
  pool.ParallelFor(0, fresh.size(), [&](uint64_t lo, uint64_t hi) {
    for (uint64_t k = lo; k < hi; ++k) {
      const size_t i = fresh[k];
      if (tracker.ShouldSkip(i)) continue;
      if (Status st = tmpl_.CheckArity(candidates[i]); !st.ok()) {
        failures[i] = std::move(st);
        tracker.Record(i);
        continue;
      }
      fresh_sigs[k] = *ground_signature_;
      graph.FillSignature(candidates[i].values, est, &fresh_sigs[k]);
      computed[k] = 1;
    }
  });

  // Stage 3 — serial merge in enumeration order: assign signature ids.
  // Fresh signatures already optimized by an earlier call reuse their
  // memoized result; genuinely new ones queue one DP run each, with the
  // lowest-index candidate as the group representative. Nothing is
  // committed to session state yet (errors must leave it untouched).
  struct PendingGroup {
    size_t representative;  // lowest candidate index with this signature
    const opt::CardinalitySignature* signature;  // key in new_sig_ids
  };
  std::unordered_map<opt::CardinalitySignature, uint32_t, opt::SignatureHash>
      new_sig_ids;
  std::vector<PendingGroup> pending;
  for (size_t k = 0; k < fresh.size(); ++k) {
    if (!computed[k]) continue;  // skipped past the first failure
    const size_t i = fresh[k];
    uint32_t id;
    if (auto it = signature_ids_.find(fresh_sigs[k]);
        it != signature_ids_.end()) {
      id = it->second;
      ++last_stats_.reused_signatures;
    } else {
      const auto next_id =
          static_cast<uint32_t>(results_.size() + pending.size());
      auto [it2, inserted] =
          new_sig_ids.try_emplace(std::move(fresh_sigs[k]), next_id);
      id = it2->second;
      if (inserted) pending.push_back(PendingGroup{i, &it2->first});
    }
    sig_of_candidate[i] = id;
  }

  // Stage 4 — one DP run per distinct new signature (parallel over
  // groups), solved straight on the signature, so the group's result is
  // the result of every member by construction. A failing group fails at
  // its representative — the lowest member index — which reproduces the
  // per-candidate path's first-failure-in-enumeration-order error.
  struct DpOutcome {
    double est_cout = 0;
    std::string fingerprint;
  };
  std::vector<DpOutcome> outcomes(pending.size());
  // Like the per-candidate path: count DP invocations actually made, so a
  // failed call's stats report attempts, not the queued group count.
  std::atomic<uint64_t> dp_attempts{0};
  pool.ParallelFor(0, pending.size(), [&](uint64_t lo, uint64_t hi) {
    opt::JoinOrderSolver solver(graph, options_.optimizer);
    for (uint64_t g = lo; g < hi; ++g) {
      const size_t rep = pending[g].representative;
      if (tracker.ShouldSkip(rep)) continue;
      dp_attempts.fetch_add(1, std::memory_order_relaxed);
      if (Status st = solver.Solve(*pending[g].signature); !st.ok()) {
        failures[rep] = std::move(st);
        tracker.Record(rep);
        continue;
      }
      outcomes[g].est_cout = solver.est_cout();
      outcomes[g].fingerprint = solver.Fingerprint();
    }
  });

  // Stats are settled before the error check so a failed call still
  // reports the work done: every signature computed, every DP attempted.
  // (kNoSignature entries only exist past the first failure.)
  {
    std::unordered_set<uint32_t> distinct;
    for (uint32_t sig : sig_of_candidate) {
      if (sig != kNoSignature) distinct.insert(sig);
    }
    last_stats_.distinct_signatures = distinct.size();
  }
  last_stats_.dp_runs = dp_attempts.load(std::memory_order_relaxed);
  last_stats_.dp_runs_saved = n - pending.size();
  last_stats_.cache_hits = cache_->hits() - cache_hits_before;
  last_stats_.cache_misses = cache_->misses() - cache_misses_before;
  if (tracker.any()) return fail(failures[tracker.first()]);

  // Stage 5 — success: commit to session state. Results append in group
  // order, matching the provisional ids handed out in stage 3.
  for (DpOutcome& outcome : outcomes) {
    results_.push_back(SignatureResult{
        outcome.est_cout, InternFingerprint(std::move(outcome.fingerprint))});
  }
  signature_ids_.merge(new_sig_ids);
  // Only fresh bindings need memoizing — the rest were answered *from* the
  // memo in stage 0, and emplace on a present key would still copy the
  // binding into a discarded map node (n copies of waste in the
  // mostly-reused steady state this session exists for).
  for (size_t i : fresh) {
    RDFPARAMS_DCHECK(sig_of_candidate[i] != kNoSignature);
    candidate_memo_.emplace(candidates[i], sig_of_candidate[i]);
  }

  // Stage 6 — per-candidate broadcast + the shared grouping stage.
  std::vector<double> couts(n);
  std::vector<uint32_t> fp_ids(n);
  for (size_t i = 0; i < n; ++i) {
    const SignatureResult& r = results_[sig_of_candidate[i]];
    couts[i] = r.est_cout;
    fp_ids[i] = r.fingerprint_id;
  }

  if (options_.stats != nullptr) *options_.stats = last_stats_;

  return BuildClassification(candidates, couts, fp_ids, fingerprints_,
                             options_.cost_bucket_log2_width);
}

}  // namespace rdfparams::core
