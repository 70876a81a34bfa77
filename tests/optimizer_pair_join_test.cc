// Differential tests for CardinalityEstimator::ExactPairJoinCount: the
// merge-sweep kernel must return exactly what the per-value binary-search
// loop and the hash-count pass returned before it — the same value and the
// same "declined" (std::nullopt) decisions — with and without a cache. The
// old code lives on below as ReferencePairJoinCount, the oracle.
#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "optimizer/cardinality.h"
#include "optimizer/cardinality_cache.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "sparql/algebra.h"
#include "util/rng.h"

namespace rdfparams::opt {
namespace {

using rdf::TermId;
using rdf::TriplePos;
using sparql::Slot;
using sparql::TriplePattern;

// ---------------------------------------------------------------------------
// The oracle: per-value counting (one full-index CountPattern per small-side
// triple) up to 4096 small-side triples, else a hash-count pass within the
// work budget, else std::nullopt.
// ---------------------------------------------------------------------------

int FindVarPosition(const TriplePattern& tp, const std::string& var,
                    TriplePos* pos) {
  int count = 0;
  if (tp.s.is_var() && tp.s.name == var) {
    if (count++ == 0) *pos = TriplePos::kS;
  }
  if (tp.p.is_var() && tp.p.name == var) {
    if (count++ == 0) *pos = TriplePos::kP;
  }
  if (tp.o.is_var() && tp.o.name == var) {
    if (count++ == 0) *pos = TriplePos::kO;
  }
  return count;
}

/// Wildcards for variables; false when a constant is absent from the data.
bool ResolveReference(const TriplePattern& tp, const rdf::Dictionary& dict,
                      rdf::Triple* out) {
  const Slot* slots[3] = {&tp.s, &tp.p, &tp.o};
  *out = rdf::Triple(rdf::kWildcardId, rdf::kWildcardId, rdf::kWildcardId);
  for (int k = 0; k < 3; ++k) {
    if (!slots[k]->is_const()) continue;
    auto id = dict.Find(slots[k]->term);
    if (!id.has_value()) return false;
    rdf::SetPos(out, static_cast<TriplePos>(k), *id);
  }
  return true;
}

std::optional<double> ReferencePairJoinCount(
    const rdf::TripleStore& store, const rdf::Dictionary& dict,
    const sparql::SelectQuery& query, size_t pattern_a, size_t pattern_b,
    uint64_t max_work) {
  const TriplePattern& ta = query.patterns[pattern_a];
  const TriplePattern& tb = query.patterns[pattern_b];
  std::vector<std::string> shared;
  for (const std::string& v : ta.Variables()) {
    for (const std::string& w : tb.Variables()) {
      if (v == w) shared.push_back(v);
    }
  }
  if (shared.size() != 1) return std::nullopt;
  TriplePos pos_a, pos_b;
  if (FindVarPosition(ta, shared[0], &pos_a) != 1) return std::nullopt;
  if (FindVarPosition(tb, shared[0], &pos_b) != 1) return std::nullopt;
  rdf::Triple a, b;
  if (!ResolveReference(ta, dict, &a)) return 0.0;
  if (!ResolveReference(tb, dict, &b)) return 0.0;

  const uint64_t size_a = store.CountPattern(a.s, a.p, a.o);
  const uint64_t size_b = store.CountPattern(b.s, b.p, b.o);
  if (size_a == 0 || size_b == 0) return 0.0;
  const bool a_smaller = size_a <= size_b;
  const rdf::Triple small = a_smaller ? a : b;
  const rdf::Triple big = a_smaller ? b : a;
  const TriplePos small_pos = a_smaller ? pos_a : pos_b;
  const TriplePos big_pos = a_smaller ? pos_b : pos_a;
  const uint64_t small_size = std::min(size_a, size_b);
  const uint64_t big_size = std::max(size_a, size_b);

  if (small_size <= 4096) {
    double total = 0;
    for (const rdf::Triple& t :
         store.Range(store.ChooseIndex(small.s, small.p, small.o), small.s,
                     small.p, small.o)) {
      rdf::Triple q = big;
      rdf::SetPos(&q, big_pos, rdf::GetPos(t, small_pos));
      total += static_cast<double>(store.CountPattern(q.s, q.p, q.o));
    }
    return total;
  }
  if (small_size + big_size > max_work) return std::nullopt;
  std::unordered_map<TermId, uint64_t> counts;
  for (const rdf::Triple& t :
       store.Range(store.ChooseIndex(small.s, small.p, small.o), small.s,
                   small.p, small.o)) {
    ++counts[rdf::GetPos(t, small_pos)];
  }
  double total = 0;
  for (const rdf::Triple& t : store.Range(
           store.ChooseIndex(big.s, big.p, big.o), big.s, big.p, big.o)) {
    auto it = counts.find(rdf::GetPos(t, big_pos));
    if (it != counts.end()) total += static_cast<double>(it->second);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

std::string Iri(uint64_t i) { return "http://t/e" + std::to_string(i); }

Slot Const(uint64_t i) { return Slot::Const(rdf::Term::Iri(Iri(i))); }

/// Terms e0..e{space-1} are interned in order, so term i has id ids[i].
struct World {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  std::vector<TermId> ids;

  explicit World(uint64_t space) {
    for (uint64_t i = 0; i < space; ++i) ids.push_back(dict.InternIri(Iri(i)));
  }
  void Add(uint64_t s, uint64_t p, uint64_t o) {
    store.Add(ids[s], ids[p], ids[o]);
  }
};

/// Checks one query's pair (0, 1) and (1, 0): oracle vs the estimator
/// without a cache, and with a cache both when cold and from the cache.
void ExpectSameAsReference(const World& w, const sparql::SelectQuery& q,
                           uint64_t max_work, const std::string& label) {
  for (auto [a, b] : {std::pair<size_t, size_t>{0, 1}, {1, 0}}) {
    const std::optional<double> want =
        ReferencePairJoinCount(w.store, w.dict, q, a, b, max_work);
    CardinalityEstimator plain(w.store, w.dict);
    CardinalityCache cache;
    CardinalityEstimator cached(w.store, w.dict, &cache);
    const std::optional<double> cold = cached.ExactPairJoinCount(q, a, b,
                                                                 max_work);
    const std::optional<double> warm = cached.ExactPairJoinCount(q, a, b,
                                                                 max_work);
    for (const auto& [got, how] :
         {std::pair{plain.ExactPairJoinCount(q, a, b, max_work), "plain"},
          std::pair{cold, "cold cache"}, std::pair{warm, "warm cache"}}) {
      ASSERT_EQ(got.has_value(), want.has_value())
          << label << " " << how << " pair " << a << "," << b;
      if (want.has_value()) {
        EXPECT_EQ(*got, *want) << label << " " << how << " pair " << a << ","
                               << b;
      }
    }
  }
}

/// A pattern with the shared variable ?x at `shared`, and at each other
/// slot (by `mask` bit) a constant drawn from `space` or a private
/// variable. `absent` turns one constant into a term not in the data.
TriplePattern MakePattern(util::Rng* rng, TriplePos shared, int mask,
                          uint64_t space, const std::string& own,
                          bool absent) {
  Slot slots[3];
  int own_vars = 0;
  for (int k = 0; k < 3; ++k) {
    if (static_cast<TriplePos>(k) == shared) {
      slots[k] = Slot::Var("x");
    } else if ((mask >> k) & 1) {
      slots[k] = absent ? Slot::Const(rdf::Term::Iri("http://t/absent"))
                        : Const(rng->Uniform(space));
      absent = false;
    } else {
      slots[k] = Slot::Var(own + std::to_string(own_vars++));
    }
  }
  return TriplePattern(slots[0], slots[1], slots[2]);
}

TEST(PairJoinKernelTest, MatchesReferenceOnRandomStores) {
  util::Rng rng(20140331);
  for (int round = 0; round < 3; ++round) {
    // A small id space shared by all positions, so keys repeat, runs form,
    // and a variable in predicate position joins subjects and objects.
    const uint64_t space = 12 + 20 * static_cast<uint64_t>(round);
    World w(space);
    for (int i = 0; i < 3000; ++i) {
      w.Add(rng.Uniform(space), rng.Uniform(space / 3 + 1),
            rng.Uniform(space));
    }
    if (round == 2) w.store.BuildAllIndexes();
    w.store.Finalize();
    for (TriplePos pa : {TriplePos::kS, TriplePos::kP, TriplePos::kO}) {
      for (TriplePos pb : {TriplePos::kS, TriplePos::kP, TriplePos::kO}) {
        for (int mask_a = 0; mask_a < 8; ++mask_a) {
          if ((mask_a >> static_cast<int>(pa)) & 1) continue;
          for (int mask_b = 0; mask_b < 8; ++mask_b) {
            if ((mask_b >> static_cast<int>(pb)) & 1) continue;
            sparql::SelectQuery q;
            const bool absent = rng.Bernoulli(0.05);
            q.patterns.push_back(
                MakePattern(&rng, pa, mask_a, space, "a", absent));
            q.patterns.push_back(
                MakePattern(&rng, pb, mask_b, space, "b", false));
            const std::string label =
                "round " + std::to_string(round) + " " +
                q.patterns[0].ToString() + " / " + q.patterns[1].ToString();
            ExpectSameAsReference(w, q,
                                  CardinalityEstimator::kDefaultPairJoinMaxWork,
                                  label);
            // A tiny budget declines the pairs whose sides both pass 4096
            // (none here) and keeps every merge-swept pair.
            ExpectSameAsReference(w, q, 64, label + " max_work=64");
          }
        }
      }
    }
  }
}

TEST(PairJoinKernelTest, UnsortedSmallSideTakesTheSortPath) {
  // The small side (?x p ?y) is read from POS, which orders it on ?y, not
  // on the shared ?x: its keys must be sorted before the sweep. Subjects
  // repeat, so duplicate keys meet the sweep too.
  util::Rng rng(7);
  World w(300);
  for (int i = 0; i < 400; ++i) w.Add(rng.Uniform(50), 1, rng.Uniform(300));
  for (int i = 0; i < 2000; ++i) w.Add(rng.Uniform(60), 2, rng.Uniform(300));
  w.store.Finalize();
  sparql::SelectQuery q;
  q.patterns.push_back(TriplePattern(Slot::Var("x"), Const(1), Slot::Var("y")));
  q.patterns.push_back(TriplePattern(Slot::Var("x"), Const(2), Slot::Var("z")));
  ExpectSameAsReference(w, q, CardinalityEstimator::kDefaultPairJoinMaxWork,
                        "unsorted small side");
  CardinalityEstimator est(w.store, w.dict);
  ASSERT_TRUE(est.ExactPairJoinCount(q, 0, 1).has_value());
  EXPECT_GT(*est.ExactPairJoinCount(q, 0, 1), 0.0);
}

TEST(PairJoinKernelTest, AbsentConstantAndEmptySides) {
  World w(10);
  w.Add(1, 2, 3);
  w.Add(3, 2, 4);
  w.Add(4, 5, 6);
  w.store.Finalize();
  CardinalityEstimator est(w.store, w.dict);
  // Absent constant: 0, also with a cache.
  sparql::SelectQuery absent;
  absent.patterns.push_back(TriplePattern(
      Slot::Var("x"), Slot::Const(rdf::Term::Iri("http://t/none")),
      Slot::Var("y")));
  absent.patterns.push_back(
      TriplePattern(Slot::Var("x"), Const(2), Slot::Var("z")));
  ExpectSameAsReference(w, absent,
                        CardinalityEstimator::kDefaultPairJoinMaxWork,
                        "absent");
  EXPECT_EQ(est.ExactPairJoinCount(absent, 0, 1), std::optional<double>(0.0));
  // Present constants that match nothing (e7 is never a predicate).
  sparql::SelectQuery empty;
  empty.patterns.push_back(
      TriplePattern(Slot::Var("x"), Const(7), Slot::Var("y")));
  empty.patterns.push_back(
      TriplePattern(Slot::Var("x"), Const(2), Slot::Var("z")));
  ExpectSameAsReference(w, empty,
                        CardinalityEstimator::kDefaultPairJoinMaxWork,
                        "empty");
  EXPECT_EQ(est.ExactPairJoinCount(empty, 0, 1), std::optional<double>(0.0));
  // Both sides empty.
  sparql::SelectQuery both;
  both.patterns.push_back(
      TriplePattern(Slot::Var("x"), Const(7), Slot::Var("y")));
  both.patterns.push_back(
      TriplePattern(Slot::Var("x"), Const(8), Slot::Var("z")));
  ExpectSameAsReference(w, both, 0, "both empty");
}

TEST(PairJoinKernelTest, LimitBoundaryAndReducedBudget) {
  // Side a = (?x e1 e2) with exactly `small` triples, side b = (?x e3 ?y)
  // with 3 triples per subject over a larger subject set. Around the
  // 4096-triple limit, the budget decides only above it: at or below,
  // the merge sweep counts whatever max_work is.
  for (uint64_t small : {4095u, 4096u, 4097u}) {
    const uint64_t subjects = 6000;
    World w(10 + subjects);
    for (uint64_t i = 0; i < small; ++i) w.Add(10 + i, 1, 2);
    for (uint64_t i = 0; i < subjects; i += 2) {
      for (uint64_t k = 4; k < 7; ++k) w.Add(10 + i, 3, k);
    }
    w.store.Finalize();
    sparql::SelectQuery q;
    q.patterns.push_back(TriplePattern(Slot::Var("x"), Const(1), Const(2)));
    q.patterns.push_back(
        TriplePattern(Slot::Var("x"), Const(3), Slot::Var("y")));
    const uint64_t sum = small + 3 * (subjects / 2);
    for (uint64_t max_work : {sum - 1, sum, sum + 1, uint64_t{0},
                              CardinalityEstimator::kDefaultPairJoinMaxWork}) {
      const std::string label = "small=" + std::to_string(small) +
                                " max_work=" + std::to_string(max_work);
      ExpectSameAsReference(w, q, max_work, label);
      CardinalityEstimator est(w.store, w.dict);
      const bool declined = small > 4096 && sum > max_work;
      EXPECT_EQ(est.ExactPairJoinCount(q, 0, 1, max_work).has_value(),
                !declined)
          << label;
    }
  }
}

TEST(PairJoinKernelTest, HashCountPassOnDenseAndSparseKeySpans) {
  // Both sides above the 4096-triple merge-sweep limit, so the hash-count
  // pass counts them. The small side (?x e1 e2) holds 2500 keys twice
  // each, `stride` ids apart: its keys span 2500·stride ids against 5000
  // triples, so strides up to 8 get a dense count table and wider ones
  // the hash map. The big side has 3 triples on every other key, plus one
  // triple on each key + 1, which matches only where keys are adjacent.
  for (uint64_t stride : {1u, 4u, 8u, 9u, 50u}) {
    const uint64_t keys = 2500;
    World w(10 + keys * stride + 2);
    auto key = [&](uint64_t j) { return 10 + j * stride; };
    for (uint64_t j = 0; j < keys; ++j) {
      w.Add(key(j), 1, 2);
      w.Add(key(j), 1, 3);  // the same key again, another triple
      if (j % 2 == 0) {
        for (uint64_t k = 4; k < 7; ++k) w.Add(key(j), 7, k);
      }
      w.Add(key(j) + 1, 7, 8);
    }
    // A few small-side keys in object position on the big side.
    for (uint64_t j = 0; j < 3; ++j) w.Add(key(j), 7, key(j + 1));
    w.store.Finalize();

    sparql::SelectQuery q;
    q.patterns.push_back(TriplePattern(Slot::Var("x"), Const(1),
                                       Slot::Var("z")));
    q.patterns.push_back(TriplePattern(Slot::Var("x"), Const(7),
                                       Slot::Var("y")));
    // The shared variable in object position on the big side.
    sparql::SelectQuery by_object;
    by_object.patterns.push_back(q.patterns[0]);
    by_object.patterns.push_back(TriplePattern(Slot::Var("y"), Const(7),
                                               Slot::Var("x")));

    const std::string label = "stride=" + std::to_string(stride);
    const rdf::Triple small_side(rdf::kWildcardId, w.ids[1],
                                 rdf::kWildcardId);
    const auto small_run = w.store.Range(
        w.store.ChooseIndex(small_side.s, small_side.p, small_side.o),
        small_side.s, small_side.p, small_side.o);
    ASSERT_EQ(small_run.size(), 2 * keys) << label;
    EXPECT_EQ(SlotCountTable::Build(small_run, TriplePos::kS).has_value(),
              stride <= 8)
        << label;
    for (uint64_t max_work : {CardinalityEstimator::kDefaultPairJoinMaxWork,
                              uint64_t{11000}, uint64_t{12000}}) {
      const std::string budget = label + " max_work=" + std::to_string(max_work);
      ExpectSameAsReference(w, q, max_work, budget);
      ExpectSameAsReference(w, by_object, max_work, budget + " by object");
    }
    CardinalityEstimator est(w.store, w.dict);
    // 1250 keys with 3 big-side triples, each key on 2 small-side triples;
    // key + 1 is another key only at stride 1; keys 0..2 carry one more.
    const double want = 1250.0 * 3 * 2 + (stride == 1 ? (keys - 1) * 2 : 0) +
                        3 * 2;
    EXPECT_EQ(est.ExactPairJoinCount(q, 0, 1), std::optional<double>(want))
        << label;
  }
}

TEST(PairJoinKernelTest, NotApplicablePairs) {
  World w(10);
  w.Add(1, 2, 3);
  w.Add(3, 2, 1);
  w.store.Finalize();
  CardinalityEstimator est(w.store, w.dict);
  // Two shared variables.
  sparql::SelectQuery two;
  two.patterns.push_back(
      TriplePattern(Slot::Var("x"), Const(2), Slot::Var("y")));
  two.patterns.push_back(
      TriplePattern(Slot::Var("y"), Const(2), Slot::Var("x")));
  EXPECT_FALSE(est.ExactPairJoinCount(two, 0, 1).has_value());
  // The shared variable twice inside one pattern.
  sparql::SelectQuery repeated;
  repeated.patterns.push_back(
      TriplePattern(Slot::Var("x"), Const(2), Slot::Var("x")));
  repeated.patterns.push_back(
      TriplePattern(Slot::Var("x"), Const(2), Slot::Var("z")));
  EXPECT_FALSE(est.ExactPairJoinCount(repeated, 0, 1).has_value());
  // Out-of-range pattern index.
  EXPECT_FALSE(est.ExactPairJoinCount(repeated, 0, 5).has_value());
  ExpectSameAsReference(w, two, CardinalityEstimator::kDefaultPairJoinMaxWork,
                        "two shared");
  ExpectSameAsReference(w, repeated,
                        CardinalityEstimator::kDefaultPairJoinMaxWork,
                        "repeated");
}

TEST(PairJoinKernelTest, RoutePairJoinDeclineRule) {
  EXPECT_EQ(RoutePairJoin(0, 10, 100), PairJoinRoute::kEmpty);
  EXPECT_EQ(RoutePairJoin(10, 0, 100), PairJoinRoute::kEmpty);
  EXPECT_EQ(RoutePairJoin(4096, 1u << 30, 1), PairJoinRoute::kCount);
  EXPECT_EQ(RoutePairJoin(4097, 5000, 9097), PairJoinRoute::kCount);
  EXPECT_EQ(RoutePairJoin(4097, 5000, 9096), PairJoinRoute::kDeclined);
  EXPECT_EQ(RoutePairJoin(5000, 4097, 9096), PairJoinRoute::kDeclined);
}

}  // namespace
}  // namespace rdfparams::opt
