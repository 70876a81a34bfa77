#include "optimizer/cardinality.h"

#include <gtest/gtest.h>

#include "optimizer_dp_oracle.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"

namespace rdfparams::opt {
namespace {

class CardinalityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 3 people in China named Li, 1 named John; 2 in USA named John.
    const char* doc = R"(
@prefix sn: <http://sn/> .
@prefix c: <http://c/> .
sn:p1 sn:firstName "Li" ; sn:livesIn c:China .
sn:p2 sn:firstName "Li" ; sn:livesIn c:China .
sn:p3 sn:firstName "Li" ; sn:livesIn c:China .
sn:p4 sn:firstName "John" ; sn:livesIn c:China .
sn:p5 sn:firstName "John" ; sn:livesIn c:USA .
sn:p6 sn:firstName "John" ; sn:livesIn c:USA .
)";
    ASSERT_TRUE(rdf::LoadTurtle(doc, &dict_, &store_).ok());
    store_.Finalize();
  }

  sparql::SelectQuery Parse(const std::string& text) {
    auto q = sparql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  rdf::Dictionary dict_;
  rdf::TripleStore store_;
};

TEST_F(CardinalityTest, LeafCardinalitiesExact) {
  CardinalityEstimator est(store_, dict_);
  auto q = Parse(
      "SELECT * WHERE { ?p <http://sn/firstName> \"Li\" . "
      "?p <http://sn/livesIn> <http://c/China> . }");
  auto li = est.EstimatePattern(q, 0);
  ASSERT_TRUE(li.ok());
  EXPECT_DOUBLE_EQ(li->cardinality, 3.0);
  auto china = est.EstimatePattern(q, 1);
  ASSERT_TRUE(china.ok());
  EXPECT_DOUBLE_EQ(china->cardinality, 4.0);
}

TEST_F(CardinalityTest, AbsentConstantGivesZero) {
  CardinalityEstimator est(store_, dict_);
  auto q = Parse(
      "SELECT * WHERE { ?p <http://sn/firstName> \"Zorro\" . }");
  auto info = est.EstimatePattern(q, 0);
  ASSERT_TRUE(info.ok());
  EXPECT_DOUBLE_EQ(info->cardinality, 0.0);
}

TEST_F(CardinalityTest, DistinctCountsPerPredicate) {
  CardinalityEstimator est(store_, dict_);
  auto q = Parse("SELECT * WHERE { ?p <http://sn/firstName> ?n . }");
  auto info = est.EstimatePattern(q, 0);
  ASSERT_TRUE(info.ok());
  EXPECT_DOUBLE_EQ(info->cardinality, 6.0);
  EXPECT_DOUBLE_EQ(info->var_distinct.at("p"), 6.0);
  EXPECT_DOUBLE_EQ(info->var_distinct.at("n"), 2.0);  // "Li", "John"
}

TEST_F(CardinalityTest, JoinFormulaContainment) {
  RelationInfo a;
  a.cardinality = 100;
  a.var_distinct["x"] = 10;
  RelationInfo b;
  b.cardinality = 50;
  b.var_distinct["x"] = 25;
  b.var_distinct["y"] = 50;
  RelationInfo j = oracle::EstimateJoin(a, b);
  // 100 * 50 / max(10, 25) = 200.
  EXPECT_DOUBLE_EQ(j.cardinality, 200.0);
  EXPECT_DOUBLE_EQ(j.var_distinct.at("x"), 10.0);
  EXPECT_DOUBLE_EQ(j.var_distinct.at("y"), 50.0);
}

TEST_F(CardinalityTest, CrossProductWhenNoSharedVars) {
  RelationInfo a;
  a.cardinality = 10;
  a.var_distinct["x"] = 10;
  RelationInfo b;
  b.cardinality = 20;
  b.var_distinct["y"] = 20;
  RelationInfo j = oracle::EstimateJoin(a, b);
  EXPECT_DOUBLE_EQ(j.cardinality, 200.0);
}

TEST_F(CardinalityTest, SharedVarsSorted) {
  RelationInfo a;
  a.var_distinct["b"] = 1;
  a.var_distinct["a"] = 1;
  RelationInfo b;
  b.var_distinct["a"] = 1;
  b.var_distinct["b"] = 1;
  EXPECT_EQ(oracle::SharedVars(a, b),
            (std::vector<std::string>{"a", "b"}));
}

TEST_F(CardinalityTest, ExactPairJoinCountCorrelated) {
  CardinalityEstimator est(store_, dict_);
  auto q = Parse(
      "SELECT * WHERE { ?p <http://sn/firstName> \"Li\" . "
      "?p <http://sn/livesIn> <http://c/China> . }");
  auto exact = est.ExactPairJoinCount(q, 0, 1);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(*exact, 3.0);  // all three Lis live in China

  // John x China = 1 (anti-correlated), which the formula would miss.
  auto q2 = Parse(
      "SELECT * WHERE { ?p <http://sn/firstName> \"John\" . "
      "?p <http://sn/livesIn> <http://c/China> . }");
  auto exact2 = est.ExactPairJoinCount(q2, 0, 1);
  ASSERT_TRUE(exact2.has_value());
  EXPECT_DOUBLE_EQ(*exact2, 1.0);
}

TEST_F(CardinalityTest, ExactPairJoinHandlesAbsentConstant) {
  CardinalityEstimator est(store_, dict_);
  auto q = Parse(
      "SELECT * WHERE { ?p <http://sn/firstName> \"Nobody\" . "
      "?p <http://sn/livesIn> <http://c/China> . }");
  auto exact = est.ExactPairJoinCount(q, 0, 1);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(*exact, 0.0);
}

TEST_F(CardinalityTest, ExactPairJoinRejectsNoSharedVar) {
  CardinalityEstimator est(store_, dict_);
  auto q = Parse(
      "SELECT * WHERE { ?p <http://sn/firstName> ?n . "
      "?q <http://sn/livesIn> ?c . }");
  EXPECT_FALSE(est.ExactPairJoinCount(q, 0, 1).has_value());
}

TEST_F(CardinalityTest, ExactPairJoinWithMultiplicities) {
  // Join on object-to-subject chain with duplicate values.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  const char* doc = R"(
@prefix x: <http://x/> .
x:a x:p x:m .
x:b x:p x:m .
x:m x:q x:z1 .
x:m x:q x:z2 .
x:m x:q x:z3 .
)";
  ASSERT_TRUE(rdf::LoadTurtle(doc, &dict, &store).ok());
  store.Finalize();
  CardinalityEstimator est(store, dict);
  auto q = sparql::ParseQuery(
      "SELECT * WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?z . }");
  ASSERT_TRUE(q.ok());
  auto exact = est.ExactPairJoinCount(*q, 0, 1);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(*exact, 6.0);  // 2 subjects x 3 objects through m
}

TEST_F(CardinalityTest, FilterSelectivityHeuristics) {
  EXPECT_DOUBLE_EQ(FilterSelectivity(sparql::CompareOp::kEq, 10), 0.1);
  EXPECT_DOUBLE_EQ(FilterSelectivity(sparql::CompareOp::kNe, 10), 0.9);
  EXPECT_DOUBLE_EQ(FilterSelectivity(sparql::CompareOp::kLt, 10), 1.0 / 3);
  EXPECT_DOUBLE_EQ(FilterSelectivity(sparql::CompareOp::kEq, 0), 1.0);
}

TEST_F(CardinalityTest, UnboundParameterIsError) {
  CardinalityEstimator est(store_, dict_);
  auto q = Parse("SELECT * WHERE { ?p <http://sn/firstName> %name . }");
  EXPECT_FALSE(est.EstimatePattern(q, 0).ok());
}

TEST_F(CardinalityTest, PatternIndexOutOfRange) {
  CardinalityEstimator est(store_, dict_);
  auto q = Parse("SELECT * WHERE { ?p <http://sn/firstName> ?n . }");
  EXPECT_FALSE(est.EstimatePattern(q, 5).ok());
}

}  // namespace
}  // namespace rdfparams::opt
