#include "matching/matcher.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "datasets/clean_clean_generator.h"
#include "datasets/specs.h"
#include "matching/similarity.h"
#include "test_support.h"

namespace gsmb {
namespace {

std::vector<std::string> Tokens(std::initializer_list<const char*> list) {
  std::vector<std::string> out;
  for (const char* t : list) out.push_back(t);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Similarity, JaccardBasics) {
  auto a = Tokens({"apple", "iphone", "x"});
  auto b = Tokens({"apple", "iphone", "10"});
  EXPECT_DOUBLE_EQ(TokenSimilarity(a, b, SimilarityKind::kJaccard),
                   2.0 / 4.0);
  EXPECT_DOUBLE_EQ(TokenSimilarity(a, a, SimilarityKind::kJaccard), 1.0);
}

TEST(Similarity, DiceAndOverlap) {
  auto a = Tokens({"x", "y"});
  auto b = Tokens({"y", "z", "w"});
  EXPECT_DOUBLE_EQ(TokenSimilarity(a, b, SimilarityKind::kDice),
                   2.0 * 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(TokenSimilarity(a, b, SimilarityKind::kOverlap), 0.5);
}

TEST(Similarity, DisjointAndEmpty) {
  auto a = Tokens({"x"});
  auto b = Tokens({"y"});
  EXPECT_DOUBLE_EQ(TokenSimilarity(a, b, SimilarityKind::kJaccard), 0.0);
  EXPECT_DOUBLE_EQ(TokenSimilarity({}, b, SimilarityKind::kJaccard), 0.0);
}

TEST(Similarity, ProfileOverloadTokenises) {
  EntityProfile a("1");
  a.AddAttribute("name", "Apple iPhone");
  EntityProfile b("2");
  b.AddAttribute("title", "apple IPHONE");
  EXPECT_DOUBLE_EQ(ProfileSimilarity(a, b), 1.0);
}

TEST(Similarity, Names) {
  EXPECT_STREQ(SimilarityKindName(SimilarityKind::kJaccard), "Jaccard");
  EXPECT_STREQ(SimilarityKindName(SimilarityKind::kDice), "Dice");
}

TEST(Matcher, ThresholdSplitsDecisions) {
  EntityCollection e;
  auto add = [&](const char* id, const char* text) {
    EntityProfile p(id);
    p.AddAttribute("t", text);
    return e.Add(std::move(p));
  };
  add("0", "alpha beta gamma");
  add("1", "alpha beta gamma");   // identical to 0
  add("2", "alpha zeta eta");     // 1/5 similar to 0
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}};
  std::vector<uint32_t> retained = {0, 1};
  auto decisions = ThresholdMatcher(0.5).Match(e, pairs, retained);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].pair, (CandidatePair{0, 1}));
  EXPECT_DOUBLE_EQ(decisions[0].similarity, 1.0);
}

TEST(Matcher, OnlyConsidersRetainedPairs) {
  EntityCollection e;
  for (int i = 0; i < 3; ++i) {
    EntityProfile p(std::to_string(i));
    p.AddAttribute("t", "same tokens here");
    e.Add(std::move(p));
  }
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}, {1, 2}};
  auto decisions = ThresholdMatcher(0.5).Match(e, pairs, {2});
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].pair, (CandidatePair{1, 2}));
}

TEST(Matcher, EvaluateMatchingMath) {
  GroundTruth gt(/*dirty=*/true);
  gt.AddMatch(0, 1);
  gt.AddMatch(2, 3);
  std::vector<MatchDecision> decisions = {{{0, 1}, 0.9}, {{1, 2}, 0.8}};
  MatchingQuality q = EvaluateMatching(decisions, gt);
  EXPECT_EQ(q.correct_matches, 1u);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_DOUBLE_EQ(q.f1, 0.5);
}

TEST(Matcher, ClusterMatchesConnectedComponents) {
  std::vector<MatchDecision> decisions = {
      {{0, 1}, 1.0}, {{1, 2}, 1.0}, {{4, 5}, 1.0}};
  auto clusters = ClusterMatches(7, decisions);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<EntityId>{0, 1, 2}));
  EXPECT_EQ(clusters[1], (std::vector<EntityId>{4, 5}));
}

TEST(Matcher, ClusterNoMatchesNoClusters) {
  EXPECT_TRUE(ClusterMatches(5, {}).empty());
}

TEST(Matcher, EndToEndRaisesF1OverMetaBlocking) {
  // Paper Section 5.2: meta-blocking's block collection is handed to a
  // Matching algorithm whose job is to push F1 towards 1.
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.features = FeatureSet::BlastOptimal();
  config.pruning = PruningKind::kBlast;
  config.train_per_class = 25;
  config.keep_retained = true;
  MetaBlockingResult r = RunMetaBlocking(prep, testing::MediumPairs(), config);

  // Dataset names are opaque here; rebuild the collections from the spec.
  CleanCleanSpec spec = CleanCleanSpecByName("DblpAcm", /*scale=*/0.25);
  GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
  auto decisions = ThresholdMatcher(0.35).Match(
      data.e1, data.e2, testing::MediumPairs(), r.retained_indices);
  MatchingQuality q = EvaluateMatching(decisions, prep.ground_truth);
  // On this clean dataset meta-blocking is already near-perfect; matching
  // must at least preserve that quality while never lowering precision.
  EXPECT_GE(q.precision, r.metrics.precision - 1e-9);
  EXPECT_GT(q.f1, 0.9);
  EXPECT_LE(q.decided_matches, r.metrics.retained);
}

}  // namespace
}  // namespace gsmb
