#include "core/pruning.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace gsmb {
namespace {

PruningContext Ctx(size_t nodes) {
  PruningContext ctx;
  ctx.num_nodes = nodes;
  ctx.right_offset = 0;
  ctx.validity_threshold = 0.5;
  return ctx;
}

// The paper's Figure 4 example: six weighted edges, of which three survive
// Supervised WNP. Node ids follow the paper (e1..e7 -> 0..6).
struct Fig4 {
  std::vector<CandidatePair> pairs = {
      {0, 2},  // e1-e3  p=0.55  (match)
      {1, 3},  // e2-e4  p=0.90  (match)
      {2, 4},  // e3-e5  p=0.26
      {3, 4},  // e4-e5  p=0.55
      {4, 6},  // e5-e7  p=0.41
      {5, 6},  // e6-e7  p=0.70  (match)
      {1, 5},  // e2-e6  p=0.30
      {0, 1},  // e1-e2  p=0.36
  };
  std::vector<double> probs = {0.55, 0.90, 0.26, 0.55, 0.41, 0.70, 0.30,
                               0.36};
};

TEST(BCl, KeepsAllValidPairs) {
  Fig4 g;
  auto retained = MakePruningAlgorithm(PruningKind::kBCl)->Prune(
      g.pairs, g.probs, Ctx(7));
  // Valid = probability >= 0.5: indices 0, 1, 3, 5.
  EXPECT_EQ(retained, (std::vector<uint32_t>{0, 1, 3, 5}));
}

TEST(BCl, EmptyWhenNothingValid) {
  std::vector<CandidatePair> pairs = {{0, 1}};
  std::vector<double> probs = {0.49};
  EXPECT_TRUE(MakePruningAlgorithm(PruningKind::kBCl)
                  ->Prune(pairs, probs, Ctx(2))
                  .empty());
}

TEST(Wep, GlobalAverageThreshold) {
  Fig4 g;
  // Valid probabilities: 0.55, 0.90, 0.55, 0.70; mean = 0.675.
  auto retained = MakePruningAlgorithm(PruningKind::kWep)->Prune(
      g.pairs, g.probs, Ctx(7));
  EXPECT_EQ(retained, (std::vector<uint32_t>{1, 5}));
}

TEST(Wep, AllEqualProbabilitiesKeepEverythingValid) {
  std::vector<CandidatePair> pairs = {{0, 1}, {1, 2}, {0, 2}};
  std::vector<double> probs = {0.7, 0.7, 0.7};
  auto retained = MakePruningAlgorithm(PruningKind::kWep)->Prune(
      pairs, probs, Ctx(3));
  EXPECT_EQ(retained.size(), 3u);
}

TEST(Wep, EmptyInput) {
  EXPECT_TRUE(MakePruningAlgorithm(PruningKind::kWep)
                  ->Prune({}, {}, Ctx(3))
                  .empty());
}

TEST(Wnp, KeepsPairAboveEitherEndpointAverage) {
  // Node 0 has valid pairs {0.6, 0.9} -> avg 0.75; node 1: {0.6} -> 0.6;
  // node 2: {0.9, 0.5} -> 0.7; node 3: {0.5} -> 0.5.
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}, {2, 3}};
  std::vector<double> probs = {0.6, 0.9, 0.5};
  auto retained = MakePruningAlgorithm(PruningKind::kWnp)->Prune(
      pairs, probs, Ctx(4));
  // (0,1): 0.6 < 0.75 but = avg of node 1 -> kept.
  // (0,2): 0.9 >= both -> kept.
  // (2,3): 0.5 < 0.7 but = avg of node 3 -> kept.
  EXPECT_EQ(retained, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(Rwnp, RequiresBothEndpointAverages) {
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}, {2, 3}};
  std::vector<double> probs = {0.6, 0.9, 0.5};
  auto retained = MakePruningAlgorithm(PruningKind::kRwnp)->Prune(
      pairs, probs, Ctx(4));
  // Only (0,2) clears both node averages.
  EXPECT_EQ(retained, (std::vector<uint32_t>{1}));
}

TEST(Rwnp, SubsetOfWnp) {
  testing::PruningFixture f = testing::RandomPruningGraph(40, 0.3, 11);
  auto wnp = MakePruningAlgorithm(PruningKind::kWnp)->Prune(
      f.pairs, f.probs, f.context);
  auto rwnp = MakePruningAlgorithm(PruningKind::kRwnp)->Prune(
      f.pairs, f.probs, f.context);
  EXPECT_LE(rwnp.size(), wnp.size());
  size_t j = 0;
  for (uint32_t idx : rwnp) {
    while (j < wnp.size() && wnp[j] < idx) ++j;
    ASSERT_LT(j, wnp.size());
    EXPECT_EQ(wnp[j], idx);
  }
}

TEST(Blast, Figure4Shape) {
  // The paper's motivating case: (e1,e3) and (e4,e5) have the same weight
  // 0.55, yet BLAST keeps the former and drops the latter because e4's
  // neighbourhood contains the strong 0.90 edge.
  Fig4 g;
  PruningContext ctx = Ctx(7);
  ctx.blast_ratio = 0.5;
  auto retained = MakePruningAlgorithm(PruningKind::kBlast)->Prune(
      g.pairs, g.probs, ctx);
  // max: n0=0.55 n1=0.90 n2=0.55 n3=0.90 n4=0.55 n5=0.70 n6=0.70.
  // (0,2)=0.55 vs 0.5*(0.55+0.55)=0.55 -> kept.
  // (1,3)=0.90 vs 0.5*(0.90+0.90)=0.90 -> kept.
  // (3,4)=0.55 vs 0.5*(0.90+0.55)=0.725 -> dropped.
  // (5,6)=0.70 vs 0.5*(0.70+0.70)=0.70 -> kept.
  EXPECT_EQ(retained, (std::vector<uint32_t>{0, 1, 5}));
}

TEST(Blast, LowRatioKeepsAllValid) {
  Fig4 g;
  PruningContext ctx = Ctx(7);
  ctx.blast_ratio = 0.05;
  auto retained = MakePruningAlgorithm(PruningKind::kBlast)->Prune(
      g.pairs, g.probs, ctx);
  auto bcl = MakePruningAlgorithm(PruningKind::kBCl)->Prune(
      g.pairs, g.probs, ctx);
  EXPECT_EQ(retained, bcl);
}

TEST(Blast, DefaultRatioIsGentlerThanHalf) {
  testing::PruningFixture f = testing::RandomPruningGraph(60, 0.2, 5);
  PruningContext r35 = f.context;
  r35.blast_ratio = 0.35;
  PruningContext r50 = f.context;
  r50.blast_ratio = 0.50;
  auto gentle = MakePruningAlgorithm(PruningKind::kBlast)->Prune(
      f.pairs, f.probs, r35);
  auto harsh = MakePruningAlgorithm(PruningKind::kBlast)->Prune(
      f.pairs, f.probs, r50);
  EXPECT_GE(gentle.size(), harsh.size());
}

TEST(WeightBased, InvalidPairsNeverRetained) {
  std::vector<CandidatePair> pairs = {{0, 1}, {1, 2}};
  std::vector<double> probs = {0.49, 0.999};
  for (PruningKind kind :
       {PruningKind::kBCl, PruningKind::kWep, PruningKind::kWnp,
        PruningKind::kRwnp, PruningKind::kBlast}) {
    auto retained =
        MakePruningAlgorithm(kind)->Prune(pairs, probs, Ctx(3));
    for (uint32_t idx : retained) EXPECT_NE(idx, 0u) << PruningKindName(kind);
  }
}

TEST(WeightBased, FactoryNamesAndCategories) {
  EXPECT_TRUE(IsWeightBased(PruningKind::kBlast));
  EXPECT_TRUE(IsWeightBased(PruningKind::kBCl));
  EXPECT_FALSE(IsWeightBased(PruningKind::kRcnp));
  EXPECT_EQ(MakePruningAlgorithm(PruningKind::kWep)->Name(), "WEP");
  EXPECT_EQ(MakePruningAlgorithm(PruningKind::kBlast)->kind(),
            PruningKind::kBlast);
}

}  // namespace
}  // namespace gsmb
