#include "core/features.h"

#include <cmath>

#include <gtest/gtest.h>

#include "test_support.h"

namespace gsmb {
namespace {

// All closed-form expectations below are hand-computed from the paper's
// Figure 1 example (see test_support.h for the block layout):
//   |B| = 8, ||B|| = 24.
//   e5 (id 5): blocks {samsung(||6||), mate(1), phone(1), fold(1)}.
//   e6 (id 6): blocks {samsung(6), 20(3), mate(1), phone(1), fold(1)}.
//   pair (5,6): 4 common blocks.
class PaperFeaturesTest : public ::testing::Test {
 protected:
  PaperFeaturesTest()
      : bc_(testing::PaperExampleBlocks()),
        index_(bc_),
        pairs_(GenerateCandidatePairs(index_)),
        extractor_(index_, pairs_) {}

  size_t RowOf(EntityId left, EntityId right) const {
    for (size_t i = 0; i < pairs_.size(); ++i) {
      if (pairs_[i].left == left && pairs_[i].right == right) return i;
    }
    ADD_FAILURE() << "pair not found";
    return 0;
  }

  BlockCollection bc_;
  EntityIndex index_;
  std::vector<CandidatePair> pairs_;
  FeatureExtractor extractor_;
};

TEST_F(PaperFeaturesTest, MatrixShape) {
  Matrix all = extractor_.ComputeAll();
  EXPECT_EQ(all.rows(), 16u);
  EXPECT_EQ(all.cols(), 9u);
  Matrix js = extractor_.Compute(FeatureSet({Feature::kJs}));
  EXPECT_EQ(js.cols(), 1u);
}

TEST_F(PaperFeaturesTest, JaccardScheme) {
  Matrix js = extractor_.Compute(FeatureSet({Feature::kJs}));
  // (5,6): 4 / (4 + 5 - 4) = 0.8.
  EXPECT_NEAR(js.At(RowOf(5, 6), 0), 0.8, 1e-12);
  // (0,2): 3 / (3 + 3 - 3) = 1.0 — identical block sets.
  EXPECT_NEAR(js.At(RowOf(0, 2), 0), 1.0, 1e-12);
  // (0,1): 1 / (3 + 2 - 1) = 0.25.
  EXPECT_NEAR(js.At(RowOf(0, 1), 0), 0.25, 1e-12);
}

TEST_F(PaperFeaturesTest, CfIbf) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kCfIbf}));
  // (5,6): 4 * log(8/4) * log(8/5).
  EXPECT_NEAR(m.At(RowOf(5, 6), 0),
              4.0 * std::log(2.0) * std::log(8.0 / 5.0), 1e-12);
  // (1,3): 2 common, |B1| = 2, |B3| = 3.
  EXPECT_NEAR(m.At(RowOf(1, 3), 0),
              2.0 * std::log(4.0) * std::log(8.0 / 3.0), 1e-12);
}

TEST_F(PaperFeaturesTest, Raccb) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kRaccb}));
  // (5,6): common blocks samsung(6), mate(1), phone(1), fold(1).
  EXPECT_NEAR(m.At(RowOf(5, 6), 0), 1.0 / 6 + 3.0, 1e-12);
  // (0,2): apple(1), iphone(1), smartphone(10).
  EXPECT_NEAR(m.At(RowOf(0, 2), 0), 2.1, 1e-12);
}

TEST_F(PaperFeaturesTest, ReciprocalSizes) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kRs}));
  // (5,6): sizes 4, 2, 2, 2 -> 1/4 + 3/2.
  EXPECT_NEAR(m.At(RowOf(5, 6), 0), 0.25 + 1.5, 1e-12);
  // (3,4): common blocks 20(size 3), smartphone(size 5).
  EXPECT_NEAR(m.At(RowOf(3, 4), 0), 1.0 / 3 + 0.2, 1e-12);
}

TEST_F(PaperFeaturesTest, WeightedJaccard) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kWjs}));
  // (5,6): common = 1/6+3; denominators: e5 = 1/6+3, e6 = 1/6+1/3+3.
  const double common = 1.0 / 6 + 3.0;
  const double e5 = 1.0 / 6 + 3.0;
  const double e6 = 1.0 / 6 + 1.0 / 3 + 3.0;
  EXPECT_NEAR(m.At(RowOf(5, 6), 0), common / (e5 + e6 - common), 1e-12);
}

TEST_F(PaperFeaturesTest, NormalizedReciprocalSizes) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kNrs}));
  const double common = 0.25 + 1.5;
  const double e5 = 0.25 + 1.5;
  const double e6 = 0.25 + 1.0 / 3 + 1.5;
  EXPECT_NEAR(m.At(RowOf(5, 6), 0), common / (e5 + e6 - common), 1e-12);
}

TEST_F(PaperFeaturesTest, EnhancedJaccard) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kEjs}));
  // (5,6): JS = 0.8, ||e5|| = 9, ||e6|| = 12, ||B|| = 24.
  EXPECT_NEAR(m.At(RowOf(5, 6), 0),
              0.8 * std::log(24.0 / 9.0) * std::log(2.0), 1e-12);
}

TEST_F(PaperFeaturesTest, LcpPerEntity) {
  std::vector<double> lcp = extractor_.ComputeLcpPerEntity();
  ASSERT_EQ(lcp.size(), 7u);
  // e0 co-occurs with {2 (apple, iphone), 1, 3, 4 (smartphone)} -> 4.
  EXPECT_DOUBLE_EQ(lcp[0], 4.0);
  // e5 co-occurs with {1, 3, 6} -> 3.
  EXPECT_DOUBLE_EQ(lcp[5], 3.0);
  // e6 co-occurs with {1, 3, 5 (samsung), 4 (20)} -> 4.
  EXPECT_DOUBLE_EQ(lcp[6], 4.0);
}

TEST_F(PaperFeaturesTest, LcpColumnsInPairMatrix) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kLcp}));
  ASSERT_EQ(m.cols(), 2u);
  size_t row = RowOf(5, 6);
  EXPECT_DOUBLE_EQ(m.At(row, 0), 3.0);  // LCP(e5)
  EXPECT_DOUBLE_EQ(m.At(row, 1), 4.0);  // LCP(e6)
}

TEST_F(PaperFeaturesTest, SubsetColumnsMatchFullMatrix) {
  Matrix all = extractor_.ComputeAll();
  FeatureSet subset({Feature::kRaccb, Feature::kWjs, Feature::kNrs});
  Matrix sub = extractor_.Compute(subset);
  Matrix selected = all.SelectColumns(subset.FullMatrixColumns());
  ASSERT_EQ(sub.rows(), selected.rows());
  ASSERT_EQ(sub.cols(), selected.cols());
  for (size_t r = 0; r < sub.rows(); ++r) {
    for (size_t c = 0; c < sub.cols(); ++c) {
      EXPECT_DOUBLE_EQ(sub.At(r, c), selected.At(r, c)) << r << "," << c;
    }
  }
}

// Brute-force reference implementation for Clean-Clean feature extraction:
// every quantity recomputed from scratch per pair.
TEST(FeaturesCleanClean, MatchesBruteForce) {
  const PreparedDataset& prep = gsmb::testing::MediumDataset();
  const EntityIndex& index = *prep.index;
  const std::vector<CandidatePair>& pairs = gsmb::testing::MediumPairs();
  FeatureExtractor extractor(index, pairs);
  Matrix all = extractor.ComputeAll();

  const size_t offset = index.num_left();
  const size_t sample_step = std::max<size_t>(1, pairs.size() / 200);
  for (size_t r = 0; r < pairs.size(); r += sample_step) {
    const CandidatePair& p = pairs[r];
    const size_t gi = p.left;
    const size_t gj = offset + p.right;
    const double common = static_cast<double>(index.CommonBlocks(gi, gj));
    ASSERT_GT(common, 0.0);

    // Recompute the common-block sums by intersecting the block lists.
    double inv_cmp = 0.0;
    double inv_size = 0.0;
    auto bi = index.BlocksOf(gi);
    auto bj = index.BlocksOf(gj);
    size_t a = 0;
    size_t b = 0;
    while (a < bi.size() && b < bj.size()) {
      if (bi[a] < bj[b]) {
        ++a;
      } else if (bj[b] < bi[a]) {
        ++b;
      } else {
        inv_cmp += 1.0 / index.BlockComparisons(bi[a]);
        inv_size += 1.0 / static_cast<double>(index.BlockSize(bi[a]));
        ++a;
        ++b;
      }
    }

    const double nbi = static_cast<double>(index.NumBlocksOf(gi));
    const double nbj = static_cast<double>(index.NumBlocksOf(gj));
    const double nb = static_cast<double>(index.num_blocks());
    EXPECT_NEAR(all.At(r, 0),
                common * std::log(nb / nbi) * std::log(nb / nbj), 1e-9);
    EXPECT_NEAR(all.At(r, 1), inv_cmp, 1e-9);
    EXPECT_NEAR(all.At(r, 2), common / (nbi + nbj - common), 1e-9);
    const double js = common / (nbi + nbj - common);
    EXPECT_NEAR(all.At(r, 5),
                js * std::log(index.TotalComparisons() /
                              index.EntityComparisons(gi)) *
                    std::log(index.TotalComparisons() /
                             index.EntityComparisons(gj)),
                1e-9);
    EXPECT_NEAR(all.At(r, 6),
                inv_cmp / (index.SumInvBlockComparisons(gi) +
                           index.SumInvBlockComparisons(gj) - inv_cmp),
                1e-9);
    EXPECT_NEAR(all.At(r, 7), inv_size, 1e-9);
    EXPECT_NEAR(all.At(r, 8),
                inv_size / (index.SumInvBlockSizes(gi) +
                            index.SumInvBlockSizes(gj) - inv_size),
                1e-9);
  }
}

}  // namespace
}  // namespace gsmb
