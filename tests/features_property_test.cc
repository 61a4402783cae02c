// Property tests on the weighting schemes: invariants that must hold on any
// redundancy-positive block collection, checked over randomly generated
// datasets (parameterized on the generator seed).

#include <gtest/gtest.h>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/candidate_pairs.h"
#include "core/features.h"
#include "datasets/clean_clean_generator.h"
#include "datasets/dirty_generator.h"
#include "datasets/specs.h"
#include "test_support.h"

namespace gsmb {
namespace {

class SchemeBoundsSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchemeBoundsSweep, CleanCleanBounds) {
  CleanCleanSpec spec;
  spec.name = "prop";
  spec.e1_size = 150;
  spec.e2_size = 180;
  spec.num_duplicates = 90;
  spec.seed = GetParam();
  GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);

  BlockCollection blocks = testing::SchemeBlocks(data.e1, data.e2);
  blocks = BlockPurging().Apply(blocks);
  blocks = BlockFiltering().Apply(blocks);
  EntityIndex index(blocks);
  auto pairs = GenerateCandidatePairs(index);
  ASSERT_FALSE(pairs.empty());

  FeatureExtractor extractor(index, pairs);
  Matrix all = extractor.ComputeAll();
  for (size_t r = 0; r < all.rows(); ++r) {
    const double cfibf = all.At(r, 0);
    const double raccb = all.At(r, 1);
    const double js = all.At(r, 2);
    const double lcp_l = all.At(r, 3);
    const double lcp_r = all.At(r, 4);
    const double ejs = all.At(r, 5);
    const double wjs = all.At(r, 6);
    const double rs = all.At(r, 7);
    const double nrs = all.At(r, 8);

    EXPECT_GE(cfibf, 0.0);
    EXPECT_GT(raccb, 0.0);  // at least one common block
    EXPECT_GT(js, 0.0);
    EXPECT_LE(js, 1.0);
    EXPECT_GE(lcp_l, 1.0);  // candidates co-occur with at least each other
    EXPECT_GE(lcp_r, 1.0);
    EXPECT_GE(ejs, 0.0);    // ||e_i|| <= ||B|| so both logs are >= 0
    EXPECT_GT(wjs, 0.0);
    EXPECT_LE(wjs, 1.0 + 1e-12);
    EXPECT_GT(rs, 0.0);
    EXPECT_GT(nrs, 0.0);
    EXPECT_LE(nrs, 1.0 + 1e-12);
  }
}

TEST_P(SchemeBoundsSweep, DirtyBounds) {
  DirtySpec spec;
  spec.name = "prop-dirty";
  spec.num_entities = 300;
  spec.seed = GetParam();
  GeneratedDirty data = DirtyGenerator().Generate(spec);

  BlockCollection blocks = testing::SchemeBlocks(data.entities);
  blocks = BlockPurging().Apply(blocks);
  blocks = BlockFiltering().Apply(blocks);
  EntityIndex index(blocks);
  auto pairs = GenerateCandidatePairs(index);
  ASSERT_FALSE(pairs.empty());

  FeatureExtractor extractor(index, pairs);
  Matrix all = extractor.ComputeAll();
  for (size_t r = 0; r < all.rows(); ++r) {
    EXPECT_GT(all.At(r, 2), 0.0);               // JS
    EXPECT_LE(all.At(r, 2), 1.0);
    EXPECT_LE(all.At(r, 6), 1.0 + 1e-12);       // WJS
    EXPECT_LE(all.At(r, 8), 1.0 + 1e-12);       // NRS
    EXPECT_GE(all.At(r, 5), 0.0);               // EJS
  }
}

TEST_P(SchemeBoundsSweep, IdenticalBlockSetsMaximiseJaccardSchemes) {
  // Construct two entities with identical block lists: JS = WJS = NRS = 1.
  BlockCollection bc(/*clean_clean=*/false, 4, 0);
  Block b1;
  b1.key = "k1";
  b1.left = {0, 1};
  bc.Add(b1);
  Block b2;
  b2.key = "k2";
  b2.left = {0, 1, 2, 3};
  bc.Add(b2);
  EntityIndex index(bc);
  auto pairs = GenerateCandidatePairs(index);
  FeatureExtractor extractor(index, pairs);
  Matrix all = extractor.ComputeAll();
  // Pair (0,1) shares both blocks and each is in exactly those blocks.
  ASSERT_EQ(pairs[0], (CandidatePair{0, 1}));
  EXPECT_DOUBLE_EQ(all.At(0, 2), 1.0);  // JS
  EXPECT_DOUBLE_EQ(all.At(0, 6), 1.0);  // WJS
  EXPECT_DOUBLE_EQ(all.At(0, 8), 1.0);  // NRS
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemeBoundsSweep,
                         ::testing::Values(1, 7, 13, 29, 71));

}  // namespace
}  // namespace gsmb
