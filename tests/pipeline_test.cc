#include "core/pipeline.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "schemes/scheme_registry.h"
#include "test_support.h"

namespace gsmb {
namespace {

using testing::MediumPairs;

TEST(Prepare, CleanCleanProducesConsistentState) {
  const PreparedDataset& prep = testing::MediumDataset();
  const std::vector<CandidatePair>& pairs = testing::MediumPairs();
  EXPECT_TRUE(prep.clean_clean);
  EXPECT_GT(prep.blocks.size(), 0u);
  EXPECT_GT(pairs.size(), 0u);
  EXPECT_EQ(prep.num_candidates(), pairs.size());
  // positive_indices agree with the ground truth.
  for (size_t i = 0; i < pairs.size(); i += 97) {
    EXPECT_EQ(std::binary_search(prep.positive_indices.begin(),
                                 prep.positive_indices.end(), i),
              prep.ground_truth.IsMatch(pairs[i].left, pairs[i].right));
  }
  // Blocking quality measures are consistent.
  EXPECT_GT(prep.blocking_quality.recall, 0.5);
  EXPECT_LT(prep.blocking_quality.precision, 0.5);
  EXPECT_EQ(prep.blocking_quality.num_candidates, pairs.size());
}

TEST(Prepare, DirtyProducesConsistentState) {
  const PreparedDataset& prep = testing::SmallDirtyDataset();
  EXPECT_FALSE(prep.clean_clean);
  EXPECT_GT(prep.num_candidates(), 0u);
  EXPECT_GT(prep.blocking_quality.recall, 0.5);
}

TEST(Prepare, MismatchedGroundTruthSemanticsThrow) {
  testing::TinyCleanClean t = testing::MakeTinyCleanClean();
  JobInputs clean_clean;
  clean_clean.e1 = t.e1;
  clean_clean.e2 = t.e2;
  clean_clean.ground_truth = GroundTruth(/*dirty=*/true);
  EXPECT_THROW(schemes::PrepareInputs(clean_clean, {}, 1, "x"),
               std::invalid_argument);
  JobInputs dirty;
  dirty.e1 = t.e1;
  dirty.dirty = true;
  dirty.ground_truth = GroundTruth(/*dirty=*/false);
  EXPECT_THROW(schemes::PrepareInputs(dirty, {}, 1, "x"),
               std::invalid_argument);
}

TEST(Prepare, FromBlocksSkipsPreprocessing) {
  BlockCollection bc = testing::PaperExampleBlocks();
  PreparedDataset prep = PrepareFromBlocks(
      "paper", bc, testing::PaperExampleGroundTruth());
  EXPECT_EQ(prep.num_candidates(), 16u);
  EXPECT_DOUBLE_EQ(prep.blocking_quality.recall, 1.0);
  EXPECT_DOUBLE_EQ(prep.stats.cep_k, 11.0);
}

TEST(EvaluateRetained, Arithmetic) {
  const std::vector<uint64_t> positive_indices = {0, 2};
  EffectivenessMetrics m = EvaluateRetained({0, 1, 2}, positive_indices, 4);
  EXPECT_EQ(m.true_positives, 2u);
  EXPECT_EQ(m.retained, 3u);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.precision, 2.0 / 3.0);
  EXPECT_NEAR(m.f1, 2 * 0.5 * (2.0 / 3) / (0.5 + 2.0 / 3), 1e-12);
}

TEST(EvaluateRetained, EmptyRetention) {
  const std::vector<uint64_t> positive_indices = {0};
  EffectivenessMetrics m = EvaluateRetained({}, positive_indices, 2);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(RunMetaBlocking, EndToEndProducesSaneMetrics) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.pruning = PruningKind::kBlast;
  config.features = FeatureSet::BlastOptimal();
  config.train_per_class = 25;
  config.seed = 0;
  MetaBlockingResult result = RunMetaBlocking(prep, MediumPairs(), config);
  EXPECT_GE(result.metrics.recall, 0.0);
  EXPECT_LE(result.metrics.recall, 1.0);
  EXPECT_GE(result.metrics.precision, 0.0);
  EXPECT_LE(result.metrics.precision, 1.0);
  EXPECT_GT(result.metrics.retained, 0u);
  EXPECT_LT(result.metrics.retained, prep.num_candidates());
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_EQ(result.training_size, 50u);
  // Coefficients: 4 features + intercept.
  EXPECT_EQ(result.model_coefficients.size(), 5u);
  // Meta-blocking must sharply improve precision over raw blocking.
  EXPECT_GT(result.metrics.precision, 2.0 * prep.blocking_quality.precision);
}

TEST(RunMetaBlocking, KeepFlagsPopulateOutputs) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.keep_probabilities = true;
  config.keep_retained = true;
  config.train_per_class = 25;
  MetaBlockingResult result = RunMetaBlocking(prep, MediumPairs(), config);
  EXPECT_EQ(result.probabilities.size(), prep.num_candidates());
  EXPECT_EQ(result.retained_indices.size(), result.metrics.retained);
  for (double p : result.probabilities) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RunMetaBlocking, DeterministicGivenSeed) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.train_per_class = 25;
  config.seed = 7;
  MetaBlockingResult a = RunMetaBlocking(prep, MediumPairs(), config);
  MetaBlockingResult b = RunMetaBlocking(prep, MediumPairs(), config);
  EXPECT_EQ(a.metrics.retained, b.metrics.retained);
  EXPECT_DOUBLE_EQ(a.metrics.recall, b.metrics.recall);
  EXPECT_DOUBLE_EQ(a.metrics.precision, b.metrics.precision);
}

TEST(RunMetaBlocking, DifferentSeedsVarySample) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.train_per_class = 10;
  config.seed = 1;
  MetaBlockingResult a = RunMetaBlocking(prep, MediumPairs(), config);
  config.seed = 2;
  MetaBlockingResult b = RunMetaBlocking(prep, MediumPairs(), config);
  // Different training samples almost surely change the retained count.
  EXPECT_NE(a.model_coefficients, b.model_coefficients);
}

TEST(RunMetaBlocking, WithPrecomputedFeaturesValidatesShape) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  const std::vector<CandidatePair>& pairs = testing::MediumPairs();
  Matrix wrong_rows(3, config.features.Dimensions());
  EXPECT_THROW(RunMetaBlockingWithFeatures(prep, pairs, config, wrong_rows),
               std::invalid_argument);
  Matrix wrong_cols(pairs.size(), 1);
  EXPECT_THROW(RunMetaBlockingWithFeatures(prep, pairs, config, wrong_cols),
               std::invalid_argument);
}

TEST(RunMetaBlocking, RejectsPairsThatAreNotTheCandidateSet) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.train_per_class = 25;
  std::vector<CandidatePair> short_pairs = testing::MediumPairs();
  short_pairs.pop_back();
  EXPECT_THROW(RunMetaBlocking(prep, short_pairs, config),
               std::invalid_argument);
  EXPECT_THROW(RunMetaBlocking(prep, {}, config), std::invalid_argument);
  Matrix features(short_pairs.size(), config.features.Dimensions());
  EXPECT_THROW(
      RunMetaBlockingWithFeatures(prep, short_pairs, config, features),
      std::invalid_argument);
}

TEST(RunMetaBlocking, SvcClassifierWorks) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.classifier = ClassifierKind::kLinearSvc;
  config.train_per_class = 25;
  MetaBlockingResult result = RunMetaBlocking(prep, MediumPairs(), config);
  EXPECT_GT(result.metrics.f1, 0.0);
}

TEST(RunMetaBlocking, AllPruningKindsProduceResults) {
  const PreparedDataset& prep = testing::MediumDataset();
  for (PruningKind kind : AllPruningKinds()) {
    MetaBlockingConfig config;
    config.pruning = kind;
    config.train_per_class = 25;
    MetaBlockingResult result = RunMetaBlocking(prep, MediumPairs(), config);
    EXPECT_GT(result.metrics.retained, 0u) << PruningKindName(kind);
  }
}

}  // namespace
}  // namespace gsmb
