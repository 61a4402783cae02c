// Parameter-monotonicity properties: sweeping a preprocessing or algorithm
// knob must move aggregate quantities in the predictable direction.

#include <gtest/gtest.h>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "core/pipeline.h"
#include "datasets/clean_clean_generator.h"
#include "datasets/specs.h"
#include "test_support.h"

namespace gsmb {
namespace {

class FilterRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(FilterRatioSweep, SmallerRatioNeverAddsComparisons) {
  CleanCleanSpec spec = CleanCleanSpecByName("ImdbTmdb", 0.05);
  GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
  BlockCollection raw =
      BlockPurging().Apply(testing::SchemeBlocks(data.e1, data.e2));

  const double ratio = GetParam();
  BlockCollection filtered = BlockFiltering(ratio).Apply(raw);
  BlockCollection smaller = BlockFiltering(ratio * 0.5).Apply(raw);
  EXPECT_LE(smaller.TotalComparisons(), filtered.TotalComparisons());
  EXPECT_LE(filtered.TotalComparisons(), raw.TotalComparisons());
}

INSTANTIATE_TEST_SUITE_P(Ratios, FilterRatioSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 1.0));

class PurgeFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(PurgeFractionSweep, SmallerFractionPurgesMore) {
  BlockCollection bc = testing::PaperExampleBlocks();
  const double fraction = GetParam();
  BlockCollection loose = BlockPurging(fraction).Apply(bc);
  BlockCollection strict = BlockPurging(fraction * 0.5).Apply(bc);
  EXPECT_LE(strict.size(), loose.size());
  EXPECT_LE(loose.size(), bc.size());
}

INSTANTIATE_TEST_SUITE_P(Fractions, PurgeFractionSweep,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

class BlastRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(BlastRatioSweep, HigherRatioRetainsFewer) {
  testing::PruningFixture f = testing::RandomPruningGraph(50, 0.3, 17);
  auto algorithm = MakePruningAlgorithm(PruningKind::kBlast);
  PruningContext low = f.context;
  low.blast_ratio = GetParam();
  PruningContext high = f.context;
  high.blast_ratio = GetParam() + 0.15;
  EXPECT_GE(algorithm->Prune(f.pairs, f.probs, low).size(),
            algorithm->Prune(f.pairs, f.probs, high).size());
}

INSTANTIATE_TEST_SUITE_P(Ratios, BlastRatioSweep,
                         ::testing::Values(0.05, 0.2, 0.35, 0.5, 0.65));

class CnpBudgetSweep : public ::testing::TestWithParam<double> {};

TEST_P(CnpBudgetSweep, LargerBudgetRetainsMore) {
  testing::PruningFixture f = testing::RandomPruningGraph(50, 0.3, 23);
  auto cnp = MakePruningAlgorithm(PruningKind::kCnp);
  PruningContext small = f.context;
  small.cnp_k = GetParam();
  PruningContext large = f.context;
  large.cnp_k = GetParam() * 2;
  EXPECT_LE(cnp->Prune(f.pairs, f.probs, small).size(),
            cnp->Prune(f.pairs, f.probs, large).size());
}

INSTANTIATE_TEST_SUITE_P(Budgets, CnpBudgetSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0));

class CepBudgetSweep : public ::testing::TestWithParam<double> {};

TEST_P(CepBudgetSweep, RetainedCountTracksBudgetExactly) {
  testing::PruningFixture f = testing::RandomPruningGraph(40, 0.4, 29);
  size_t valid = 0;
  for (double p : f.probs) valid += (p >= 0.5) ? 1 : 0;
  auto cep = MakePruningAlgorithm(PruningKind::kCep);
  PruningContext ctx = f.context;
  ctx.cep_k = GetParam();
  auto retained = cep->Prune(f.pairs, f.probs, ctx);
  EXPECT_EQ(retained.size(),
            std::min(valid, static_cast<size_t>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Budgets, CepBudgetSweep,
                         ::testing::Values(1.0, 5.0, 20.0, 1000.0));

TEST(TrainingSizeMonotonicity, MoreLabelsNeverShrinkTrainingSet) {
  const PreparedDataset& prep = testing::MediumDataset();
  size_t last = 0;
  for (size_t per_class : {5, 10, 25, 50}) {
    MetaBlockingConfig config;
    config.train_per_class = per_class;
    MetaBlockingResult r =
        RunMetaBlocking(prep, testing::MediumPairs(), config);
    EXPECT_GE(r.training_size, last);
    last = r.training_size;
  }
}

}  // namespace
}  // namespace gsmb
