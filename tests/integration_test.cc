// Integration tests: full pipelines over generated datasets, cross-module
// consistency, and the CSV round-trip into the pipeline.

#include <gtest/gtest.h>

#include "core/unsupervised.h"
#include "datasets/clean_clean_generator.h"
#include "datasets/dirty_generator.h"
#include "datasets/io.h"
#include "datasets/specs.h"
#include "eval/experiment.h"
#include "schemes/scheme_registry.h"
#include "test_support.h"

namespace gsmb {
namespace {

TEST(Integration, CleanCleanSpecsEndToEnd) {
  // A noisy spec and a clean spec, both scaled down hard for test speed.
  for (const char* name : {"AbtBuy", "DblpAcm"}) {
    CleanCleanSpec spec = CleanCleanSpecByName(name, 0.1);
    GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
    JobInputs inputs;
    inputs.e1 = std::move(data.e1);
    inputs.e2 = std::move(data.e2);
    inputs.ground_truth = std::move(data.ground_truth);
    PreparedDataset prep =
        schemes::PrepareInputs(inputs, BlockingSpec{}, 1, spec.name);
    ASSERT_GT(prep.num_candidates(), 0u) << name;

    MetaBlockingConfig config;
    config.features = FeatureSet::BlastOptimal();
    config.pruning = PruningKind::kBlast;
    config.train_per_class = 25;
    ExperimentResult result = RunRepeatedExperiment(prep, config, 2);
    EXPECT_GT(result.aggregate.recall, 0.3) << name;
    EXPECT_GT(result.aggregate.precision, prep.blocking_quality.precision)
        << name;
  }
}

TEST(Integration, DirtyEndToEnd) {
  const PreparedDataset& prep = testing::SmallDirtyDataset();
  MetaBlockingConfig config;
  config.features = FeatureSet::RcnpOptimal();
  config.pruning = PruningKind::kRcnp;
  config.train_per_class = 25;
  MetaBlockingResult result =
      RunMetaBlocking(prep, testing::SmallDirtyPairs(), config);
  EXPECT_GT(result.metrics.recall, 0.3);
  EXPECT_GT(result.metrics.precision, prep.blocking_quality.precision);
}

TEST(Integration, CsvRoundTripFeedsPipeline) {
  CleanCleanSpec spec = CleanCleanSpecByName("DblpAcm", 0.05);
  GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);

  std::string dir = ::testing::TempDir();
  SaveCollectionCsv(data.e1, dir + "/it_e1.csv");
  SaveCollectionCsv(data.e2, dir + "/it_e2.csv");
  SaveGroundTruthCsv(data.ground_truth, data.e1, data.e2, dir + "/it_gt.csv");

  JobInputs disk;
  disk.e1 = LoadCollectionCsv(dir + "/it_e1.csv");
  disk.e2 = LoadCollectionCsv(dir + "/it_e2.csv");
  disk.ground_truth =
      LoadGroundTruthCsv(dir + "/it_gt.csv", disk.e1, disk.e2, false);
  JobInputs memory;
  memory.e1 = std::move(data.e1);
  memory.e2 = std::move(data.e2);
  memory.ground_truth = std::move(data.ground_truth);

  PreparedDataset from_disk =
      schemes::PrepareInputs(disk, BlockingSpec{}, 1, "disk");
  PreparedDataset from_memory =
      schemes::PrepareInputs(memory, BlockingSpec{}, 1, "mem");
  EXPECT_EQ(from_disk.num_candidates(), from_memory.num_candidates());
  EXPECT_DOUBLE_EQ(from_disk.blocking_quality.recall,
                   from_memory.blocking_quality.recall);
}

TEST(Integration, SupervisedBeatsUnsupervisedOnPrecisionAtSimilarRecall) {
  const PreparedDataset& prep = testing::MediumDataset();

  // Unsupervised WNP with the classic JS weights.
  PruningContext ctx = PruningContext::FromIndex(*prep.index, prep.stats);
  auto unsup = UnsupervisedMetaBlocking(*prep.index, testing::MediumPairs(),
                                        EdgeWeightScheme::kJs,
                                        PruningKind::kWnp, ctx);
  EffectivenessMetrics unsup_metrics =
      EvaluateRetained(unsup, prep.positive_indices, prep.ground_truth.size());

  MetaBlockingConfig config;
  config.pruning = PruningKind::kWnp;
  config.train_per_class = 25;
  ExperimentResult sup = RunRepeatedExperiment(prep, config, 3);

  // The paper's core motivation: supervised weighting dominates a single
  // unsupervised scheme.
  EXPECT_GT(sup.aggregate.f1, unsup_metrics.f1);
}

TEST(Integration, TrainingSizeFiftySufficesOnCleanData) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.features = FeatureSet::BlastOptimal();
  config.pruning = PruningKind::kBlast;
  config.train_per_class = 25;  // 50 labelled instances total
  ExperimentResult result = RunRepeatedExperiment(prep, config, 3);
  EXPECT_GT(result.aggregate.recall, 0.8);
  EXPECT_GT(result.aggregate.f1, 0.2);
}

TEST(Integration, QGramBlocksFeedPipelineToo) {
  CleanCleanSpec spec = CleanCleanSpecByName("AbtBuy", 0.06);
  GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
  JobInputs inputs;
  inputs.e1 = std::move(data.e1);
  inputs.e2 = std::move(data.e2);
  inputs.ground_truth = std::move(data.ground_truth);
  BlockingSpec blocking = testing::Scheme("qgram");
  blocking.qgram = 4;
  PreparedDataset prep = schemes::PrepareInputs(inputs, blocking, 1, "qgrams");
  EXPECT_GT(prep.num_candidates(), 0u);
  MetaBlockingConfig config;
  config.train_per_class = 15;
  MetaBlockingResult result =
      RunMetaBlocking(prep, GenerateCandidatePairs(*prep.index), config);
  EXPECT_GT(result.metrics.retained, 0u);
}

}  // namespace
}  // namespace gsmb
