// "Paper shape" tests: qualitative relationships the paper establishes
// between the algorithms, asserted (with generous margins) on averaged runs
// over a synthetic dataset. These guard the reproduction's headline claims.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/features.h"
#include "eval/experiment.h"
#include "gsmb/telemetry.h"
#include "test_support.h"

namespace gsmb {
namespace {

AggregateMetrics RunAlgo(const PreparedDataset& prep, PruningKind kind,
                         FeatureSet features, size_t per_class = 25) {
  MetaBlockingConfig config;
  config.pruning = kind;
  config.features = features;
  config.train_per_class = per_class;
  return RunRepeatedExperiment(prep, config, 3).aggregate;
}

class PaperShapeTest : public ::testing::Test {
 protected:
  const PreparedDataset& prep_ = testing::MediumDataset();
};

TEST_F(PaperShapeTest, DeeperPruningTradesRecallForPrecision) {
  FeatureSet f = FeatureSet::Paper2014();
  AggregateMetrics bcl = RunAlgo(prep_, PruningKind::kBCl, f);
  AggregateMetrics wnp = RunAlgo(prep_, PruningKind::kWnp, f);
  AggregateMetrics rwnp = RunAlgo(prep_, PruningKind::kRwnp, f);
  // WNP / RWNP retain subsets of BCl: recall can only drop...
  EXPECT_LE(wnp.recall, bcl.recall + 1e-9);
  EXPECT_LE(rwnp.recall, wnp.recall + 1e-9);
  // ...while precision improves (Figure 5 shape).
  EXPECT_GE(wnp.precision, bcl.precision - 1e-9);
  EXPECT_GE(rwnp.precision, wnp.precision - 1e-9);
}

TEST_F(PaperShapeTest, RcnpIsMorePreciseThanCnp) {
  FeatureSet f = FeatureSet::Paper2014();
  AggregateMetrics cnp = RunAlgo(prep_, PruningKind::kCnp, f);
  AggregateMetrics rcnp = RunAlgo(prep_, PruningKind::kRcnp, f);
  EXPECT_LE(rcnp.recall, cnp.recall + 1e-9);
  EXPECT_GE(rcnp.precision, cnp.precision - 1e-9);  // Figure 6 shape
}

TEST_F(PaperShapeTest, BlastKeepsHighRecall) {
  AggregateMetrics blast =
      RunAlgo(prep_, PruningKind::kBlast, FeatureSet::BlastOptimal());
  // BLAST is the recall-friendly weight-based algorithm (Figure 5/8).
  EXPECT_GT(blast.recall, 0.8);
  EXPECT_GT(blast.precision, prep_.blocking_quality.precision * 5);
}

TEST_F(PaperShapeTest, WepPrunesDeeperThanBlast) {
  FeatureSet f = FeatureSet::BlastOptimal();
  AggregateMetrics wep = RunAlgo(prep_, PruningKind::kWep, f);
  AggregateMetrics blast = RunAlgo(prep_, PruningKind::kBlast, f);
  // WEP's global-average threshold discards more pairs than BLAST's
  // max-based local threshold at r = 0.35.
  EXPECT_LE(wep.retained, blast.retained * 1.05);
  EXPECT_LE(wep.recall, blast.recall + 0.02);
}

TEST_F(PaperShapeTest, BestAlgorithmsAreStrongOnCleanData) {
  // On the low-noise DblpAcm regime the paper's Tables 5a/7a put both
  // selected algorithms near-tied at high effectiveness (BLAST
  // 0.951/0.651, RCNP 0.976/0.646) — RCNP's recall may even exceed
  // BLAST's. Assert that regime rather than a strict ordering.
  AggregateMetrics blast =
      RunAlgo(prep_, PruningKind::kBlast, FeatureSet::BlastOptimal());
  AggregateMetrics rcnp = RunAlgo(prep_, PruningKind::kRcnp,
                                  FeatureSet::RcnpOptimal());
  EXPECT_GT(blast.recall, 0.9);
  EXPECT_GT(rcnp.recall, 0.9);
  EXPECT_GT(blast.f1, 0.5);
  EXPECT_GT(rcnp.f1, 0.5);
  EXPECT_GE(rcnp.precision, blast.precision * 0.7);
}

TEST_F(PaperShapeTest, LargerTrainingSetsDoNotHelpPrecision) {
  // Figure 11/14: growing the training set raises recall slightly but
  // costs precision. Allow slack — the trend, not the exact numbers.
  FeatureSet f = FeatureSet::BlastOptimal();
  AggregateMetrics small = RunAlgo(prep_, PruningKind::kBlast, f, 25);
  AggregateMetrics large = RunAlgo(prep_, PruningKind::kBlast, f, 250);
  EXPECT_GE(large.recall, small.recall - 0.05);
  EXPECT_LE(large.precision, small.precision * 1.35 + 0.05);
}

TEST_F(PaperShapeTest, LcpFeatureDominatesFeatureExtractionCost) {
  // Figure 7/9/10 rationale: LCP is the expensive feature — an extra
  // distinct-candidate sweep over every entity's blocks, on top of the
  // per-pair accumulation every set pays. Asserted on counted work, not
  // wall time: the LCP-bearing 2014 set performs that sweep exactly once
  // (Σ|b| block entries over all entities), the LCP-free BLAST set never.
  FeatureExtractor extractor(*prep_.index, testing::MediumPairs());
  auto lcp_entries = [&](const FeatureSet& set) {
    obs::TelemetrySink sink;
    obs::InstallSink(&sink);
    const Matrix m = extractor.Compute(set);
    obs::InstallSink(nullptr);
    EXPECT_EQ(m.rows(), prep_.num_candidates());
    const obs::MetricsSnapshot metrics = sink.SnapshotMetrics();
    auto it = metrics.counters.find("features.lcp.entries");
    return it == metrics.counters.end() ? uint64_t{0} : it->second;
  };
  const uint64_t sweep = testing::LcpSweepEntries(*prep_.index);
  EXPECT_GT(sweep, prep_.num_candidates());
  EXPECT_EQ(lcp_entries(FeatureSet::Paper2014()), sweep);
  EXPECT_EQ(lcp_entries(FeatureSet::BlastOptimal()), 0u);
}

}  // namespace
}  // namespace gsmb
