#include "core/progressive.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace gsmb {
namespace {

TEST(ProgressiveSchedule, SortsByDescendingProbability) {
  std::vector<double> probs = {0.2, 0.9, 0.5, 0.7};
  auto order = ProgressiveSchedule(probs);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 3, 2, 0}));
}

TEST(ProgressiveSchedule, TiesBreakByIndex) {
  std::vector<double> probs = {0.5, 0.9, 0.5, 0.5};
  auto order = ProgressiveSchedule(probs);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 0, 2, 3}));
}

TEST(ProgressiveSchedule, MinProbabilityFilters) {
  std::vector<double> probs = {0.2, 0.9, 0.5};
  auto order = ProgressiveSchedule(probs, 0.5);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 2}));
}

TEST(ProgressiveSchedule, Empty) {
  EXPECT_TRUE(ProgressiveSchedule({}).empty());
}

TEST(ProgressiveCurve, MonotoneAndEndsAtScheduleRecall) {
  std::vector<double> probs = {0.9, 0.1, 0.8, 0.2, 0.7};
  std::vector<uint8_t> positive = {1, 0, 1, 1, 0};
  auto schedule = ProgressiveSchedule(probs);
  auto curve = ProgressiveRecallCurve(schedule, positive, 3, 5);
  ASSERT_FALSE(curve.empty());
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].recall, curve[i - 1].recall);
    EXPECT_GT(curve[i].emitted, curve[i - 1].emitted);
  }
  EXPECT_EQ(curve.back().emitted, schedule.size());
  EXPECT_DOUBLE_EQ(curve.back().recall, 1.0);
}

TEST(ProgressiveCurve, CountsBlockingMissesAgainstRecall) {
  std::vector<double> probs = {0.9};
  std::vector<uint8_t> positive = {1};
  auto schedule = ProgressiveSchedule(probs);
  // 4 duplicates exist; only 1 is a candidate.
  auto curve = ProgressiveRecallCurve(schedule, positive, 4, 1);
  EXPECT_DOUBLE_EQ(curve.back().recall, 0.25);
}

TEST(ProgressiveAuc, PerfectScheduleScoresHighest) {
  std::vector<uint8_t> positive = {1, 1, 0, 0};
  std::vector<uint32_t> perfect = {0, 1, 2, 3};   // duplicates first
  std::vector<uint32_t> worst = {2, 3, 0, 1};     // duplicates last
  double auc_perfect = ProgressiveAuc(perfect, positive, 2);
  double auc_worst = ProgressiveAuc(worst, positive, 2);
  EXPECT_GT(auc_perfect, auc_worst);
  // Perfect: recall after each emission = .5, 1, 1, 1 -> mean .875.
  EXPECT_DOUBLE_EQ(auc_perfect, 0.875);
  // Worst: 0, 0, .5, 1 -> mean .375.
  EXPECT_DOUBLE_EQ(auc_worst, 0.375);
}

TEST(ProgressiveAuc, EmptyInputs) {
  EXPECT_DOUBLE_EQ(ProgressiveAuc({}, {}, 3), 0.0);
}

TEST(ProgressiveEndToEnd, ClassifierScheduleBeatsRandomOrder) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.features = FeatureSet::BlastOptimal();
  config.train_per_class = 25;
  config.keep_probabilities = true;
  MetaBlockingResult result =
      RunMetaBlocking(prep, testing::MediumPairs(), config);

  const std::vector<uint8_t> is_positive = PositiveMask(prep);
  auto schedule = ProgressiveSchedule(result.probabilities);
  double auc = ProgressiveAuc(schedule, is_positive,
                              prep.ground_truth.size());

  // Identity order approximates a random schedule.
  std::vector<uint32_t> identity(prep.num_candidates());
  for (uint32_t i = 0; i < identity.size(); ++i) identity[i] = i;
  double auc_identity = ProgressiveAuc(identity, is_positive,
                                       prep.ground_truth.size());
  EXPECT_GT(auc, auc_identity + 0.2);
  EXPECT_GT(auc, 0.7);
}

}  // namespace
}  // namespace gsmb
