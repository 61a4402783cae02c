#include "ml/naive_bayes.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "test_support.h"
#include "util/random.h"

namespace gsmb {
namespace {

void MakeSeparable(size_t n, Matrix* x, std::vector<int>* y) {
  *x = Matrix(n, 2);
  y->resize(n);
  Rng rng(31);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    x->At(i, 0) = (positive ? 2.0 : -2.0) + 0.4 * rng.NextGaussian();
    x->At(i, 1) = rng.NextGaussian();
    (*y)[i] = positive ? 1 : 0;
  }
}

TEST(NaiveBayes, SeparatesGaussianClasses) {
  Matrix x;
  std::vector<int> y;
  MakeSeparable(80, &x, &y);
  GaussianNaiveBayes model;
  model.Fit(x, y);
  size_t correct = 0;
  for (size_t i = 0; i < x.rows(); ++i) {
    if ((model.PredictProbability(x.Row(i)) >= 0.5 ? 1 : 0) == y[i]) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 78u);
}

TEST(NaiveBayes, ProbabilitiesInUnitInterval) {
  Matrix x;
  std::vector<int> y;
  MakeSeparable(40, &x, &y);
  GaussianNaiveBayes model;
  model.Fit(x, y);
  for (double v : {-100.0, -1.0, 0.0, 1.0, 100.0}) {
    double row[2] = {v, 0.0};
    double p = model.PredictProbability(row);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(NaiveBayes, MonotoneAlongInformativeFeature) {
  Matrix x;
  std::vector<int> y;
  MakeSeparable(200, &x, &y);
  GaussianNaiveBayes model;
  model.Fit(x, y);
  double lo[2] = {-2.0, 0.0};
  double mid[2] = {0.0, 0.0};
  double hi[2] = {2.0, 0.0};
  EXPECT_LT(model.PredictProbability(lo), model.PredictProbability(mid));
  EXPECT_LT(model.PredictProbability(mid), model.PredictProbability(hi));
}

TEST(NaiveBayes, SingleClassPredictsThatClass) {
  Matrix x(4, 1);
  for (size_t i = 0; i < 4; ++i) x.At(i, 0) = static_cast<double>(i);
  GaussianNaiveBayes model;
  model.Fit(x, {1, 1, 1, 1});
  double row[1] = {2.0};
  EXPECT_DOUBLE_EQ(model.PredictProbability(row), 1.0);
  GaussianNaiveBayes negative;
  negative.Fit(x, {0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(negative.PredictProbability(row), 0.0);
}

TEST(NaiveBayes, ImbalancedPriorsShiftProbability) {
  // Same likelihoods, different priors: the majority class should win at
  // the midpoint.
  Matrix x(10, 1);
  std::vector<int> y(10);
  for (size_t i = 0; i < 10; ++i) {
    const bool positive = i < 8;
    x.At(i, 0) = positive ? 1.0 + 0.01 * static_cast<double>(i)
                          : -1.0 - 0.01 * static_cast<double>(i);
    y[i] = positive ? 1 : 0;
  }
  GaussianNaiveBayes model;
  model.Fit(x, y);
  double mid[1] = {0.0};
  EXPECT_GT(model.PredictProbability(mid), 0.5);
}

TEST(NaiveBayes, ThrowsOnBadInput) {
  GaussianNaiveBayes model;
  Matrix empty;
  EXPECT_THROW(model.Fit(empty, {}), std::invalid_argument);
}

TEST(NaiveBayes, NoLinearCoefficients) {
  Matrix x;
  std::vector<int> y;
  MakeSeparable(20, &x, &y);
  GaussianNaiveBayes model;
  model.Fit(x, y);
  EXPECT_TRUE(model.CoefficientsWithIntercept().empty());
}

TEST(NaiveBayes, WorksInsidePipeline) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.classifier = ClassifierKind::kGaussianNaiveBayes;
  config.pruning = PruningKind::kBlast;
  config.features = FeatureSet::BlastOptimal();
  config.train_per_class = 25;
  MetaBlockingResult result =
      RunMetaBlocking(prep, testing::MediumPairs(), config);
  EXPECT_GT(result.metrics.recall, 0.5);
  EXPECT_GT(result.metrics.precision, prep.blocking_quality.precision);
}

TEST(NaiveBayes, FactoryIntegration) {
  auto model = MakeClassifier(ClassifierKind::kGaussianNaiveBayes);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->Name(), "GaussianNaiveBayes");
  EXPECT_STREQ(ClassifierKindName(ClassifierKind::kGaussianNaiveBayes),
               "GaussianNaiveBayes");
}

}  // namespace
}  // namespace gsmb
