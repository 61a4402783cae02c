// The resident classifier of a serving session.
//
// A long-lived MetaBlockingSession cannot hold an opaque
// ProbabilisticClassifier: it must be serialisable into a snapshot and its
// scoring must be exactly reproducible after a restore. Both of the paper's
// probabilistic models (logistic regression, Platt-scaled linear SVC) are
// linear in raw feature space, so the serving layer pins the model down to
// that common denominator: a raw-space weight vector plus intercept, mapped
// through the logistic function. For logistic regression this is the same
// function the batch pipeline evaluates (up to floating-point association);
// either way the session applies ONE fixed scorer everywhere, which is what
// makes incremental refreshes bit-identical to a cold rebuild.

#ifndef GSMB_SERVE_SERVING_MODEL_H_
#define GSMB_SERVE_SERVING_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/feature_set.h"
#include "core/pipeline.h"
#include "gsmb/execution.h"
#include "ml/classifier.h"
#include "util/matrix.h"

namespace gsmb {

/// A linear probabilistic scorer over a fixed feature set. `weights` lives
/// in *raw* (unscaled) feature space with `features.Dimensions()` entries,
/// laid out in the column order FeatureExtractor::Compute(features) emits.
struct ServingModel {
  FeatureSet features = FeatureSet::BlastOptimal();
  std::vector<double> weights;
  double intercept = 0.0;

  bool Valid() const {
    return !features.empty() && weights.size() == features.Dimensions();
  }

  /// P(match) = sigmoid(weights . row + intercept) for one raw feature row
  /// of width features.Dimensions().
  double Predict(const double* row) const;

  /// P(match) per row of `x` (x.cols() must equal features.Dimensions()).
  std::vector<double> PredictRows(const Matrix& x) const;
};

/// Knobs for bootstrapping a ServingModel from labelled data.
struct ServingModelTraining {
  ClassifierKind classifier = ClassifierKind::kLogisticRegression;
  size_t train_per_class = 250;
  uint64_t seed = 0;
  /// Shared execution knobs (feature extraction and fitting).
  ExecutionOptions execution;
};

/// Trains a classifier on a labelled preparation and returns its raw-space
/// linear form. Bootstrap a session from a labelled Dirty-ER collection by
/// preparing it with schemes::PrepareInputs (token blocking -> purging ->
/// filtering, as the session blocks) and passing the result here.
/// TrainFromSample (stream/streaming_executor.h) draws the batch
/// pipeline's balanced sample and extracts features for the sampled pairs
/// only, so the bootstrap never materialises, scores or prunes the other
/// candidates; the model equals the one RunMetaBlocking fits on the same
/// preparation. Throws when the chosen classifier has no linear
/// representation (Gaussian Naive Bayes) or when the data yields too few
/// labelled candidate pairs to train. `training_size` (optional) receives
/// the balanced sample's actual size.
ServingModel TrainServingModelFromPrepared(
    const PreparedDataset& prepared, const FeatureSet& features,
    const ServingModelTraining& options = {},
    size_t* training_size = nullptr);

}  // namespace gsmb

#endif  // GSMB_SERVE_SERVING_MODEL_H_
