// Experiment orchestration: the paper's repetition protocol.
//
// For one (dataset, configuration) cell, the candidate pairs are
// materialised and features extracted once (the feature cost is timed and
// charged to every repetition, matching the paper's RT definition), then the pipeline is repeated with seeds 0..N-1, each seed
// drawing a fresh balanced training sample. Results are averaged.

#ifndef GSMB_EVAL_EXPERIMENT_H_
#define GSMB_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "eval/metrics.h"

namespace gsmb {

struct ExperimentResult {
  AggregateMetrics aggregate;
  double feature_seconds = 0.0;  ///< one-off feature extraction cost
  /// The per-seed raw results (probabilities/retained only if requested).
  std::vector<MetaBlockingResult> runs;
};

/// Runs `num_seeds` repetitions of `config` (config.seed is overridden with
/// 0..num_seeds-1). The feature matrix is computed once and reused.
ExperimentResult RunRepeatedExperiment(const PreparedDataset& dataset,
                                       MetaBlockingConfig config,
                                       size_t num_seeds);

/// Runs the same configuration over several datasets and returns the
/// per-dataset aggregates (same order as `datasets`).
std::vector<AggregateMetrics> RunAcrossDatasets(
    const std::vector<PreparedDataset>& datasets,
    const MetaBlockingConfig& config, size_t num_seeds);

}  // namespace gsmb

#endif  // GSMB_EVAL_EXPERIMENT_H_
