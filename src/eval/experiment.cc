#include "eval/experiment.h"

#include "util/stopwatch.h"

namespace gsmb {

ExperimentResult RunRepeatedExperiment(const PreparedDataset& dataset,
                                       MetaBlockingConfig config,
                                       size_t num_seeds) {
  ExperimentResult out;

  const std::vector<CandidatePair> pairs =
      GenerateCandidatePairs(*dataset.index, config.execution.num_threads);
  Stopwatch watch;
  FeatureExtractor extractor(*dataset.index, pairs);
  Matrix features = extractor.Compute(config.features);
  out.feature_seconds = watch.ElapsedSeconds();

  MetricsAccumulator acc;
  out.runs.reserve(num_seeds);
  for (size_t seed = 0; seed < num_seeds; ++seed) {
    config.seed = seed;
    MetaBlockingResult result = RunMetaBlockingWithFeatures(
        dataset, pairs, config, features, out.feature_seconds);
    acc.Add(result);
    out.runs.push_back(std::move(result));
  }
  out.aggregate = acc.Summary();
  return out;
}

std::vector<AggregateMetrics> RunAcrossDatasets(
    const std::vector<PreparedDataset>& datasets,
    const MetaBlockingConfig& config, size_t num_seeds) {
  std::vector<AggregateMetrics> out;
  out.reserve(datasets.size());
  for (const PreparedDataset& dataset : datasets) {
    out.push_back(
        RunRepeatedExperiment(dataset, config, num_seeds).aggregate);
  }
  return out;
}

}  // namespace gsmb
