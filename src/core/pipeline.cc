#include "core/pipeline.h"

#include <stdexcept>
#include <utility>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "gsmb/telemetry.h"
#include "ml/sampler.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

// A ground-truth match found during the counting sweep, addressed by its
// (pivot, rank-within-pivot) position so it can be turned into a global
// candidate index once the prefix sums exist.
struct LocalPositive {
  uint64_t pivot;
  uint64_t rank;
};

}  // namespace

BlockCollection PreprocessBlocks(BlockCollection raw,
                                 double purge_size_fraction,
                                 double filter_ratio) {
  return BlockFiltering(filter_ratio)
      .Apply(BlockPurging(purge_size_fraction).Apply(raw));
}

PreparedDataset PrepareFromBlocks(const std::string& name,
                                  BlockCollection blocks,
                                  GroundTruth ground_truth,
                                  size_t num_threads) {
  PreparedDataset prep;
  prep.name = name;
  prep.clean_clean = blocks.clean_clean();
  prep.ground_truth = std::move(ground_truth);
  prep.blocks = std::move(blocks);
  prep.index = std::make_unique<EntityIndex>(prep.blocks, num_threads);
  prep.stats = ComputeBlockStats(prep.blocks);

  // One counting sweep: per-pivot candidate counts plus the positions of
  // the ground-truth matches among them. Chunk-owned outputs concatenate
  // in chunk order, so both results are identical for any thread count.
  const EntityIndex& index = *prep.index;
  const size_t num_pivots = NumCandidatePivots(index);
  std::vector<uint64_t> counts(num_pivots, 0);
  const std::vector<ChunkRange> chunks =
      DeterministicChunks(num_pivots, kPivotChunkGrain);
  std::vector<std::vector<LocalPositive>> positive_parts(chunks.size());
  ParallelFor(chunks.size(), num_threads,
              [&](size_t chunks_begin, size_t chunks_end) {
                PivotNeighbourGenerator generator(index);
                std::vector<EntityId> neighbours;
                for (size_t c = chunks_begin; c < chunks_end; ++c) {
                  for (size_t p = chunks[c].begin; p < chunks[c].end; ++p) {
                    generator.Generate(p, &neighbours);
                    counts[p] = neighbours.size();
                    for (size_t rank = 0; rank < neighbours.size(); ++rank) {
                      if (prep.ground_truth.IsMatch(
                              static_cast<EntityId>(p), neighbours[rank])) {
                        positive_parts[c].push_back({p, rank});
                      }
                    }
                  }
                }
              });

  prep.pivot_offsets.resize(num_pivots + 1, 0);
  for (size_t p = 0; p < num_pivots; ++p) {
    prep.pivot_offsets[p + 1] = prep.pivot_offsets[p] + counts[p];
  }

  // Chunks ascending, pivots ascending within a chunk, ranks ascending
  // within a pivot => global indices ascending.
  for (const std::vector<LocalPositive>& part : positive_parts) {
    for (const LocalPositive& positive : part) {
      prep.positive_indices.push_back(prep.pivot_offsets[positive.pivot] +
                                      positive.rank);
    }
  }

  // Table 2's measures are the retained-set measures of the whole
  // candidate set: |C ∩ D| out of |C| candidates and |D| matches.
  const EffectivenessMetrics quality = MetricsFromCounts(
      prep.positive_indices.size(), prep.num_candidates(),
      prep.ground_truth.size());
  prep.blocking_quality = {quality.retained, quality.true_positives,
                           quality.recall, quality.precision, quality.f1};
  return prep;
}

std::vector<uint8_t> PositiveMask(const PreparedDataset& dataset) {
  std::vector<uint8_t> mask(dataset.num_candidates(), 0);
  for (uint64_t index : dataset.positive_indices) mask[index] = 1;
  return mask;
}

EffectivenessMetrics MetricsFromCounts(size_t true_positives, size_t retained,
                                       size_t num_ground_truth) {
  EffectivenessMetrics m;
  m.true_positives = true_positives;
  m.retained = retained;
  if (num_ground_truth > 0) {
    m.recall = static_cast<double>(m.true_positives) /
               static_cast<double>(num_ground_truth);
  }
  if (m.retained > 0) {
    m.precision = static_cast<double>(m.true_positives) /
                  static_cast<double>(m.retained);
  }
  if (m.recall + m.precision > 0.0) {
    m.f1 = 2.0 * m.recall * m.precision / (m.recall + m.precision);
  }
  return m;
}

EffectivenessMetrics EvaluateRetained(
    const std::vector<uint32_t>& retained_indices,
    const std::vector<uint64_t>& positive_indices, size_t num_ground_truth) {
  size_t true_positives = 0;
  size_t p = 0;
  for (uint32_t idx : retained_indices) {
    while (p < positive_indices.size() && positive_indices[p] < idx) ++p;
    if (p < positive_indices.size() && positive_indices[p] == idx) {
      ++true_positives;
    }
  }
  return MetricsFromCounts(true_positives, retained_indices.size(),
                           num_ground_truth);
}

MetaBlockingResult RunMetaBlocking(const PreparedDataset& dataset,
                                   const std::vector<CandidatePair>& pairs,
                                   const MetaBlockingConfig& config) {
  if (pairs.size() != dataset.num_candidates()) {
    throw std::invalid_argument(
        "RunMetaBlocking: pairs are not the dataset's candidate set");
  }
  obs::PhaseTimings timings;
  Matrix features = [&] {
    obs::ScopedPhase phase(&timings, obs::Phase::kFeatures);
    FeatureExtractor extractor(*dataset.index, pairs);
    return extractor.Compute(config.features, config.execution.num_threads);
  }();
  return RunMetaBlockingWithFeatures(dataset, pairs, config, features,
                                     timings.Get(obs::Phase::kFeatures));
}

MetaBlockingResult RunMetaBlockingWithFeatures(
    const PreparedDataset& dataset, const std::vector<CandidatePair>& pairs,
    const MetaBlockingConfig& config, const Matrix& features,
    double feature_seconds_hint) {
  if (pairs.size() != dataset.num_candidates()) {
    throw std::invalid_argument(
        "RunMetaBlockingWithFeatures: pairs are not the dataset's candidate "
        "set");
  }
  if (features.rows() != pairs.size()) {
    throw std::invalid_argument(
        "RunMetaBlockingWithFeatures: feature rows != candidate pairs");
  }
  if (features.cols() != config.features.Dimensions()) {
    throw std::invalid_argument(
        "RunMetaBlockingWithFeatures: feature cols != feature-set dims");
  }

  MetaBlockingResult result;
  result.phases.Add(obs::Phase::kFeatures, feature_seconds_hint);

  // ---- Training: balanced undersample + fit. ----
  std::unique_ptr<ProbabilisticClassifier> model;
  {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kTrain);
    Rng rng(config.seed);
    TrainingSet training = SampleBalancedFromPlan(
        dataset.positive_indices, dataset.num_candidates(),
        config.train_per_class, &rng);
    if (training.size() < 2) {
      throw std::runtime_error(
          "RunMetaBlocking: not enough labelled pairs to train (dataset '" +
          dataset.name + "')");
    }
    Matrix train_x = features.SelectRows(training.row_indices);
    model = MakeClassifier(config.classifier, config.seed);
    model->Fit(train_x, training.labels);
    result.training_size = training.size();
  }
  result.model_coefficients = model->CoefficientsWithIntercept();

  // ---- Weighting: classification probability per candidate pair. ----
  std::vector<double> probabilities;
  {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kClassify);
    probabilities = model->PredictBatch(features, config.execution.num_threads);
  }

  // ---- Pruning. ----
  std::vector<uint32_t> retained;
  {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    PruningContext context =
        PruningContext::FromIndex(*dataset.index, dataset.stats);
    context.blast_ratio = config.blast_ratio;
    context.validity_threshold = config.validity_threshold;
    context.execution = config.execution;
    retained = MakePruningAlgorithm(config.pruning)
                   ->Prune(pairs, probabilities, context);
  }

  result.feature_seconds = result.phases.Get(obs::Phase::kFeatures);
  result.train_seconds = result.phases.Get(obs::Phase::kTrain);
  result.classify_seconds = result.phases.Get(obs::Phase::kClassify);
  result.prune_seconds = result.phases.Get(obs::Phase::kPrune);
  result.total_seconds = result.feature_seconds + result.train_seconds +
                         result.classify_seconds + result.prune_seconds;
  obs::CounterAdd("pairs.generated", pairs.size());
  obs::CounterAdd("pairs.retained", retained.size());
  result.metrics = EvaluateRetained(retained, dataset.positive_indices,
                                    dataset.ground_truth.size());
  if (config.keep_probabilities) result.probabilities = std::move(probabilities);
  if (config.keep_retained) result.retained_indices = std::move(retained);
  return result;
}

}  // namespace gsmb
