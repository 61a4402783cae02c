#include "stream/streaming_executor.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/features.h"
#include "core/pruning_aggregates.h"
#include "gsmb/telemetry.h"
#include "ml/sampler.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

constexpr size_t kNoPivot = std::numeric_limits<size_t>::max();

/// Pivot owning global candidate index `index`.
size_t PivotOf(const std::vector<uint64_t>& pivot_offsets, uint64_t index) {
  auto it = std::upper_bound(pivot_offsets.begin(), pivot_offsets.end(),
                             index);
  return static_cast<size_t>(it - pivot_offsets.begin()) - 1;
}

/// Regenerates single candidates by global index, one pivot's neighbours
/// at a time — cheap when the indices arrive grouped by pivot (ascending).
class PairRegenerator {
 public:
  explicit PairRegenerator(const PreparedDataset& dataset)
      : offsets_(dataset.pivot_offsets), generator_(*dataset.index) {}

  CandidatePair At(uint64_t index) {
    const size_t pivot = PivotOf(offsets_, index);
    if (pivot != pivot_) {
      generator_.Generate(pivot, &neighbours_);
      pivot_ = pivot;
    }
    return {static_cast<EntityId>(pivot), neighbours_[index - offsets_[pivot]]};
  }

 private:
  const std::vector<uint64_t>& offsets_;
  PivotNeighbourGenerator generator_;
  std::vector<EntityId> neighbours_;
  size_t pivot_ = kNoPivot;
};

}  // namespace

TrainedClassifier TrainFromSample(const PreparedDataset& dataset,
                                  const MetaBlockingConfig& config,
                                  const std::vector<double>* lcp) {
  Rng rng(config.seed);
  const TrainingSet training = SampleBalancedFromPlan(
      dataset.positive_indices, dataset.num_candidates(),
      config.train_per_class, &rng);
  if (training.size() < 2) {
    throw std::runtime_error(
        "TrainFromSample: not enough labelled pairs to train (dataset '" +
        dataset.name + "')");
  }

  // Feature rows for the sampled pairs only: regenerate them in ascending
  // index order (FeatureExtractor's grouped-by-pivot invariant), then place
  // each row at its position in the sampler's positives-then-negatives
  // layout, which is the row order RunMetaBlocking trains on.
  std::vector<size_t> order(training.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return training.row_indices[a] < training.row_indices[b];
  });
  std::vector<CandidatePair> sorted_pairs(order.size());
  PairRegenerator regenerator(dataset);
  for (size_t k = 0; k < order.size(); ++k) {
    sorted_pairs[k] = regenerator.At(training.row_indices[order[k]]);
  }
  const Matrix sorted_features =
      FeatureExtractor(*dataset.index, sorted_pairs)
          .Compute(config.features, config.execution.num_threads, lcp);
  Matrix train_x(training.size(), sorted_features.cols());
  for (size_t k = 0; k < order.size(); ++k) {
    const double* src = sorted_features.Row(k);
    std::copy(src, src + sorted_features.cols(), train_x.Row(order[k]));
  }

  TrainedClassifier trained;
  trained.model = MakeClassifier(config.classifier, config.seed);
  trained.model->Fit(train_x, training.labels);
  trained.training_size = training.size();
  return trained;
}

struct StreamingExecutor::ShardArena {
  /// The shard's pairs: the lent set, or `own_pairs` when regenerated.
  const std::vector<CandidatePair>* pairs = nullptr;
  std::vector<CandidatePair> own_pairs;
  std::vector<double> probabilities;
};

StreamingExecutor::StreamingExecutor(const PreparedDataset& dataset,
                                     StreamingOptions options,
                                     const std::vector<CandidatePair>* pairs)
    : dataset_(dataset), options_(options), pairs_(pairs) {
  if (options_.num_shards == 0 && options_.memory_budget_mb == 0) {
    throw std::invalid_argument(
        "StreamingExecutor: options need num_shards > 0 or a positive "
        "memory budget");
  }
  if (pairs_ != nullptr &&
      (pairs_->size() != dataset_.num_candidates() ||
       options_.num_shards != 1 || options_.memory_budget_mb != 0)) {
    throw std::invalid_argument(
        "StreamingExecutor: lent pairs must be the dataset's candidate set, "
        "run as one shard");
  }
}

std::vector<StreamingExecutor::ShardSlice> StreamingExecutor::PlanShards(
    size_t num_chunks, size_t feature_dims) const {
  const uint64_t n = dataset_.num_candidates();
  size_t shards = options_.num_shards;
  if (options_.memory_budget_mb > 0) {
    const uint64_t budget_bytes = static_cast<uint64_t>(
                                      options_.memory_budget_mb)
                                  << 20;
    const uint64_t bytes_per_pair = StreamingArenaBytesPerPair(feature_dims);
    const uint64_t pairs_per_shard =
        std::max<uint64_t>(1, budget_bytes / bytes_per_pair);
    const uint64_t derived =
        n == 0 ? 1 : (n + pairs_per_shard - 1) / pairs_per_shard;
    shards = std::max(shards, static_cast<size_t>(derived));
  }
  shards = std::clamp<size_t>(shards, 1, std::max<size_t>(1, num_chunks));

  std::vector<ShardSlice> slices;
  if (num_chunks == 0) return slices;
  const size_t base = num_chunks / shards;
  const size_t extra = num_chunks % shards;
  size_t chunk = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t take = base + (s < extra ? 1 : 0);
    if (take == 0) continue;
    ShardSlice slice;
    slice.chunk_begin = chunk;
    slice.chunk_end = chunk + take;
    slice.first_index = chunk * kDefaultChunkGrain;
    slice.end_index = std::min<size_t>(static_cast<size_t>(n),
                                       slice.chunk_end * kDefaultChunkGrain);
    slices.push_back(slice);
    chunk += take;
  }
  return slices;
}

Matrix StreamingExecutor::ExtractShard(const ShardSlice& shard,
                                       const MetaBlockingConfig& config,
                                       const std::vector<double>* lcp,
                                       ShardArena* arena,
                                       StreamingResult* timings) const {
  const EntityIndex& index = *dataset_.index;
  const std::vector<uint64_t>& offsets = dataset_.pivot_offsets;

  // ---- The shard's slice of the global candidate order: the lent set
  // (one shard spanning it), or regenerated pivot by pivot. ----
  if (pairs_ != nullptr) {
    arena->pairs = pairs_;
  } else {
    obs::ScopedPhase phase(&timings->phases, obs::Phase::kPairs);
    arena->pairs = &arena->own_pairs;
    arena->own_pairs.resize(shard.end_index - shard.first_index);
    const size_t pivot_begin = PivotOf(offsets, shard.first_index);
    const size_t pivot_end = PivotOf(offsets, shard.end_index - 1) + 1;
    const std::vector<ChunkRange> pivot_chunks =
        DeterministicChunks(pivot_end - pivot_begin, kPivotChunkGrain);
    ParallelFor(
        pivot_chunks.size(), config.execution.num_threads,
        [&](size_t chunks_begin, size_t chunks_end) {
          PivotNeighbourGenerator generator(index);
          std::vector<EntityId> neighbours;
          for (size_t c = chunks_begin; c < chunks_end; ++c) {
            for (size_t p = pivot_chunks[c].begin; p < pivot_chunks[c].end;
                 ++p) {
              const size_t pivot = pivot_begin + p;
              const uint64_t begin =
                  std::max<uint64_t>(offsets[pivot], shard.first_index);
              const uint64_t end =
                  std::min<uint64_t>(offsets[pivot + 1], shard.end_index);
              if (begin >= end) continue;  // empty pivot, or boundary overlap
              generator.Generate(pivot, &neighbours);
              for (uint64_t i = begin; i < end; ++i) {
                arena->own_pairs[i - shard.first_index] = {
                    static_cast<EntityId>(pivot),
                    neighbours[i - offsets[pivot]]};
              }
            }
          }
        });
  }

  // ---- Features, against the GLOBAL index: rows are bit-identical to the
  // corresponding rows of the full candidate matrix. ----
  obs::ScopedPhase phase(&timings->phases, obs::Phase::kFeatures);
  return FeatureExtractor(index, *arena->pairs)
      .Compute(config.features, config.execution.num_threads, lcp);
}

StreamingResult StreamingExecutor::Run(const MetaBlockingConfig& config,
                                       const RetainedSink& sink) const {
  const EntityIndex& index = *dataset_.index;
  const uint64_t n64 = dataset_.num_candidates();
  if (n64 > std::numeric_limits<uint32_t>::max()) {
    throw std::runtime_error(
        "StreamingExecutor: candidate count exceeds the 32-bit pair index "
        "space");
  }
  const auto n = static_cast<size_t>(n64);
  const size_t threads = config.execution.num_threads;
  const std::vector<ChunkRange> chunks = DeterministicChunks(n);

  StreamingResult result;
  const std::vector<ShardSlice> shards =
      PlanShards(chunks.size(), config.features.Dimensions());
  result.num_shards_used = shards.size();
  for (const ShardSlice& shard : shards) {
    result.max_shard_candidates = std::max(
        result.max_shard_candidates, shard.end_index - shard.first_index);
  }
  obs::GaugeMax("arena.bytes.peak",
                static_cast<double>(result.max_shard_candidates *
                                    StreamingArenaBytesPerPair(
                                        config.features.Dimensions())));

  // ---- LCP once, reused by the training rows and every shard. ----
  static const std::vector<CandidatePair> kNoPairs;
  std::vector<double> lcp;
  const std::vector<double>* lcp_ptr = nullptr;
  if (config.features.Contains(Feature::kLcp)) {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kFeatures);
    lcp = FeatureExtractor(index, kNoPairs).ComputeLcpPerEntity(threads);
    lcp_ptr = &lcp;
  }

  std::unique_ptr<ProbabilisticClassifier> model;
  {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kTrain);
    TrainedClassifier trained = TrainFromSample(dataset_, config, lcp_ptr);
    result.training_size = trained.training_size;
    result.model_coefficients = trained.model->CoefficientsWithIntercept();
    model = std::move(trained.model);
  }

  // Scoring a shard fills the arena with its pairs and probabilities. A
  // single shard is scored once here and stays resident for every sweep;
  // several shards are re-scored per sweep.
  ShardArena arena;
  auto score = [&](const ShardSlice& shard) {
    const Matrix features =
        ExtractShard(shard, config, lcp_ptr, &arena, &result);
    obs::ScopedPhase phase(&result.phases, obs::Phase::kClassify);
    arena.probabilities = model->PredictBatch(features, threads);
  };
  const bool single_shard = shards.size() == 1;
  if (single_shard) score(shards[0]);
  auto score_if_sharded = [&](const ShardSlice& shard) {
    if (!single_shard) score(shard);
  };

  // ---- Pruning context, identical to RunMetaBlocking's. ----
  PruningContext context = PruningContext::FromIndex(index, dataset_.stats);
  context.blast_ratio = config.blast_ratio;
  context.validity_threshold = config.validity_threshold;
  context.execution = config.execution;

  std::unique_ptr<PruningAggregator> aggregator =
      MakePruningAggregator(config.pruning, chunks.size(), context);
  auto resident = [&](const ShardSlice& shard) {
    return ResidentChunks{&chunks, shard.chunk_begin, shard.chunk_end,
                          arena.pairs->data(), arena.probabilities.data()};
  };

  // ---- Sweep 1: accumulate per-chunk aggregates, folding after each
  // shard — the identical fold sequence PruneWithAggregator performs. ----
  if (aggregator->needs_accumulation()) {
    ++result.sweeps;
    for (const ShardSlice& shard : shards) {
      score_if_sharded(shard);
      obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
      // Per-shard accumulate+fold latency feeds the fold-time histogram the
      // streaming bench reports percentiles from.
      GSMB_SPAN("shard.fold", "stream.shard.fold_us");
      AccumulateChunks(resident(shard), threads, aggregator.get());
    }
    {
      obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
      aggregator->Finalize();
    }
  }

  // ---- Emit the retained set, ascending by global index, counting true
  // positives by merging it with the ascending positive_indices. ----
  const std::vector<uint64_t>& positives = dataset_.positive_indices;
  size_t next_positive = 0;
  size_t retained_count = 0;
  size_t true_positives = 0;
  auto emit = [&](uint32_t idx, const CandidatePair& pair,
                  double probability) {
    ++retained_count;
    while (next_positive < positives.size() &&
           positives[next_positive] < idx) {
      ++next_positive;
    }
    if (next_positive < positives.size() && positives[next_positive] == idx) {
      ++true_positives;
    }
    if (config.keep_retained) result.retained_indices.push_back(idx);
    if (sink) sink(idx, pair, probability);
  };

  if (aggregator->emits_from_aggregates()) {
    // Cardinality kinds: the folded top-k structures already hold the
    // retained indices and weights; only their pairs are looked up.
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    const std::vector<RetainedCandidate> retained =
        aggregator->TakeRetained();
    PairRegenerator regenerator(dataset_);
    for (const RetainedCandidate& candidate : retained) {
      emit(candidate.index,
           pairs_ != nullptr ? (*pairs_)[candidate.index]
                             : regenerator.At(candidate.index),
           candidate.probability);
    }
  } else {
    // Weight-based kinds: the keep sweep applies the finalized thresholds,
    // re-scoring each shard unless the single one is resident. Per-chunk
    // keeps merge in chunk order, so emission is ascending.
    ++result.sweeps;
    for (const ShardSlice& shard : shards) {
      score_if_sharded(shard);
      obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
      for (uint32_t idx : KeepChunks(resident(shard), threads, *aggregator)) {
        const size_t local = idx - shard.first_index;
        emit(idx, (*arena.pairs)[local], arena.probabilities[local]);
      }
    }
  }

  obs::CounterAdd("pairs.generated", n64);
  obs::CounterAdd("pairs.retained", retained_count);

  result.metrics = MetricsFromCounts(true_positives, retained_count,
                                     dataset_.ground_truth.size());
  // The legacy *_seconds fields are views of the phase clock.
  result.generate_seconds = result.phases.Get(obs::Phase::kPairs);
  result.feature_seconds = result.phases.Get(obs::Phase::kFeatures);
  result.train_seconds = result.phases.Get(obs::Phase::kTrain);
  result.classify_seconds = result.phases.Get(obs::Phase::kClassify);
  result.prune_seconds = result.phases.Get(obs::Phase::kPrune);
  result.total_seconds = result.generate_seconds + result.feature_seconds +
                         result.train_seconds + result.classify_seconds +
                         result.prune_seconds;
  return result;
}

}  // namespace gsmb
