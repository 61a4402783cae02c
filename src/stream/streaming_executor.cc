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

/// True when `a` and `b` score every candidate identically: same features,
/// classifier, training sample and threads.
bool SameScoring(const MetaBlockingConfig& a, const MetaBlockingConfig& b) {
  return a.features == b.features && a.classifier == b.classifier &&
         a.train_per_class == b.train_per_class && a.seed == b.seed &&
         a.execution.num_threads == b.execution.num_threads;
}

/// One config's retained candidates as they are emitted, ascending by
/// global index: counts them, counts true positives by merging with the
/// ascending positive_indices, appends them to `kept` (when given) and
/// forwards each to the config's sink.
class RetainedEmitter {
 public:
  RetainedEmitter(const std::vector<uint64_t>& positives,
                  const StreamingExecutor::RetainedSink* sink,
                  std::vector<uint32_t>* kept)
      : positives_(positives),
        sink_(sink != nullptr && *sink ? sink : nullptr),
        kept_(kept) {}

  void operator()(uint32_t idx, const CandidatePair& pair,
                  double probability) {
    ++retained_;
    while (next_positive_ < positives_.size() &&
           positives_[next_positive_] < idx) {
      ++next_positive_;
    }
    if (next_positive_ < positives_.size() &&
        positives_[next_positive_] == idx) {
      ++true_positives_;
    }
    if (kept_ != nullptr) kept_->push_back(idx);
    if (sink_ != nullptr) (*sink_)(idx, pair, probability);
  }

  size_t retained() const { return retained_; }
  size_t true_positives() const { return true_positives_; }

 private:
  const std::vector<uint64_t>& positives_;
  const StreamingExecutor::RetainedSink* sink_;
  std::vector<uint32_t>* kept_;
  size_t next_positive_ = 0;
  size_t retained_ = 0;
  size_t true_positives_ = 0;
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
                                       obs::PhaseTimings* phases) const {
  const EntityIndex& index = *dataset_.index;
  const std::vector<uint64_t>& offsets = dataset_.pivot_offsets;

  // ---- The shard's slice of the global candidate order: the lent set
  // (one shard spanning it), or regenerated pivot by pivot. ----
  if (pairs_ != nullptr) {
    arena->pairs = pairs_;
  } else {
    obs::ScopedPhase phase(phases, obs::Phase::kPairs);
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
  obs::ScopedPhase phase(phases, obs::Phase::kFeatures);
  return FeatureExtractor(index, *arena->pairs)
      .Compute(config.features, config.execution.num_threads, lcp);
}

StreamingResult StreamingExecutor::Run(const MetaBlockingConfig& config,
                                       const RetainedSink& sink) const {
  return std::move(RunGroup({config}, {sink}).front());
}

std::vector<StreamingResult> StreamingExecutor::RunGroup(
    const std::vector<MetaBlockingConfig>& configs,
    const std::vector<RetainedSink>& sinks) const {
  if (configs.empty()) return {};
  const MetaBlockingConfig& config = configs.front();
  for (const MetaBlockingConfig& other : configs) {
    if (!SameScoring(config, other)) {
      throw std::invalid_argument(
          "StreamingExecutor: a group's configs may differ only in their "
          "pruning settings");
    }
  }
  if (!sinks.empty() && sinks.size() != configs.size()) {
    throw std::invalid_argument(
        "StreamingExecutor: a group needs one sink per config");
  }
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

  std::vector<StreamingResult> results(configs.size());
  // The group's shared stages are charged to its first config only.
  obs::PhaseTimings& shared = results.front().phases;
  const std::vector<ShardSlice> shards =
      PlanShards(chunks.size(), config.features.Dimensions());
  size_t max_shard_candidates = 0;
  for (const ShardSlice& shard : shards) {
    max_shard_candidates =
        std::max(max_shard_candidates, shard.end_index - shard.first_index);
  }
  obs::GaugeMax("arena.bytes.peak",
                static_cast<double>(max_shard_candidates *
                                    StreamingArenaBytesPerPair(
                                        config.features.Dimensions())));

  // ---- LCP once, reused by the training rows and every shard. ----
  static const std::vector<CandidatePair> kNoPairs;
  std::vector<double> lcp;
  const std::vector<double>* lcp_ptr = nullptr;
  if (config.features.Contains(Feature::kLcp)) {
    obs::ScopedPhase phase(&shared, obs::Phase::kFeatures);
    lcp = FeatureExtractor(index, kNoPairs).ComputeLcpPerEntity(threads);
    lcp_ptr = &lcp;
  }

  std::unique_ptr<ProbabilisticClassifier> model;
  {
    obs::ScopedPhase phase(&shared, obs::Phase::kTrain);
    TrainedClassifier trained = TrainFromSample(dataset_, config, lcp_ptr);
    for (StreamingResult& result : results) {
      result.training_size = trained.training_size;
      result.model_coefficients = trained.model->CoefficientsWithIntercept();
      result.num_shards_used = shards.size();
      result.max_shard_candidates = max_shard_candidates;
    }
    model = std::move(trained.model);
  }

  // Scoring a shard fills the arena with its pairs and probabilities. A
  // single shard is scored once here and stays resident for every kind and
  // pass; several shards are scored once per pass, for every kind at once.
  ShardArena arena;
  auto score = [&](const ShardSlice& shard) {
    const Matrix features = ExtractShard(shard, config, lcp_ptr, &arena,
                                         &shared);
    obs::ScopedPhase phase(&shared, obs::Phase::kClassify);
    arena.probabilities = model->PredictBatch(features, threads);
  };
  const bool single_shard = shards.size() == 1;
  if (single_shard) score(shards[0]);
  auto score_if_sharded = [&](const ShardSlice& shard) {
    if (!single_shard) score(shard);
  };
  auto resident = [&](const ShardSlice& shard) {
    return ResidentChunks{&chunks, shard.chunk_begin, shard.chunk_end,
                          arena.pairs->data(), arena.probabilities.data()};
  };

  // ---- Pruning context, identical to RunMetaBlocking's. ----
  PruningContext context = PruningContext::FromIndex(index, dataset_.stats);
  context.execution = config.execution;

  // Prunes the configs `members` off the shared score: their aggregators
  // are alive together, and every pass over the shards feeds all of them.
  auto prune = [&](const std::vector<size_t>& members) {
    std::vector<std::unique_ptr<PruningAggregator>> aggregators;
    std::vector<RetainedEmitter> emitters;
    emitters.reserve(members.size());
    for (size_t m : members) {
      context.blast_ratio = configs[m].blast_ratio;
      context.validity_threshold = configs[m].validity_threshold;
      aggregators.push_back(
          MakePruningAggregator(configs[m].pruning, chunks.size(), context));
      emitters.emplace_back(
          dataset_.positive_indices, sinks.empty() ? nullptr : &sinks[m],
          configs[m].keep_retained ? &results[m].retained_indices : nullptr);
    }
    auto keep = [&](size_t k, const ShardSlice& shard) {
      for (uint32_t idx : KeepChunks(resident(shard), threads,
                                     *aggregators[k])) {
        const size_t local = idx - shard.first_index;
        emitters[k](idx, (*arena.pairs)[local], arena.probabilities[local]);
      }
    };

    // ---- Pass 1: accumulate per-chunk aggregates, folding after each
    // shard — the identical fold sequence PruneWithAggregator performs.
    // BCl's keep decision is stateless, so it keeps in this pass. ----
    for (size_t k = 0; k < members.size(); ++k) ++results[members[k]].sweeps;
    for (const ShardSlice& shard : shards) {
      score_if_sharded(shard);
      for (size_t k = 0; k < members.size(); ++k) {
        obs::ScopedPhase phase(&results[members[k]].phases,
                               obs::Phase::kPrune);
        if (!aggregators[k]->needs_accumulation()) {
          keep(k, shard);
          continue;
        }
        // Per-shard accumulate+fold latency feeds the fold-time histogram
        // the streaming bench reports percentiles from.
        GSMB_SPAN("shard.fold", "stream.shard.fold_us");
        AccumulateChunks(resident(shard), threads, aggregators[k].get());
      }
    }
    std::vector<size_t> thresholded;  // weight-based kinds: need pass 2
    for (size_t k = 0; k < members.size(); ++k) {
      if (!aggregators[k]->needs_accumulation()) continue;
      obs::ScopedPhase phase(&results[members[k]].phases, obs::Phase::kPrune);
      aggregators[k]->Finalize();
      if (aggregators[k]->emits_from_aggregates()) {
        // Cardinality kinds: the folded top-k structures already hold the
        // retained indices and weights; only their pairs are looked up.
        PairRegenerator regenerator(dataset_);
        for (const RetainedCandidate& candidate :
             aggregators[k]->TakeRetained()) {
          emitters[k](candidate.index,
                      pairs_ != nullptr ? (*pairs_)[candidate.index]
                                        : regenerator.At(candidate.index),
                      candidate.probability);
        }
      } else {
        thresholded.push_back(k);
        ++results[members[k]].sweeps;
      }
    }

    // ---- Pass 2: the weight-based kinds apply their finalized
    // thresholds. Per-chunk keeps merge in chunk order, so emission is
    // ascending. ----
    if (!thresholded.empty()) {
      for (const ShardSlice& shard : shards) {
        score_if_sharded(shard);
        for (size_t k : thresholded) {
          obs::ScopedPhase phase(&results[members[k]].phases,
                                 obs::Phase::kPrune);
          keep(k, shard);
        }
      }
    }
    for (size_t k = 0; k < members.size(); ++k) {
      StreamingResult& result = results[members[k]];
      obs::CounterAdd("pairs.generated", n64);
      obs::CounterAdd("pairs.retained", emitters[k].retained());
      result.metrics = MetricsFromCounts(emitters[k].true_positives(),
                                         emitters[k].retained(),
                                         dataset_.ground_truth.size());
    }
  };

  // Over the resident shard the kinds take turns, so only one kind's
  // aggregates are alive at a time; over several shards they share every
  // pass.
  std::vector<size_t> members(configs.size());
  std::iota(members.begin(), members.end(), 0);
  if (single_shard) {
    for (size_t m : members) prune({m});
  } else {
    prune(members);
  }

  for (StreamingResult& result : results) {
    // The legacy *_seconds fields are views of the phase clock.
    result.generate_seconds = result.phases.Get(obs::Phase::kPairs);
    result.feature_seconds = result.phases.Get(obs::Phase::kFeatures);
    result.train_seconds = result.phases.Get(obs::Phase::kTrain);
    result.classify_seconds = result.phases.Get(obs::Phase::kClassify);
    result.prune_seconds = result.phases.Get(obs::Phase::kPrune);
    result.total_seconds = result.generate_seconds + result.feature_seconds +
                           result.train_seconds + result.classify_seconds +
                           result.prune_seconds;
  }
  return results;
}

}  // namespace gsmb
