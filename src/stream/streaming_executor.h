// StreamingExecutor: the one execution core behind the Engine's batch and
// streaming backends — the full weight -> classify -> prune pipeline over a
// counting PreparedDataset (core/pipeline.h), in bounded memory.
//
// The executor slices the GLOBAL candidate order into contiguous,
// chunk-aligned shards — located through the dataset's pivot_offsets — and
// drains them one at a time through a reusable arena:
//
//   shard pairs -> features (core/features.cc, global index)
//   -> classify -> feed the shard's chunks to the pruning aggregators
//   -> fold -> next shard
//
// Shard pairs are regenerated pivot by pivot, unless the caller lends the
// materialised candidate set (PreparedInputs::Pairs()); then they are read
// from it. The batch backend is this executor at one shard over the lent
// pairs; the streaming backend regenerates every shard, so its peak memory
// is O(largest shard + |E| + aggregates), never O(|C|).
//
// Score once, prune many. The unit of work is a GROUP: configurations that
// differ only in their pruning settings (RunGroup; Run is the group of
// one). Every pruning kind reads the same classifier probabilities, so the
// group computes LCP per entity, trains, and extracts + classifies each
// shard once, and every kind — each with its own PruningAggregator and
// RetainedSink — prunes off that one score:
//   * one shard: the arena is scored once and stays resident; the kinds
//     then run their AccumulateChunks/KeepChunks over it in turn, one kind's
//     aggregates alive at a time;
//   * several shards: each pass scores every shard once and feeds it to
//     every kind. The first pass accumulates (BCl keeps straight away); a
//     second pass applies the finalized thresholds of the weight-based kinds
//     (WEP, WNP, RWNP, BLAST), which need global per-entity state first. The
//     cardinality kinds (CEP/CNP/RCNP) emit from their folded top-k
//     structures and need no second pass.
// The group's shared time (LCP, pairs, features, train, classify) is
// charged to its first configuration; the others report only their own
// prune time.
//
// Bit-identity. The retained set equals RunMetaBlocking's (the in-memory
// reference of core/pipeline.h) for EVERY shard count, thread count and
// group composition, by construction rather than by luck:
//   * shards are whole numbers of the same DeterministicChunks the
//     in-memory pruners use, processed in ascending order through the same
//     AccumulateChunks/KeepChunks loops (core/pruning_aggregates.h), so
//     per-chunk partials fold in exactly the in-memory fold order
//     (floating-point addition is not associative — this ordering is the
//     load-bearing invariant);
//   * a feature row is a pure function of (pivot, neighbour) and the
//     global EntityIndex, so per-shard extraction reproduces the rows of
//     the full matrix bit for bit (core/features.cc sweeps the pivot's
//     blocks identically regardless of which rows are requested);
//   * TrainFromSample draws RunMetaBlocking's balanced sample with the same
//     SampleBalancedFromPlan call (ml/sampler.h) over the same
//     positive_indices — same training rows, same row order — so the
//     fitted model is identical, and so is the probability every kind of a
//     group reads.
//
// Deliberate departure from the serving layer (serve/session.h): serving
// hash-shards TOKENS so a shard is refreshable in isolation; here shards
// must replay the in-memory fold order, so they are contiguous
// chunk-aligned slices of the candidate space instead. The shared
// discipline is the bounded per-shard arena, not the hash.

#ifndef GSMB_STREAM_STREAMING_EXECUTOR_H_
#define GSMB_STREAM_STREAMING_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "blocking/candidate_pairs.h"
#include "core/pipeline.h"

namespace gsmb {

/// Arena bytes one candidate occupies while a shard is resident: the pair,
/// its feature row, its probability, plus slack for the per-chunk
/// aggregation partials. PlanShards sizes shards with this, and the
/// Engine's `auto` mode uses the SAME model to decide batch vs streaming —
/// one function so the two can never drift apart.
inline constexpr uint64_t StreamingArenaBytesPerPair(size_t feature_dims) {
  return sizeof(CandidatePair) + 8ull * feature_dims + 8 + 8;
}

/// A classifier fitted on a configuration's balanced training sample.
struct TrainedClassifier {
  std::unique_ptr<ProbabilisticClassifier> model;
  size_t training_size = 0;
};

/// The training stage of every pipeline over a counting preparation: draws
/// RunMetaBlocking's balanced sample (SampleBalancedFromPlan with
/// config.seed), regenerates only the sampled pairs, extracts their feature
/// rows and fits config.classifier — the same model RunMetaBlocking fits,
/// without touching any other candidate. `lcp` (optional) is the per-entity
/// LCP of FeatureExtractor::ComputeLcpPerEntity, computed on demand when
/// the feature set needs it and none is given. Throws std::runtime_error
/// when the sample has fewer than two labelled pairs.
TrainedClassifier TrainFromSample(const PreparedDataset& dataset,
                                  const MetaBlockingConfig& config,
                                  const std::vector<double>* lcp = nullptr);

struct StreamingOptions {
  /// Number of contiguous, chunk-aligned slices of the candidate space.
  /// More shards = smaller arena = lower peak memory (and slightly more
  /// per-shard overhead). Clamped to the number of chunks; results are
  /// identical for ANY value.
  size_t num_shards = 16;
  /// When > 0, the shard count is raised (never lowered) until one shard's
  /// arena — pairs + feature rows + probabilities — fits this budget. The
  /// budget covers the arena, not the resident EntityIndex/aggregates,
  /// which are O(|E|) and shared with the batch path.
  size_t memory_budget_mb = 0;
};

struct StreamingResult {
  EffectivenessMetrics metrics;
  /// Phase-time breakdown from the telemetry clock (obs::ScopedPhase);
  /// the `*_seconds` fields below are views of it.
  obs::PhaseTimings phases;
  /// RT components, seconds. `generate_seconds` (pair regeneration; 0 when
  /// the pairs are lent) is included in `total_seconds` so regenerating
  /// and lent-pair runs compare fairly on wall clock.
  double generate_seconds = 0.0;
  double feature_seconds = 0.0;
  double train_seconds = 0.0;
  double classify_seconds = 0.0;
  double prune_seconds = 0.0;
  double total_seconds = 0.0;
  size_t training_size = 0;
  /// Classifier coefficients in raw feature space, intercept last —
  /// bit-identical to RunMetaBlocking's.
  std::vector<double> model_coefficients;
  /// Populated only when config.keep_retained is set (it is O(retained)).
  std::vector<uint32_t> retained_indices;

  // Execution shape, for benches and diagnostics.
  size_t num_shards_used = 0;
  size_t max_shard_candidates = 0;  ///< arena high-water mark, in pairs
  size_t sweeps = 0;                ///< full passes over the candidate space
};

class StreamingExecutor {
 public:
  /// Receives every retained candidate in ascending global-index order:
  /// its index in the global candidate order, the pair, and the classifier
  /// probability that retained it. Runs on the calling thread.
  using RetainedSink =
      std::function<void(uint32_t index, const CandidatePair& pair,
                         double probability)>;

  /// `pairs` (optional) lends the dataset's materialised candidate set,
  /// GenerateCandidatePairs(*dataset.index), to a one-shard run (options
  /// num_shards 1, no memory budget): the shard and the cardinality
  /// survivors are then read from it instead of regenerated. It must
  /// outlive the executor. Throws std::invalid_argument when `options` is
  /// unusable (no shards and no memory budget), or when `pairs` is not the
  /// dataset's candidate set or the options plan more than one shard.
  StreamingExecutor(const PreparedDataset& dataset, StreamingOptions options,
                    const std::vector<CandidatePair>* pairs = nullptr);

  /// Runs one configuration end to end: the group of one. The retained
  /// set — and therefore metrics and coefficients — is bit-identical to
  /// RunMetaBlocking(dataset, pairs, config) on the same dataset,
  /// for any shard/thread combination.
  StreamingResult Run(const MetaBlockingConfig& config) const {
    return Run(config, RetainedSink());
  }
  StreamingResult Run(const MetaBlockingConfig& config,
                      const RetainedSink& sink) const;

  /// Runs a group of configurations that differ only in their pruning
  /// settings (kind, blast_ratio, validity_threshold) and keep_retained,
  /// scoring the candidates once for all of them. Returns one result per
  /// config, in order, each bit-identical to Run(config); `sinks` (empty,
  /// or one per config, any of them empty) receive each config's retained
  /// candidates. Shared stage time is charged to results[0]. Throws
  /// std::invalid_argument when the configs disagree on anything that
  /// shapes the score (features, classifier, training sample, threads).
  std::vector<StreamingResult> RunGroup(
      const std::vector<MetaBlockingConfig>& configs,
      const std::vector<RetainedSink>& sinks = {}) const;

 private:
  struct ShardSlice {
    size_t chunk_begin = 0;  // [chunk_begin, chunk_end) of the chunk table
    size_t chunk_end = 0;
    size_t first_index = 0;  // [first_index, end_index) candidate indices
    size_t end_index = 0;
  };

  /// The shard's reusable buffers; one live instance per Run().
  struct ShardArena;

  std::vector<ShardSlice> PlanShards(size_t num_chunks,
                                     size_t feature_dims) const;
  /// Points the arena at pairs [shard.first_index, shard.end_index) (lent
  /// or regenerated) and returns their feature rows.
  Matrix ExtractShard(const ShardSlice& shard,
                      const MetaBlockingConfig& config,
                      const std::vector<double>* lcp, ShardArena* arena,
                      obs::PhaseTimings* phases) const;

  const PreparedDataset& dataset_;
  StreamingOptions options_;
  const std::vector<CandidatePair>* pairs_;
};

}  // namespace gsmb

#endif  // GSMB_STREAM_STREAMING_EXECUTOR_H_
