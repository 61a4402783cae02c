// End-to-end (Generalized) Supervised Meta-blocking pipeline.
//
// A dataset is prepared once with the fixed preprocessing of the paper's
// Section 5.1 — a blocking scheme -> Block Purging -> Block Filtering (0.8)
// -> one counting sweep over the candidate space, which records the
// blocking-quality numbers of Table 2 without storing the candidates.
// schemes::PrepareInputs (schemes/scheme_registry.h) is the one front door
// for that; it ends in PrepareFromBlocks below, which custom-block callers
// and prepared-snapshot loads share. RunMetaBlocking() then executes one
// experiment configuration over the materialised candidate set
// (GenerateCandidatePairs(*prep.index)): extract features, sample a
// balanced training set, train the probabilistic classifier, weight all
// candidate pairs, prune, and evaluate — reporting the paper's measures
// (recall, precision, F1) and the run-time breakdown that makes up RT. It
// is the in-memory reference the paper harnesses (eval/experiment) run and
// the executor tests compare against; the Engine's batch and streaming
// backends run the same configuration through the StreamingExecutor
// (stream/) off the same preparation, bit-identically.

#ifndef GSMB_CORE_PIPELINE_H_
#define GSMB_CORE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blocking/block_collection.h"
#include "blocking/block_stats.h"
#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "core/feature_set.h"
#include "core/features.h"
#include "core/pruning.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"
#include "gsmb/execution.h"
#include "gsmb/telemetry.h"
#include "ml/classifier.h"
#include "util/matrix.h"

namespace gsmb {

/// A dataset after blocking: everything the experiments reuse across
/// configurations. Movable, not copyable (owns the entity index).
///
/// The candidate set itself is only counted, never stored — it is O(|C|)
/// and a pure function of `index`. What any consumer needs to enumerate or
/// label a slice of the global candidate order is:
///
///   pivot_offsets      prefix sums of the per-pivot candidate counts; the
///                      pair at global index i belongs to the pivot p with
///                      pivot_offsets[p] <= i < pivot_offsets[p+1], and its
///                      partner is that pivot's (i - pivot_offsets[p])-th
///                      distinct neighbour. O(#pivots).
///   positive_indices   the global candidate indices that are ground-truth
///                      matches, ascending. O(|D ∩ C|) — the one label
///                      representation both the balanced sampler and the
///                      retained-set evaluation read.
///
/// The global order is GenerateCandidatePairs(*index)'s, so callers that
/// want every pair up front materialise them with that call.
struct PreparedDataset {
  std::string name;
  bool clean_clean = true;
  GroundTruth ground_truth;
  BlockCollection blocks;  // after purging + filtering
  std::unique_ptr<EntityIndex> index;
  BlockCollectionStats stats;
  BlockingQuality blocking_quality;  // Table 2 row, counted

  /// Prefix sums of per-pivot candidate counts; size NumCandidatePivots+1.
  std::vector<uint64_t> pivot_offsets;
  /// Ascending global candidate indices that are ground-truth matches.
  std::vector<uint64_t> positive_indices;

  uint64_t num_candidates() const {
    return pivot_offsets.empty() ? 0 : pivot_offsets.back();
  }
};

/// The fixed preprocessing of every preparation: Block Purging (drop blocks
/// with more than `purge_size_fraction` of all profiles) then Block
/// Filtering (each entity keeps the `filter_ratio` fraction of its smallest
/// blocks). schemes::PrepareInputs applies it to the blocks of every
/// registered scheme.
BlockCollection PreprocessBlocks(BlockCollection raw,
                                 double purge_size_fraction,
                                 double filter_ratio);

/// The one finisher every preparation goes through, starting from a block
/// collection (any redundancy-positive blocking method; purging/filtering
/// already applied or intentionally skipped by the caller): index, block
/// stats and the counting sweep, bit-identical for any `num_threads`.
PreparedDataset PrepareFromBlocks(const std::string& name,
                                  BlockCollection blocks,
                                  GroundTruth ground_truth,
                                  size_t num_threads = 1);

/// One label byte per candidate (1 = ground-truth match), expanded from
/// `positive_indices` — for consumers whose API takes a dense label vector
/// (progressive schedules, probability histograms).
std::vector<uint8_t> PositiveMask(const PreparedDataset& dataset);

/// One experiment configuration.
struct MetaBlockingConfig {
  FeatureSet features = FeatureSet::Paper2014();
  ClassifierKind classifier = ClassifierKind::kLogisticRegression;
  PruningKind pruning = PruningKind::kBlast;
  /// Balanced training set: this many labelled pairs per class.
  size_t train_per_class = 250;
  /// Seed for the training-pair sample (one paper repetition = one seed).
  uint64_t seed = 0;
  double blast_ratio = 0.35;
  /// Validity floor: pairs with classifier probability below this are never
  /// retained (the paper's 0.5; <= 0 disables it, as the unsupervised
  /// weighting path does).
  double validity_threshold = 0.5;
  /// Keep per-pair probabilities in the result (Figure 12 needs them).
  bool keep_probabilities = false;
  /// Keep retained pair indices in the result.
  bool keep_retained = false;
  /// Shared execution knobs (worker threads for feature extraction, batch
  /// classification and pruning). Every parallel path is bit-identical to
  /// the serial one, so this only changes wall-clock time, never results.
  ExecutionOptions execution;
};

struct EffectivenessMetrics {
  double recall = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
  size_t true_positives = 0;
  size_t retained = 0;
};

/// Recall/precision/F1 of a retained subset against |D| ground-truth
/// matches (recall is measured against the full ground truth, so blocking
/// misses count against it, exactly as in the paper). Both index lists are
/// ascending; true positives are counted by merging them.
EffectivenessMetrics EvaluateRetained(
    const std::vector<uint32_t>& retained_indices,
    const std::vector<uint64_t>& positive_indices, size_t num_ground_truth);

/// Same measures from pre-counted tallies — for callers (the streaming
/// executor, the serving backend) that evaluate retained pairs on the fly.
EffectivenessMetrics MetricsFromCounts(size_t true_positives, size_t retained,
                                       size_t num_ground_truth);

struct MetaBlockingResult {
  EffectivenessMetrics metrics;
  /// Phase-time breakdown from the telemetry clock (obs::ScopedPhase).
  /// The legacy `*_seconds` fields below are views of this — one clock
  /// source, no duplicated Stopwatches.
  obs::PhaseTimings phases;
  /// RT components, seconds. `total_seconds` = features + train + classify
  /// + prune (the paper's RT definition for Generalized SM).
  double feature_seconds = 0.0;
  double train_seconds = 0.0;
  double classify_seconds = 0.0;
  double prune_seconds = 0.0;
  double total_seconds = 0.0;
  size_t training_size = 0;
  /// Classifier coefficients in raw feature space, intercept last
  /// (Table 6 reports these for the scalability models).
  std::vector<double> model_coefficients;
  /// Populated only when the config asks for them.
  std::vector<double> probabilities;
  std::vector<uint32_t> retained_indices;
};

/// Runs one configuration end to end (features computed internally and
/// included in the timing, as the paper's RT does). `pairs` is the
/// dataset's materialised candidate set, GenerateCandidatePairs(
/// *dataset.index); throws std::invalid_argument when its size is not
/// dataset.num_candidates().
MetaBlockingResult RunMetaBlocking(const PreparedDataset& dataset,
                                   const std::vector<CandidatePair>& pairs,
                                   const MetaBlockingConfig& config);

/// Variant that reuses a precomputed feature matrix whose columns follow
/// config.features.FullMatrixColumns(). `feature_seconds_hint` is recorded
/// as the feature-generation time (pass the one-off measured cost, or 0 to
/// exclude it). Used by the seed-averaging experiment harness.
MetaBlockingResult RunMetaBlockingWithFeatures(
    const PreparedDataset& dataset, const std::vector<CandidatePair>& pairs,
    const MetaBlockingConfig& config, const Matrix& features,
    double feature_seconds_hint = 0.0);

}  // namespace gsmb

#endif  // GSMB_CORE_PIPELINE_H_
