// gsmb::PreparedInputs — the immutable, shareable result of Engine::Prepare.
//
// Every experiment of the paper is a sweep: one dataset+blocking evaluated
// under many pruning kinds, feature sets, classifiers, training sizes and
// seeds (Figs. 5-18, Tables 3-7). The expensive part — loading profiles,
// building blocks, purging/filtering, indexing, counting candidates — is a
// pure function of the spec's `dataset` and `blocking` sections alone, so
// it is prepared ONCE and shared:
//
//   gsmb::Engine engine;
//   gsmb::Result<gsmb::PreparedHandle> prepared = engine.Prepare(spec);
//   for (auto& variant : variants)            // pruning/features/seed/...
//     engine.Execute(variant, *prepared);     // no re-blocking
//
// Engine::Prepare serves handles from an engine-level LRU cache keyed on
// PrepareCacheKey(spec) — the canonical JSON of the dataset+blocking
// sections — so plain Engine::Run calls, sweeps and long-lived services all
// share one preparation per distinct (dataset, blocking) pair.
//
// A handle carries the counting preparation (core/pipeline.h's
// PreparedDataset), which every backend executes from. Only the batch
// backend reads the O(|C|) candidate pairs: they are materialised lazily,
// at most once per handle, on its first run, and lent to the execution
// core so every later batch variant skips pair generation. Streaming
// regenerates its shards and the serving bootstrap reads only its sampled
// training pairs, so neither materialises them. Handles are immutable
// after construction (the lazy pairs are logically const: built once, then
// only read) and safe to share across threads.

#ifndef GSMB_API_PREPARED_H_
#define GSMB_API_PREPARED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blocking/candidate_pairs.h"
#include "core/pipeline.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"
#include "gsmb/job_spec.h"

namespace gsmb {

/// The loaded dataset of a job: one or two collections plus ground truth.
struct JobInputs {
  EntityCollection e1;
  EntityCollection e2;  // empty for Dirty ER
  bool dirty = false;
  GroundTruth ground_truth{false};

  const std::string& ExternalLeftId(EntityId id) const {
    return e1[id].external_id();
  }
  const std::string& ExternalRightId(EntityId id) const {
    return dirty ? e1[id].external_id() : e2[id].external_id();
  }
};

/// Canonical cache identity of a preparation: the spec's dataset+blocking
/// sections as single-line canonical JSON. Two specs with equal keys imply
/// bit-identical preparations; unrelated sections (features, pruning,
/// training, execution, output) never enter the key.
std::string PrepareCacheKey(const JobSpec& spec);

class PreparedInputs {
 public:
  /// Profiles + ground truth, exactly as a backend would have loaded them.
  JobInputs inputs;
  /// The counting preparation: blocks after purging/filtering, the global
  /// EntityIndex, block stats, blocking quality, the per-pivot prefix
  /// offsets that let any backend enumerate the candidate space, and the
  /// ascending indices of its ground-truth matches.
  PreparedDataset dataset;
  /// PrepareCacheKey(spec) of the spec this was prepared from.
  std::string cache_key;
  /// Wall-clock cost of the preparation (load + block + count), seconds.
  /// The one-off cost of the handle, not of a call: ClaimPrepareSeconds()
  /// hands it to the first run only.
  double prepare_seconds = 0.0;
  /// Content fingerprint of the loaded dataset (obs::DatasetFingerprint):
  /// profiles + ground truth, independent of how they were loaded.
  /// Flows into JobResult and run reports (gsmb/report.h).
  uint64_t dataset_fingerprint = 0;
  /// Digest of the blocked representation (obs::PreparedStreamDigest):
  /// post-purge/filter blocks + candidate count. Equal digests imply the
  /// same candidate space — the artifact prepared snapshots and
  /// golden-preparation diffs verify against.
  uint64_t prepared_digest = 0;

  uint64_t num_candidates() const { return dataset.num_candidates(); }

  /// Lazily materialises (at most once per handle, thread-safe) and returns
  /// GenerateCandidatePairs(*dataset.index). Only the batch backend calls
  /// this; streaming and serving never pay it. `materialize_seconds`
  /// (optional) receives the build's wall time only on the one call that
  /// built the pairs and is left untouched on every other, so a run charges
  /// the cost iff it paid it.
  const std::vector<CandidatePair>& Pairs(
      size_t num_threads, double* materialize_seconds = nullptr) const;

  /// `prepare_seconds` on the first call, 0 on every later one
  /// (thread-safe). Backends pass it to api::ApplyPhaseTimings, so a
  /// handle's preparation lands in the JobResult::blocking_seconds of the
  /// first run executed against it and never in a prepare-cache hit's —
  /// the same charge-once rule Pairs() applies to materialisation.
  double ClaimPrepareSeconds() const {
    return prepare_claimed_.exchange(true, std::memory_order_acq_rel)
               ? 0.0
               : prepare_seconds;
  }

  /// True once Pairs() has materialised the O(|C|) candidate set.
  bool pairs_materialized() const {
    return pairs_ready_.load(std::memory_order_acquire);
  }

  /// Approximate resident bytes of this handle (profiles, blocks, index,
  /// counting arrays, plus the pairs when materialised). Drives the
  /// prepare cache's byte-budget eviction; an estimate, not an audit.
  size_t ApproxBytes() const;

 private:
  mutable std::once_flag pairs_once_;
  mutable std::vector<CandidatePair> pairs_;
  mutable std::atomic<bool> pairs_ready_{false};
  mutable std::atomic<bool> prepare_claimed_{false};
};

/// How Prepare hands out preparations: shared and immutable. A handle keeps
/// its preparation alive even after the cache evicts it.
using PreparedHandle = std::shared_ptr<const PreparedInputs>;

/// Counters of the engine-level prepare cache (see Engine::Prepare).
struct PrepareCacheStats {
  size_t hits = 0;       ///< Prepare() calls served from the cache
  size_t misses = 0;     ///< preparations actually built
  size_t evictions = 0;  ///< entries dropped by the LRU policy
  size_t entries = 0;    ///< currently cached preparations
  size_t bytes = 0;      ///< ApproxBytes() over current entries
};

}  // namespace gsmb

#endif  // GSMB_API_PREPARED_H_
