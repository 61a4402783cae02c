#include "serve/session.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <utility>

#include "blocking/block_collection.h"
#include "blocking/block_stats.h"
#include "blocking/entity_index.h"
#include "blocking/key_blocking.h"
#include "core/features.h"
#include "gsmb/log.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

// Stable 64-bit FNV-1a: the token -> shard routing must not change across
// runs or platforms, or a restored snapshot would re-shard its keys.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool PairLess(const CandidatePair& a, const CandidatePair& b) {
  return a.left != b.left ? a.left < b.left : a.right < b.right;
}

}  // namespace

MetaBlockingSession::MetaBlockingSession(SessionOptions options,
                                         ServingModel model)
    : options_(options), model_(std::move(model)) {
  if (options_.num_shards == 0) {
    throw std::invalid_argument(
        "MetaBlockingSession: num_shards must be >= 1");
  }
  if (!model_.Valid()) {
    throw std::invalid_argument(
        "MetaBlockingSession: serving model is empty or its weight width "
        "does not match the feature set");
  }
  profiles_.set_name("session");
  shards_.resize(options_.num_shards);
}

size_t MetaBlockingSession::ShardOf(const std::string& token) const {
  return Fnv1a(token) % options_.num_shards;
}

std::vector<std::string> MetaBlockingSession::TokensOf(
    const EntityProfile& profile) const {
  // The token scheme's own key rule, so a 1-shard session blocks exactly
  // like the batch pipeline's token blocking.
  return TokenKeys(profile, options_.min_token_length);
}

EntityId MetaBlockingSession::AddProfileLocked(const EntityProfile& profile) {
  const EntityId id = profiles_.Add(profile);
  for (std::string& token : TokensOf(profile)) {
    Shard& shard = shards_[ShardOf(token)];
    shard.keys[std::move(token)].push_back(id);
    shard.dirty = true;
  }
  return id;
}

EntityId MetaBlockingSession::AddProfile(const EntityProfile& profile) {
  GSMB_SPAN("serve.ingest", "serve.ingest.latency_us");
  std::unique_lock<std::shared_mutex> lock(sync_->mutex);
  return AddProfileLocked(profile);
}

std::vector<EntityId> MetaBlockingSession::AddProfiles(
    const std::vector<EntityProfile>& batch) {
  GSMB_SPAN("serve.ingest", "serve.ingest.latency_us");
  std::unique_lock<std::shared_mutex> lock(sync_->mutex);
  std::vector<EntityId> ids;
  ids.reserve(batch.size());
  for (const EntityProfile& profile : batch) {
    ids.push_back(AddProfileLocked(profile));
  }
  GSMB_LOG_DEBUG("serve.ingest", {"profiles", batch.size()},
                 {"resident", profiles_.size()});
  return ids;
}

void MetaBlockingSession::set_num_threads(size_t num_threads) {
  std::unique_lock<std::shared_mutex> lock(sync_->mutex);
  options_.execution.num_threads = num_threads;
}

void MetaBlockingSession::RefreshShard(Shard* shard,
                                       obs::PhaseTimings* phases) const {
  shard->retained.clear();
  shard->aggregates.clear();
  shard->num_blocks = 0;
  shard->total_comparisons = 0.0;
  shard->num_candidates = 0;

  // One phase guard walks the shard pipeline; optional::emplace ends the
  // previous phase before starting the next, and any early return ends the
  // current one.
  std::optional<obs::ScopedPhase> phase(std::in_place, phases,
                                        obs::Phase::kBlocking);
  // ---- Shard-local id space. ----
  // The per-shard EntityIndex and pruning scratch are sized by the entity
  // count they are given; using global ids would cost O(|E|) per shard per
  // refresh no matter how small the shard. Remapping the shard's member
  // ids to a dense local space keeps a refresh proportional to the shard's
  // own content. The map is monotone (sorted globals -> 0..k-1), so member
  // lists stay ascending and the pipeline's ordering invariants hold.
  std::vector<EntityId> globals;
  for (const auto& [key, members] : shard->keys) {
    globals.insert(globals.end(), members.begin(), members.end());
  }
  std::sort(globals.begin(), globals.end());
  globals.erase(std::unique(globals.begin(), globals.end()), globals.end());
  const auto to_local = [&](EntityId global) {
    return static_cast<EntityId>(
        std::lower_bound(globals.begin(), globals.end(), global) -
        globals.begin());
  };

  // ---- Re-block: one block per key with >= 2 members, capped. ----
  // std::map iterates keys lexicographically, so block ids are
  // deterministic — the same invariant key_blocking.cc maintains.
  BlockCollection blocks(/*clean_clean=*/false, globals.size(), 0);
  for (const auto& [key, members] : shard->keys) {
    if (members.size() < 2) continue;
    if (options_.max_block_size > 0 &&
        members.size() > options_.max_block_size) {
      continue;
    }
    Block b;
    b.key = key;
    b.left.reserve(members.size());
    for (EntityId member : members) b.left.push_back(to_local(member));
    blocks.Add(std::move(b));
  }
  shard->num_blocks = blocks.size();
  if (blocks.empty()) return;

  // ---- Per-shard pipeline, single-threaded: Refresh() parallelises
  // across shards, and shard outputs must not depend on inner threading
  // anyway (they do not — every stage is deterministic — but one level of
  // parallelism is the simple and fast choice). ----
  phase.emplace(phases, obs::Phase::kPairs);
  const EntityIndex index(blocks);
  const std::vector<CandidatePair> pairs = GenerateCandidatePairs(index, 1);
  shard->total_comparisons = index.TotalComparisons();
  shard->num_candidates = pairs.size();

  phase.emplace(phases, obs::Phase::kFeatures);
  // Aggregate cache for the query path (and the LCP tally below), keyed by
  // the *global* ids the query path sees.
  std::vector<double> lcp(index.num_entities(), 0.0);
  for (const CandidatePair& p : pairs) {
    // Candidate pairs are distinct, so each one contributes exactly one
    // new neighbour to both endpoints: LCP within the shard.
    lcp[p.left] += 1.0;
    lcp[p.right] += 1.0;
  }
  for (size_t e = 0; e < index.num_entities(); ++e) {
    const auto blocks_of = static_cast<uint32_t>(index.NumBlocksOf(e));
    if (blocks_of == 0) continue;
    EntityAggregates agg;
    agg.num_blocks = blocks_of;
    agg.comparisons = index.EntityComparisons(e);
    agg.inv_comparisons = index.SumInvBlockComparisons(e);
    agg.inv_sizes = index.SumInvBlockSizes(e);
    agg.lcp = lcp[e];
    shard->aggregates.emplace(globals[e], agg);
  }
  if (pairs.empty()) return;

  // ---- Weight + prune with the resident model. ----
  const FeatureExtractor extractor(index, pairs);
  const Matrix features = extractor.Compute(model_.features, 1);
  phase.emplace(phases, obs::Phase::kClassify);
  std::vector<double> probabilities(pairs.size());
  for (size_t r = 0; r < pairs.size(); ++r) {
    probabilities[r] = model_.Predict(features.Row(r));
  }

  phase.emplace(phases, obs::Phase::kPrune);
  const BlockCollectionStats stats = ComputeBlockStats(blocks);
  PruningContext context = PruningContext::FromIndex(index, stats);
  context.validity_threshold = options_.validity_threshold;
  context.blast_ratio = options_.blast_ratio;
  context.execution.num_threads = 1;
  // CNP budget relative to the entities actually present in the shard (the
  // batch formula divides by the global |E|, which changes on every ingest
  // anywhere and would invalidate every clean shard's cache) — unless the
  // options pin an explicit universe (Engine cold builds, batch parity).
  const size_t cnp_universe = options_.cnp_entity_universe > 0
                                  ? options_.cnp_entity_universe
                                  : shard->aggregates.size();
  context.cnp_k =
      std::max(1.0, static_cast<double>(stats.total_occurrences) /
                        static_cast<double>(cnp_universe));

  const std::vector<uint32_t> retained_rows =
      MakePruningAlgorithm(options_.pruning)
          ->Prune(pairs, probabilities, context);
  shard->retained.reserve(retained_rows.size());
  for (uint32_t row : retained_rows) {
    // Back to global ids; the monotone remap preserves left < right.
    shard->retained.push_back(
        {globals[pairs[row].left], globals[pairs[row].right]});
  }
}

size_t MetaBlockingSession::Refresh() {
  GSMB_SPAN("serve.refresh", "serve.refresh.latency_us");
  // Exclusive: the per-shard pipelines below mutate the shard caches. The
  // ParallelFor workers write on behalf of this lock holder; readers
  // observe the writes through the release/acquire pair of this mutex.
  std::unique_lock<std::shared_mutex> lock(sync_->mutex);
  std::vector<size_t> dirty;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].dirty) dirty.push_back(s);
  }
  // Each worker times into its shard's own slot; the merge below runs in
  // ascending shard order so the accumulated phase totals are
  // deterministic for any thread count.
  std::vector<obs::PhaseTimings> shard_phases(dirty.size());
  ParallelFor(dirty.size(), options_.execution.num_threads,
              [&](size_t begin, size_t end) {
                for (size_t d = begin; d < end; ++d) {
                  RefreshShard(&shards_[dirty[d]], &shard_phases[d]);
                }
              });
  for (const obs::PhaseTimings& timings : shard_phases) {
    phases_.MergeFrom(timings);
  }
  for (size_t s : dirty) shards_[s].dirty = false;
  if (!dirty.empty()) {
    sync_->retained_count.store(kRetainedCountUnknown, std::memory_order_relaxed);
  }
  GSMB_LOG_DEBUG("serve.refresh", {"dirty_shards", dirty.size()},
                 {"shards", shards_.size()});
  return dirty.size();
}

std::vector<CandidatePair> MetaBlockingSession::RetainedPairsLocked() const {
  std::vector<CandidatePair> out;
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.retained.size();
  out.reserve(total);
  for (const Shard& shard : shards_) {
    out.insert(out.end(), shard.retained.begin(), shard.retained.end());
  }
  // A pair retained by several shards (endpoints sharing tokens in each)
  // appears once: the session's answer is the union.
  std::sort(out.begin(), out.end(), PairLess);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // Concurrent shared-lock readers may race to memoise; they computed the
  // same value from the same shard state, so either store is correct.
  sync_->retained_count.store(out.size(), std::memory_order_relaxed);
  return out;
}

std::vector<CandidatePair> MetaBlockingSession::RetainedPairs() const {
  std::shared_lock<std::shared_mutex> lock(sync_->mutex);
  return RetainedPairsLocked();
}

size_t MetaBlockingSession::DirtyShardCount() const {
  std::shared_lock<std::shared_mutex> lock(sync_->mutex);
  size_t count = 0;
  for (const Shard& shard : shards_) count += shard.dirty ? 1 : 0;
  return count;
}

obs::PhaseTimings MetaBlockingSession::AccumulatedPhases() const {
  std::shared_lock<std::shared_mutex> lock(sync_->mutex);
  return phases_;
}

SessionStats MetaBlockingSession::Stats() const {
  std::shared_lock<std::shared_mutex> lock(sync_->mutex);
  SessionStats stats;
  stats.num_profiles = profiles_.size();
  stats.num_shards = shards_.size();
  for (const Shard& shard : shards_) {
    stats.dirty_shards += shard.dirty ? 1 : 0;
    stats.num_blocks += shard.num_blocks;
    stats.num_candidates += shard.num_candidates;
  }
  const size_t memoised = sync_->retained_count.load(std::memory_order_relaxed);
  stats.num_retained = memoised != kRetainedCountUnknown
                           ? memoised
                           : RetainedPairsLocked().size();
  return stats;
}

void MetaBlockingSession::QueryShard(
    const Shard& shard, const std::vector<std::string>& tokens,
    std::optional<EntityId> exclude,
    std::unordered_map<EntityId, double>* best) const {
  // An external probe is scored "as if inserted": each of its tokens with
  // at least one resident member forms a block of the resident members
  // plus the probe. A resident probe (its id passed as `exclude`) already
  // sits in those blocks, so sizes stay resident and it is skipped as its
  // own candidate. Resident entities keep the cached aggregates of the
  // last Refresh() — the one asymmetry of the query path — which is what
  // makes a query O(probe neighbourhood) instead of O(shard).
  struct ProbeKey {
    const std::vector<EntityId>* members;
    double as_if_size;         // |b| with the probe counted once
    double as_if_comparisons;  // ||b|| with the probe counted once
    bool has_probe;            // probe already resident in this block
  };
  std::vector<ProbeKey> keys;
  double pivot_blocks = 0.0;
  double pivot_comparisons = 0.0;
  double pivot_inv_cmp = 0.0;
  double pivot_inv_size = 0.0;
  double universe_blocks = static_cast<double>(shard.num_blocks);
  double universe_comparisons = shard.total_comparisons;
  for (const std::string& token : tokens) {
    auto it = shard.keys.find(token);
    if (it == shard.keys.end() || it->second.empty()) continue;
    const std::vector<EntityId>& members = it->second;
    const bool has_probe =
        exclude.has_value() &&
        std::binary_search(members.begin(), members.end(), *exclude);
    // Entities the probe can meet through this key, and the block size
    // with the probe counted exactly once.
    const size_t others = members.size() - (has_probe ? 1 : 0);
    if (others == 0) continue;
    const size_t block_size = others + 1;
    if (options_.max_block_size > 0 &&
        block_size > options_.max_block_size) {
      continue;  // the (as-if) block is purged
    }
    const double size = static_cast<double>(block_size);
    const double comparisons = size * (size - 1.0) / 2.0;
    keys.push_back({&members, size, comparisons, has_probe});
    pivot_blocks += 1.0;
    pivot_comparisons += comparisons;
    pivot_inv_cmp += 1.0 / comparisons;
    pivot_inv_size += 1.0 / size;
    if (!has_probe) {
      // The as-if universe gains the probe's comparisons; a previously
      // singleton key materialises as a brand-new block of two. (A
      // resident probe's blocks are already in the universe totals.)
      universe_comparisons += static_cast<double>(others);
      if (others == 1) universe_blocks += 1.0;
    }
  }
  if (keys.empty()) return;

  // Per-candidate sums over the probe's keys, in deterministic key order.
  struct Acc {
    double common = 0.0;
    double inv_cmp = 0.0;   // Σ 1/||b|| over common as-if blocks
    double inv_size = 0.0;  // Σ 1/|b|  over common as-if blocks
    // Adjustments lifting the candidate's cached (resident) aggregates to
    // the as-if universe: singleton keys become blocks it now belongs to,
    // and every shared block's ||b|| grew by its resident size. Zero for
    // blocks the probe is already resident in.
    double extra_blocks = 0.0;
    double extra_comparisons = 0.0;
    double extra_inv_cmp = 0.0;
    double extra_inv_size = 0.0;
  };
  std::unordered_map<EntityId, Acc> candidates;
  for (const ProbeKey& key : keys) {
    const auto others =
        static_cast<double>(key.members->size() - (key.has_probe ? 1 : 0));
    for (EntityId j : *key.members) {
      if (exclude.has_value() && j == *exclude) continue;
      Acc& acc = candidates[j];
      acc.common += 1.0;
      acc.inv_cmp += 1.0 / key.as_if_comparisons;
      acc.inv_size += 1.0 / key.as_if_size;
      if (!key.has_probe) {
        acc.extra_comparisons += others;
        if (others == 1.0) {
          acc.extra_blocks += 1.0;
          acc.extra_inv_cmp += 1.0;   // ||{j, probe}|| = 1
          acc.extra_inv_size += 0.5;  // |{j, probe}| = 2
        }
      }
    }
  }

  const double probe_lcp = static_cast<double>(candidates.size());
  const bool need_ejs = model_.features.Contains(Feature::kEjs);
  const double pivot_log_ibf =
      pivot_blocks > 0.0 ? std::log(universe_blocks / pivot_blocks) : 0.0;
  const double pivot_log_ejs =
      need_ejs && pivot_comparisons > 0.0
          ? std::log(universe_comparisons / pivot_comparisons)
          : 0.0;

  std::vector<double> row(model_.features.Dimensions(), 0.0);
  static const EntityAggregates kNoAggregates{};
  for (const auto& [id, acc] : candidates) {
    auto cached = shard.aggregates.find(id);
    const EntityAggregates& resident =
        cached != shard.aggregates.end() ? cached->second : kNoAggregates;
    const double other_blocks =
        static_cast<double>(resident.num_blocks) + acc.extra_blocks;
    const double other_comparisons =
        resident.comparisons + acc.extra_comparisons;
    const double other_inv_cmp = resident.inv_comparisons + acc.extra_inv_cmp;
    const double other_inv_size = resident.inv_sizes + acc.extra_inv_size;
    // A resident probe is already in its neighbours' LCP counts.
    const double other_lcp = resident.lcp + (exclude.has_value() ? 0.0 : 1.0);

    size_t col = 0;
    for (Feature f : model_.features.Members()) {
      switch (f) {
        case Feature::kCfIbf:
          row[col++] = other_blocks > 0.0
                           ? acc.common * pivot_log_ibf *
                                 std::log(universe_blocks / other_blocks)
                           : 0.0;
          break;
        case Feature::kRaccb:
          row[col++] = acc.inv_cmp;
          break;
        case Feature::kJs: {
          const double denom = pivot_blocks + other_blocks - acc.common;
          row[col++] = denom > 0.0 ? acc.common / denom : 0.0;
          break;
        }
        case Feature::kLcp:
          row[col++] = probe_lcp;
          row[col++] = other_lcp;
          break;
        case Feature::kEjs: {
          const double denom = pivot_blocks + other_blocks - acc.common;
          const double js = denom > 0.0 ? acc.common / denom : 0.0;
          const double other_log =
              other_comparisons > 0.0
                  ? std::log(universe_comparisons / other_comparisons)
                  : 0.0;
          row[col++] = js * pivot_log_ejs * other_log;
          break;
        }
        case Feature::kWjs: {
          const double denom = pivot_inv_cmp + other_inv_cmp - acc.inv_cmp;
          row[col++] = denom > 0.0 ? acc.inv_cmp / denom : 0.0;
          break;
        }
        case Feature::kRs:
          row[col++] = acc.inv_size;
          break;
        case Feature::kNrs: {
          const double denom = pivot_inv_size + other_inv_size - acc.inv_size;
          row[col++] = denom > 0.0 ? acc.inv_size / denom : 0.0;
          break;
        }
      }
    }

    const double probability = model_.Predict(row.data());
    auto [slot, inserted] = best->try_emplace(id, probability);
    if (!inserted && probability > slot->second) slot->second = probability;
  }
}

std::vector<QueryMatch> MetaBlockingSession::QueryCandidates(
    const EntityProfile& probe, size_t max_results,
    std::optional<EntityId> exclude) const {
  // The latency histogram includes lock wait: that IS the serving tail.
  GSMB_SPAN("serve.query", "serve.query.latency_us");
  std::shared_lock<std::shared_mutex> lock(sync_->mutex);
  // Group the probe's tokens by owning shard; std::map keeps the shard
  // visit order deterministic.
  std::map<size_t, std::vector<std::string>> by_shard;
  for (std::string& token : TokensOf(probe)) {
    by_shard[ShardOf(token)].push_back(std::move(token));
  }

  std::unordered_map<EntityId, double> best;
  for (const auto& [shard_id, tokens] : by_shard) {
    QueryShard(shards_[shard_id], tokens, exclude, &best);
  }

  std::vector<QueryMatch> out;
  out.reserve(best.size());
  for (const auto& [id, probability] : best) {
    if (probability >= options_.validity_threshold) {
      out.push_back({id, probability});
    }
  }
  std::sort(out.begin(), out.end(), [](const QueryMatch& a,
                                       const QueryMatch& b) {
    return a.probability != b.probability ? a.probability > b.probability
                                          : a.id < b.id;
  });
  if (out.size() > max_results) out.resize(max_results);
  return out;
}

}  // namespace gsmb
