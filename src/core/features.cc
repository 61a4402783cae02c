#include "core/features.h"

#include <cassert>
#include <cmath>

#include "gsmb/telemetry.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

// Epoch-marked per-neighbour accumulators, reused across pivot entities so
// no allocation happens inside the sweep. One instance per worker thread.
struct NeighbourAccumulators {
  explicit NeighbourAccumulators(size_t num_entities)
      : epoch_of(num_entities, 0),
        common(num_entities, 0.0),
        inv_comparisons(num_entities, 0.0),
        inv_sizes(num_entities, 0.0) {}

  void BeginPivot() { ++epoch; }

  void Touch(uint32_t g) {
    if (epoch_of[g] != epoch) {
      epoch_of[g] = epoch;
      common[g] = 0.0;
      inv_comparisons[g] = 0.0;
      inv_sizes[g] = 0.0;
    }
  }

  uint32_t epoch = 0;
  std::vector<uint32_t> epoch_of;
  std::vector<double> common;           // |B_i ∩ B_j|
  std::vector<double> inv_comparisons;  // Σ 1/||b|| over common blocks
  std::vector<double> inv_sizes;        // Σ 1/|b|  over common blocks
};

}  // namespace

FeatureExtractor::FeatureExtractor(const EntityIndex& index,
                                   const std::vector<CandidatePair>& pairs)
    : index_(index), pairs_(pairs) {}

std::vector<double> FeatureExtractor::ComputeLcpPerEntity(
    size_t num_threads) const {
  const size_t n = index_.num_entities();
  std::vector<double> lcp(n, 0.0);
  ParallelFor(n, num_threads, [&](size_t begin, size_t end) {
    std::vector<uint32_t> last_seen(n, 0);
    uint32_t epoch = 0;
    uint64_t visited = 0;  // entity-block entries swept, for the counter
    for (size_t e = begin; e < end; ++e) {
      ++epoch;
      size_t count = 0;
      const bool left_side = !index_.clean_clean() || e < index_.num_left();
      for (uint32_t bid : index_.BlocksOf(e)) {
        // Candidates of a left entity are the right members and vice
        // versa; for Dirty ER every co-occurring entity is a candidate.
        if (index_.clean_clean()) {
          auto others = left_side ? index_.BlockRightGlobals(bid)
                                  : index_.BlockLeftGlobals(bid);
          visited += others.size();
          for (uint32_t g : others) {
            if (last_seen[g] != epoch) {
              last_seen[g] = epoch;
              ++count;
            }
          }
        } else {
          visited += index_.BlockLeftGlobals(bid).size();
          for (uint32_t g : index_.BlockLeftGlobals(bid)) {
            if (g != e && last_seen[g] != epoch) {
              last_seen[g] = epoch;
              ++count;
            }
          }
        }
      }
      lcp[e] = static_cast<double>(count);
    }
    obs::CounterAdd("features.lcp.entries", visited);
  });
  return lcp;
}

std::vector<std::pair<size_t, size_t>> FeatureExtractor::PivotGroups() const {
  std::vector<std::pair<size_t, size_t>> groups;
  size_t row = 0;
  while (row < pairs_.size()) {
    size_t end = row;
    const EntityId pivot = pairs_[row].left;
    while (end < pairs_.size() && pairs_[end].left == pivot) ++end;
    groups.push_back({row, end});
    row = end;
  }
  return groups;
}

void FeatureExtractor::ComputeGroup(const FeatureSet& set, size_t group_begin,
                                    size_t group_end,
                                    const std::vector<double>& lcp,
                                    void* accumulators, Matrix* out) const {
  auto& acc = *static_cast<NeighbourAccumulators*>(accumulators);
  const bool need_cfibf = set.Contains(Feature::kCfIbf);
  const bool need_ejs = set.Contains(Feature::kEjs);
  const double num_blocks = static_cast<double>(index_.num_blocks());
  const double total_comparisons = index_.TotalComparisons();
  const size_t right_offset = index_.num_left();

  const size_t pivot = pairs_[group_begin].left;  // left global == local

  // Accumulate per-neighbour sums over the pivot's blocks.
  acc.BeginPivot();
  for (uint32_t bid : index_.BlocksOf(pivot)) {
    const double inv_cmp = index_.BlockComparisons(bid) > 0.0
                               ? 1.0 / index_.BlockComparisons(bid)
                               : 0.0;
    const double inv_size = 1.0 / static_cast<double>(index_.BlockSize(bid));
    auto others = index_.clean_clean() ? index_.BlockRightGlobals(bid)
                                       : index_.BlockLeftGlobals(bid);
    for (uint32_t g : others) {
      if (!index_.clean_clean() && g == pivot) continue;
      acc.Touch(g);
      acc.common[g] += 1.0;
      acc.inv_comparisons[g] += inv_cmp;
      acc.inv_sizes[g] += inv_size;
    }
  }

  const double pivot_blocks = static_cast<double>(index_.NumBlocksOf(pivot));
  const double pivot_log_ibf =
      need_cfibf ? std::log(num_blocks / pivot_blocks) : 0.0;
  const double pivot_log_ejs =
      need_ejs && index_.EntityComparisons(pivot) > 0.0
          ? std::log(total_comparisons / index_.EntityComparisons(pivot))
          : 0.0;
  const double pivot_inv_cmp = index_.SumInvBlockComparisons(pivot);
  const double pivot_inv_size = index_.SumInvBlockSizes(pivot);

  for (size_t row = group_begin; row < group_end; ++row) {
    const CandidatePair& p = pairs_[row];
    const size_t other = index_.clean_clean()
                             ? right_offset + p.right
                             : static_cast<size_t>(p.right);
    assert(acc.epoch_of[other] == acc.epoch &&
           "pair not implied by the entity index");

    const double common = acc.common[other];
    const double common_inv_cmp = acc.inv_comparisons[other];
    const double common_inv_size = acc.inv_sizes[other];
    const double other_blocks = static_cast<double>(index_.NumBlocksOf(other));

    double* dst = out->Row(row);
    size_t col = 0;
    for (Feature f : set.Members()) {
      switch (f) {
        case Feature::kCfIbf:
          dst[col++] =
              common * pivot_log_ibf * std::log(num_blocks / other_blocks);
          break;
        case Feature::kRaccb:
          dst[col++] = common_inv_cmp;
          break;
        case Feature::kJs:
          dst[col++] = common / (pivot_blocks + other_blocks - common);
          break;
        case Feature::kLcp:
          dst[col++] = lcp[pivot];
          dst[col++] = lcp[other];
          break;
        case Feature::kEjs: {
          const double js = common / (pivot_blocks + other_blocks - common);
          const double other_log =
              index_.EntityComparisons(other) > 0.0
                  ? std::log(total_comparisons /
                             index_.EntityComparisons(other))
                  : 0.0;
          dst[col++] = js * pivot_log_ejs * other_log;
          break;
        }
        case Feature::kWjs: {
          const double denom = pivot_inv_cmp +
                               index_.SumInvBlockComparisons(other) -
                               common_inv_cmp;
          dst[col++] = denom > 0.0 ? common_inv_cmp / denom : 0.0;
          break;
        }
        case Feature::kRs:
          dst[col++] = common_inv_size;
          break;
        case Feature::kNrs: {
          const double denom = pivot_inv_size +
                               index_.SumInvBlockSizes(other) -
                               common_inv_size;
          dst[col++] = denom > 0.0 ? common_inv_size / denom : 0.0;
          break;
        }
      }
    }
  }
}

Matrix FeatureExtractor::Compute(const FeatureSet& set, size_t num_threads,
                                 const std::vector<double>* precomputed_lcp)
    const {
  assert(!set.empty());
  const std::vector<size_t> layout = set.FullMatrixColumns();
  Matrix out(pairs_.size(), layout.size());
  if (pairs_.empty()) return out;

  std::vector<double> lcp_local;
  const std::vector<double>* lcp = &lcp_local;
  if (set.Contains(Feature::kLcp)) {
    if (precomputed_lcp != nullptr) {
      assert(precomputed_lcp->size() == index_.num_entities());
      lcp = precomputed_lcp;
    } else {
      lcp_local = ComputeLcpPerEntity(num_threads);
    }
  }

  const std::vector<std::pair<size_t, size_t>> groups = PivotGroups();
  ParallelFor(groups.size(), num_threads, [&](size_t begin, size_t end) {
    NeighbourAccumulators acc(index_.num_entities());
    for (size_t g = begin; g < end; ++g) {
      ComputeGroup(set, groups[g].first, groups[g].second, *lcp, &acc, &out);
    }
  });
  return out;
}

}  // namespace gsmb
