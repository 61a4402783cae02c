// FeatureExtractor: computes the weighting-scheme features of every
// candidate pair (paper Section 4).
//
// Definitions, with B_i the blocks of e_i, |b| the entities in block b and
// ||b|| the comparisons in block b (including redundant ones):
//
//   CF-IBF(i,j) = |B_i ∩ B_j| · log(|B|/|B_i|) · log(|B|/|B_j|)
//   RACCB(i,j)  = Σ_{b ∈ B_i ∩ B_j} 1/||b||
//   JS(i,j)     = |B_i ∩ B_j| / (|B_i| + |B_j| - |B_i ∩ B_j|)
//   LCP(e)      = |{ e_j : j ≠ i, |B_i ∩ B_j| > 0 }|   (two dims per pair)
//   EJS(i,j)    = JS(i,j) · log(||B||/||e_i||) · log(||B||/||e_j||)
//   WJS(i,j)    = Σ_{∩} 1/||b|| / (Σ_{B_i} 1/||b|| + Σ_{B_j} 1/||b|| - Σ_{∩} 1/||b||)
//   RS(i,j)     = Σ_{b ∈ B_i ∩ B_j} 1/|b|
//   NRS(i,j)    = Σ_{∩} 1/|b| / (Σ_{B_i} 1/|b| + Σ_{B_j} 1/|b| - Σ_{∩} 1/|b|)
//
// Everything except LCP is produced by one sweep that accumulates, per pivot
// entity, the per-neighbour sums (|B_i ∩ B_j|, Σ1/||b||, Σ1/|b|) over its
// blocks — O(Σ||b||) total. LCP deliberately pays the extra per-entity
// distinct-candidate pass the paper describes as its cost, so feature-set
// runtime comparisons (Figs. 7/9/10) reproduce the paper's shape.
//
// The sweep parallelises over pivot-entity groups (each group's rows are
// disjoint), so multi-threaded extraction is bit-identical to serial.

#ifndef GSMB_CORE_FEATURES_H_
#define GSMB_CORE_FEATURES_H_

#include <utility>
#include <vector>

#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "core/feature_set.h"
#include "util/matrix.h"

namespace gsmb {

class FeatureExtractor {
 public:
  /// `pairs` must come from GenerateCandidatePairs(index) (grouped by left
  /// entity ascending, neighbours ascending) — row r of every produced
  /// matrix describes pairs[r].
  FeatureExtractor(const EntityIndex& index,
                   const std::vector<CandidatePair>& pairs);

  /// Features of `set`, one row per pair; columns follow
  /// set.FullMatrixColumns() order. Only the requested schemes are
  /// computed. `num_threads` > 1 parallelises over pivot groups with
  /// bit-identical results.
  ///
  /// `precomputed_lcp` (optional) supplies the per-entity LCP values of
  /// ComputeLcpPerEntity() so repeated Compute() calls over slices of the
  /// same index — the streaming executor's per-shard sweeps — pay the
  /// O(Σ||b||) LCP pass once instead of once per slice. Ignored when the
  /// set does not contain LCP.
  Matrix Compute(const FeatureSet& set, size_t num_threads = 1,
                 const std::vector<double>* precomputed_lcp = nullptr) const;

  /// All nine canonical columns (see FeatureSet::FullMatrixColumns()).
  Matrix ComputeAll(size_t num_threads = 1) const {
    return Compute(FeatureSet::All(), num_threads);
  }

  /// LCP values per *global* entity id; computed on demand by Compute() but
  /// exposed for tests and diagnostics. Cost: one distinct-candidate sweep,
  /// counted in the `features.lcp.entries` telemetry counter as the block
  /// entries it visits: |b| per block of a Dirty ER entity, the opposite
  /// side's members of b for a Clean-Clean one.
  std::vector<double> ComputeLcpPerEntity(size_t num_threads = 1) const;

 private:
  /// Contiguous [begin, end) row ranges sharing one pivot (left) entity.
  std::vector<std::pair<size_t, size_t>> PivotGroups() const;

  /// Fills the rows of one pivot group. `accumulators` is a per-thread
  /// NeighbourAccumulators instance (type-erased to keep it out of the
  /// header).
  void ComputeGroup(const FeatureSet& set, size_t group_begin,
                    size_t group_end, const std::vector<double>& lcp,
                    void* accumulators, Matrix* out) const;

  const EntityIndex& index_;
  const std::vector<CandidatePair>& pairs_;
};

}  // namespace gsmb

#endif  // GSMB_CORE_FEATURES_H_
