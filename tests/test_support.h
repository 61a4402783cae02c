// Shared fixtures for the GSMB test suite.

#ifndef GSMB_TESTS_TEST_SUPPORT_H_
#define GSMB_TESTS_TEST_SUPPORT_H_

#include <vector>

#include "blocking/block_collection.h"
#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "core/pipeline.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"
#include "gsmb/job_spec.h"

namespace gsmb::testing {

/// The running example of the paper's Figure 1: seven smartphone profiles
/// (Dirty ER) and the eight Token Blocking blocks
///   b1(apple):      e1 e3
///   b2(iphone):     e1 e3
///   b3(samsung):    e2 e4 e6 e7
///   b4(20):         e4 e5 e7
///   b5(smartphone): e1 e2 e3 e4 e5
///   b6(mate):       e6 e7
///   b7(phone):      e6 e7
///   b8(fold):       e6 e7
/// Entity ids are 0-based (paper's e1 == id 0). Ground truth: (e1,e3),
/// (e2,e4), (e6,e7).
BlockCollection PaperExampleBlocks();

/// Ground truth matching PaperExampleBlocks() (Dirty semantics, 0-based).
GroundTruth PaperExampleGroundTruth();

/// A small Clean-Clean pair of collections with fully known tokens:
///   E1: a0{"alpha beta"}, a1{"gamma delta"}, a2{"alpha unique1"}
///   E2: b0{"alpha beta"}, b1{"gamma epsilon"}, b2{"zeta eta"}
/// Matches: (a0, b0), (a1, b1).
struct TinyCleanClean {
  EntityCollection e1;
  EntityCollection e2;
  GroundTruth gt;
};
TinyCleanClean MakeTinyCleanClean();

/// Raw (pre-purging/filtering) blocks of a registered scheme over two
/// clean collections / one dirty collection, built through the scheme
/// registry: FindBlocker(blocking.scheme)->Build.
BlockCollection SchemeBlocks(const EntityCollection& e1,
                             const EntityCollection& e2,
                             const BlockingSpec& blocking = {},
                             size_t num_threads = 1);
BlockCollection SchemeBlocks(const EntityCollection& e,
                             const BlockingSpec& blocking = {},
                             size_t num_threads = 1);

/// `scheme` with its per-scheme params left at their defaults.
BlockingSpec Scheme(const char* scheme);

/// A prepared medium synthetic Clean-Clean dataset for pipeline tests
/// (cached across tests — preparation is deterministic).
const PreparedDataset& MediumDataset();

/// A prepared small Dirty dataset.
const PreparedDataset& SmallDirtyDataset();

/// The materialised candidate pairs of MediumDataset() and
/// SmallDirtyDataset() (GenerateCandidatePairs over their index, cached).
const std::vector<CandidatePair>& MediumPairs();
const std::vector<CandidatePair>& SmallDirtyPairs();

/// Builds candidate pairs (left < right grouped) and a context for a
/// synthetic pruning graph over `num_nodes` dirty-ER nodes.
struct PruningFixture {
  std::vector<CandidatePair> pairs;
  std::vector<double> probs;
  PruningContext context;
};

/// Deterministic random pruning graph: every node pair is a candidate with
/// probability `density`; probabilities uniform in [0,1].
PruningFixture RandomPruningGraph(size_t num_nodes, double density,
                                  uint64_t seed);

/// The block entries one FeatureExtractor::ComputeLcpPerEntity sweep
/// visits, counted straight from the index: Σ over entities of Σ|b| over
/// their blocks, where a Clean-Clean entity only visits the opposite
/// side's members of b. The `features.lcp.entries` counter must advance by
/// exactly this much per LCP sweep.
uint64_t LcpSweepEntries(const EntityIndex& index);

}  // namespace gsmb::testing

#endif  // GSMB_TESTS_TEST_SUPPORT_H_
