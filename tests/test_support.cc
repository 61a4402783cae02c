#include "test_support.h"

#include <stdexcept>

#include "datasets/clean_clean_generator.h"
#include "datasets/dirty_generator.h"
#include "datasets/specs.h"
#include "schemes/scheme_registry.h"
#include "util/random.h"

namespace gsmb::testing {

BlockCollection PaperExampleBlocks() {
  // Dirty ER over 7 entities (paper ids e1..e7 -> 0..6).
  BlockCollection bc(/*clean_clean=*/false, /*num_left=*/7, /*num_right=*/0);
  auto add = [&](const char* key, std::vector<EntityId> members) {
    Block b;
    b.key = key;
    b.left = std::move(members);
    bc.Add(std::move(b));
  };
  add("apple", {0, 2});
  add("iphone", {0, 2});
  add("samsung", {1, 3, 5, 6});
  add("20", {3, 4, 6});
  add("smartphone", {0, 1, 2, 3, 4});
  add("mate", {5, 6});
  add("phone", {5, 6});
  add("fold", {5, 6});
  return bc;
}

GroundTruth PaperExampleGroundTruth() {
  GroundTruth gt(/*dirty=*/true);
  gt.AddMatch(0, 2);
  gt.AddMatch(1, 3);
  gt.AddMatch(5, 6);
  return gt;
}

TinyCleanClean MakeTinyCleanClean() {
  TinyCleanClean t;
  auto add = [](EntityCollection& c, const char* id, const char* value) {
    EntityProfile p(id);
    p.AddAttribute("text", value);
    return c.Add(std::move(p));
  };
  EntityId a0 = add(t.e1, "a0", "alpha beta");
  EntityId a1 = add(t.e1, "a1", "gamma delta");
  add(t.e1, "a2", "alpha unique1");
  EntityId b0 = add(t.e2, "b0", "alpha beta");
  EntityId b1 = add(t.e2, "b1", "gamma epsilon");
  add(t.e2, "b2", "zeta eta");
  t.gt.AddMatch(a0, b0);
  t.gt.AddMatch(a1, b1);
  return t;
}

namespace {

BlockCollection BuildWithScheme(const JobInputs& inputs,
                                const BlockingSpec& blocking,
                                size_t num_threads) {
  const schemes::Blocker* blocker = schemes::FindBlocker(blocking.scheme);
  if (blocker == nullptr) {
    throw std::invalid_argument("unknown scheme " + blocking.scheme);
  }
  return blocker->Build(inputs, blocking, num_threads);
}

}  // namespace

BlockCollection SchemeBlocks(const EntityCollection& e1,
                             const EntityCollection& e2,
                             const BlockingSpec& blocking,
                             size_t num_threads) {
  JobInputs inputs;
  inputs.e1 = e1;
  inputs.e2 = e2;
  return BuildWithScheme(inputs, blocking, num_threads);
}

BlockCollection SchemeBlocks(const EntityCollection& e,
                             const BlockingSpec& blocking,
                             size_t num_threads) {
  JobInputs inputs;
  inputs.e1 = e;
  inputs.dirty = true;
  return BuildWithScheme(inputs, blocking, num_threads);
}

BlockingSpec Scheme(const char* scheme) {
  BlockingSpec blocking;
  blocking.scheme = scheme;
  return blocking;
}

const PreparedDataset& MediumDataset() {
  static const PreparedDataset* dataset = [] {
    CleanCleanSpec spec = CleanCleanSpecByName("DblpAcm", /*scale=*/0.25);
    GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
    JobInputs inputs;
    inputs.e1 = std::move(data.e1);
    inputs.e2 = std::move(data.e2);
    inputs.ground_truth = std::move(data.ground_truth);
    return new PreparedDataset(
        schemes::PrepareInputs(inputs, BlockingSpec{}, 1, spec.name));
  }();
  return *dataset;
}

const PreparedDataset& SmallDirtyDataset() {
  static const PreparedDataset* dataset = [] {
    DirtySpec spec;
    spec.name = "DirtyTest";
    spec.num_entities = 1200;
    spec.seed = 99;
    GeneratedDirty data = DirtyGenerator().Generate(spec);
    JobInputs inputs;
    inputs.e1 = std::move(data.entities);
    inputs.dirty = true;
    inputs.ground_truth = std::move(data.ground_truth);
    return new PreparedDataset(
        schemes::PrepareInputs(inputs, BlockingSpec{}, 1, spec.name));
  }();
  return *dataset;
}

const std::vector<CandidatePair>& MediumPairs() {
  static const auto* pairs = new std::vector<CandidatePair>(
      GenerateCandidatePairs(*MediumDataset().index));
  return *pairs;
}

const std::vector<CandidatePair>& SmallDirtyPairs() {
  static const auto* pairs = new std::vector<CandidatePair>(
      GenerateCandidatePairs(*SmallDirtyDataset().index));
  return *pairs;
}

PruningFixture RandomPruningGraph(size_t num_nodes, double density,
                                  uint64_t seed) {
  PruningFixture f;
  Rng rng(seed);
  for (size_t i = 0; i < num_nodes; ++i) {
    for (size_t j = i + 1; j < num_nodes; ++j) {
      if (!rng.NextBool(density)) continue;
      f.pairs.push_back(
          {static_cast<EntityId>(i), static_cast<EntityId>(j)});
      f.probs.push_back(rng.NextDouble());
    }
  }
  f.context.num_nodes = num_nodes;
  f.context.right_offset = 0;
  f.context.validity_threshold = 0.5;
  f.context.cep_k = static_cast<double>(f.pairs.size()) / 3.0;
  f.context.cnp_k = 2.0;
  return f;
}

uint64_t LcpSweepEntries(const EntityIndex& index) {
  uint64_t entries = 0;
  for (size_t e = 0; e < index.num_entities(); ++e) {
    for (uint32_t bid : index.BlocksOf(e)) {
      if (!index.clean_clean()) {
        entries += index.BlockSize(bid);
      } else if (e < index.num_left()) {
        entries += index.BlockRightGlobals(bid).size();
      } else {
        entries += index.BlockLeftGlobals(bid).size();
      }
    }
  }
  return entries;
}

}  // namespace gsmb::testing
