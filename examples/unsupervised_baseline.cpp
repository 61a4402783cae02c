// Unsupervised Meta-blocking baseline — the classic, zero-label approach
// the paper generalises — compared head-to-head against supervised BLAST
// on the same block collection.
//
// Also demonstrates the library on the paper's own running example: the
// seven smartphone profiles of Figure 1, pruned with CBS weights.
//
// Build & run:  ./build/examples/unsupervised_baseline

#include <cstdio>

#include "core/pipeline.h"
#include "core/unsupervised.h"
#include "datasets/clean_clean_generator.h"
#include "datasets/specs.h"
#include "schemes/scheme_registry.h"

namespace {

using namespace gsmb;

void PaperRunningExample() {
  EntityCollection phones("figure-1");
  auto add = [&](const char* id, const char* text) {
    EntityProfile p(id);
    p.AddAttribute("text", text);
    phones.Add(std::move(p));
  };
  add("e1", "Apple iPhone X Smartphone");
  add("e2", "Samsung S20 smartphone");
  add("e3", "iPhone 10 smartphone Apple");
  add("e4", "Samsung 20 smartphone");
  add("e5", "Huawei Mate 20 smartphone");
  add("e6", "Samsung Fold foldable mate phone");
  add("e7", "Samsung foldable mate phone 20 fold");

  JobInputs inputs;
  inputs.e1 = phones;
  inputs.dirty = true;
  inputs.ground_truth = GroundTruth(/*dirty=*/true);
  inputs.ground_truth.AddMatch(0, 2);  // e1 = e3
  inputs.ground_truth.AddMatch(1, 3);  // e2 = e4
  inputs.ground_truth.AddMatch(5, 6);  // e6 = e7

  // Figure 1's raw Token Blocking blocks: a purge fraction and filter
  // ratio of 1 switch both preprocessing steps off.
  BlockingSpec raw_tokens;
  raw_tokens.purge_size_fraction = 1.0;
  raw_tokens.filter_ratio = 1.0;
  PreparedDataset prep =
      schemes::PrepareInputs(inputs, raw_tokens, 1, "figure-1");
  const std::vector<CandidatePair> pairs = GenerateCandidatePairs(*prep.index);
  std::printf("Figure 1 example: %zu blocks, %zu candidate pairs\n",
              prep.blocks.size(), pairs.size());

  PruningContext ctx = PruningContext::FromIndex(*prep.index, prep.stats);
  auto retained = UnsupervisedMetaBlocking(
      *prep.index, pairs, EdgeWeightScheme::kCbs, PruningKind::kWnp,
      ctx);
  std::printf("Unsupervised WNP (CBS weights) keeps %zu pairs:\n",
              retained.size());
  for (uint32_t idx : retained) {
    const CandidatePair& p = pairs[idx];
    std::printf("  (%s, %s)%s\n", phones[p.left].external_id().c_str(),
                phones[p.right].external_id().c_str(),
                prep.ground_truth.IsMatch(p.left, p.right) ? "  <- match"
                                                           : "");
  }
}

}  // namespace

int main() {
  using namespace gsmb;
  PaperRunningExample();

  // ---- Supervised vs unsupervised on a realistic dataset. ----
  CleanCleanSpec spec = CleanCleanSpecByName("ImdbTmdb", /*scale=*/0.125);
  GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
  JobInputs inputs;
  inputs.e1 = std::move(data.e1);
  inputs.e2 = std::move(data.e2);
  inputs.ground_truth = std::move(data.ground_truth);
  PreparedDataset prep =
      schemes::PrepareInputs(inputs, BlockingSpec{}, 1, spec.name);
  const std::vector<CandidatePair> pairs = GenerateCandidatePairs(*prep.index);
  std::printf("\n%s: %zu candidate pairs, blocking recall %.3f\n",
              prep.name.c_str(), pairs.size(),
              prep.blocking_quality.recall);

  PruningContext ctx = PruningContext::FromIndex(*prep.index, prep.stats);
  std::printf("\n%-28s %-8s %-9s %-6s\n", "Configuration", "recall",
              "precision", "F1");
  for (EdgeWeightScheme scheme :
       {EdgeWeightScheme::kCbs, EdgeWeightScheme::kJs,
        EdgeWeightScheme::kRaccb, EdgeWeightScheme::kWjs}) {
    auto retained = UnsupervisedMetaBlocking(*prep.index, pairs, scheme,
                                             PruningKind::kWnp, ctx);
    EffectivenessMetrics m = EvaluateRetained(retained, prep.positive_indices,
                                              prep.ground_truth.size());
    std::printf("unsupervised WNP + %-6s    %.4f   %.4f    %.4f\n",
                EdgeWeightSchemeName(scheme), m.recall, m.precision, m.f1);
  }

  MetaBlockingConfig config;
  config.pruning = PruningKind::kWnp;
  config.features = FeatureSet::BlastOptimal();
  config.train_per_class = 25;
  MetaBlockingResult sup = RunMetaBlocking(prep, pairs, config);
  std::printf("supervised   WNP (50 labels)  %.4f   %.4f    %.4f\n",
              sup.metrics.recall, sup.metrics.precision, sup.metrics.f1);

  std::printf("\nCombining schemes through a classifier beats any single "
              "scheme — the\npaper's core motivation for (Generalized) "
              "Supervised Meta-blocking.\n");
  return 0;
}
