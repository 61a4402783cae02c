// Feature-selection tour: the Section 5.3 brute-force sweep, scaled down to
// one dataset, plus the run-time trade-off that decides the winner.
//
// Shows how to (a) enumerate all 255 feature subsets, (b) evaluate them
// cheaply by slicing one precomputed 9-column matrix, and (c) measure the
// honest per-set extraction cost (LCP is the expensive one).
//
// Build & run:  ./build/examples/feature_selection_tour

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/pipeline.h"
#include "datasets/clean_clean_generator.h"
#include "datasets/specs.h"
#include "eval/metrics.h"
#include "schemes/scheme_registry.h"
#include "util/stopwatch.h"

int main() {
  using namespace gsmb;

  CleanCleanSpec spec = CleanCleanSpecByName("DblpAcm", /*scale=*/0.25);
  GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
  JobInputs inputs;
  inputs.e1 = std::move(data.e1);
  inputs.e2 = std::move(data.e2);
  inputs.ground_truth = std::move(data.ground_truth);
  PreparedDataset prep =
      schemes::PrepareInputs(inputs, BlockingSpec{}, 1, spec.name);
  const std::vector<CandidatePair> pairs = GenerateCandidatePairs(*prep.index);
  std::printf("Dataset %s: %zu candidate pairs\n\n", prep.name.c_str(),
              pairs.size());

  // ---- (a)+(b): sweep all 255 subsets via column slicing. ----
  FeatureExtractor extractor(*prep.index, pairs);
  Matrix full = extractor.ComputeAll();

  struct Entry {
    FeatureSet set;
    double f1;
  };
  std::vector<Entry> entries;
  for (const FeatureSet& set : FeatureSet::EnumerateAll()) {
    Matrix features = full.SelectColumns(set.FullMatrixColumns());
    MetricsAccumulator acc;
    for (uint64_t seed = 0; seed < 3; ++seed) {
      MetaBlockingConfig config;
      config.pruning = PruningKind::kBlast;
      config.features = set;
      config.train_per_class = 25;
      config.seed = seed;
      acc.Add(RunMetaBlockingWithFeatures(prep, pairs, config, features));
    }
    entries.push_back({set, acc.Summary().f1});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.f1 > b.f1; });

  std::printf("Top-5 feature sets for BLAST on %s:\n", prep.name.c_str());
  for (size_t i = 0; i < 5; ++i) {
    std::printf("  %d. F1 = %.4f  %s\n", static_cast<int>(i + 1),
                entries[i].f1, entries[i].set.ToString().c_str());
  }

  // ---- (c): the run-time side — why the paper picks an LCP-free set. ----
  auto time_extraction = [&](const FeatureSet& set) {
    Stopwatch watch;
    Matrix m = extractor.Compute(set);
    (void)m;
    return watch.ElapsedMillis();
  };
  double with_lcp = time_extraction(FeatureSet::Paper2014());
  double without_lcp = time_extraction(FeatureSet::BlastOptimal());
  std::printf(
      "\nFeature extraction cost on %zu pairs:\n"
      "  %-28s %.2f ms   (carries LCP)\n"
      "  %-28s %.2f ms   (LCP-free: %.1fx faster)\n",
      pairs.size(), FeatureSet::Paper2014().ToString().c_str(), with_lcp,
      FeatureSet::BlastOptimal().ToString().c_str(), without_lcp,
      with_lcp / without_lcp);

  std::printf("\nThe effectiveness spread across the top sets is tiny — "
              "pick by run-time,\nexactly as the paper does in Section "
              "5.3.\n");
  return 0;
}
