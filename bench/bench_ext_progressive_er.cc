// EXTENSION (paper Section 7, future work): Progressive ER driven by the
// probabilities of Generalized Supervised Meta-blocking. Emits candidates
// in decreasing match probability and reports the recall-vs-budget curve
// and its AUC, against a random-order baseline and the classic CBS-weight
// ordering.

#include <cstdio>

#include "bench_common.h"
#include "core/progressive.h"
#include "core/unsupervised.h"
#include "util/random.h"

int main() {
  using namespace gsmb;
  using namespace gsmb::bench;
  PrintBanner("Progressive ER schedules (extension)",
              "Section 7 future work — not a paper table");

  for (const char* name : {"DblpAcm", "ImdbTmdb", "Movies"}) {
    PreparedDataset prep = PrepareByName(name);
    const std::vector<CandidatePair> pairs =
        GenerateCandidatePairs(*prep.index);
    const std::vector<uint8_t> is_positive = PositiveMask(prep);

    // GSMB probabilities (BLAST feature set, 50 labels).
    MetaBlockingConfig config;
    config.features = FeatureSet::BlastOptimal();
    config.train_per_class = 25;
    config.keep_probabilities = true;
    MetaBlockingResult result = RunMetaBlocking(prep, pairs, config);
    auto gsmb_schedule = ProgressiveSchedule(result.probabilities);

    // Unsupervised CBS-weight ordering.
    auto cbs =
        ComputeEdgeWeights(*prep.index, pairs, EdgeWeightScheme::kCbs);
    auto cbs_schedule = ProgressiveSchedule(cbs);

    // Shuffled baseline (deterministic seed).
    std::vector<uint32_t> random_schedule(pairs.size());
    for (uint32_t i = 0; i < random_schedule.size(); ++i) {
      random_schedule[i] = i;
    }
    Rng rng(7);
    rng.Shuffle(&random_schedule);

    const size_t d = prep.ground_truth.size();
    std::printf("%s (|C| = %s, |D| = %s):\n", name,
                TablePrinter::Count(pairs.size()).c_str(),
                TablePrinter::Count(d).c_str());
    std::printf("  AUC  gsmb %.4f | cbs %.4f | random %.4f\n",
                ProgressiveAuc(gsmb_schedule, is_positive, d),
                ProgressiveAuc(cbs_schedule, is_positive, d),
                ProgressiveAuc(random_schedule, is_positive, d));

    auto curve = ProgressiveRecallCurve(gsmb_schedule, is_positive, d,
                                        /*curve_points=*/10);
    std::printf("  gsmb recall@budget:");
    for (const ProgressivePoint& p : curve) {
      std::printf(" %.0f%%:%.3f",
                  100.0 * static_cast<double>(p.emitted) /
                      static_cast<double>(pairs.size()),
                  p.recall);
    }
    std::printf("\n\n");
  }
  std::printf("Expected shape: the GSMB schedule front-loads duplicates "
              "(high AUC, steep\nearly recall); CBS is decent; random is "
              "the diagonal.\n");
  return 0;
}
