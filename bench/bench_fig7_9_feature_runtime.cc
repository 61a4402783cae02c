// Regenerates Figures 7 and 9: run-time of the top-10 feature sets for
// BLAST and RCNP over the two datasets with the most candidate pairs
// (Movies, WalmartAmazon). Feature extraction is re-done per set — that is
// the cost the figures compare (LCP-bearing sets pay the distinct-candidate
// sweep; LCP-free sets avoid it).

#include <cstdio>

#include "bench_common.h"
#include "util/stopwatch.h"

namespace {

using namespace gsmb;
using namespace gsmb::bench;

// The paper's top-10 lists (Tables 3 and 4), expressed as explicit sets.
std::vector<FeatureSet> BlastTop10() {
  using F = Feature;
  return {
      {F::kCfIbf, F::kRaccb, F::kJs, F::kRs},
      {F::kCfIbf, F::kRaccb, F::kJs, F::kNrs},
      {F::kCfIbf, F::kRaccb, F::kJs, F::kWjs},
      {F::kCfIbf, F::kRaccb, F::kRs, F::kNrs},  // Formula 1
      {F::kCfIbf, F::kRaccb, F::kRs, F::kWjs},
      {F::kCfIbf, F::kRaccb, F::kNrs, F::kWjs},
      {F::kCfIbf, F::kJs, F::kRs, F::kWjs},
      {F::kCfIbf, F::kJs, F::kNrs, F::kWjs},
      {F::kCfIbf, F::kRs, F::kNrs, F::kWjs},
      {F::kCfIbf, F::kRaccb, F::kJs, F::kRs, F::kNrs, F::kWjs},
  };
}

std::vector<FeatureSet> RcnpTop10() {
  using F = Feature;
  return {
      {F::kCfIbf, F::kRaccb, F::kJs, F::kLcp, F::kRs},
      {F::kCfIbf, F::kRaccb, F::kJs, F::kLcp, F::kWjs},  // Formula 2
      {F::kCfIbf, F::kRaccb, F::kLcp, F::kRs, F::kNrs},
      {F::kCfIbf, F::kJs, F::kLcp, F::kRs, F::kNrs},
      {F::kCfIbf, F::kRaccb, F::kJs, F::kLcp, F::kRs, F::kNrs},
      {F::kCfIbf, F::kRaccb, F::kJs, F::kLcp, F::kRs, F::kWjs},
      {F::kCfIbf, F::kRaccb, F::kJs, F::kLcp, F::kNrs, F::kWjs},
      {F::kCfIbf, F::kRaccb, F::kLcp, F::kRs, F::kNrs, F::kWjs},
      {F::kCfIbf, F::kJs, F::kLcp, F::kRs, F::kNrs, F::kWjs},
      {F::kCfIbf, F::kRaccb, F::kJs, F::kLcp, F::kRs, F::kNrs, F::kWjs},
  };
}

void TimeSets(const PreparedDataset& dataset, PruningKind kind,
              const std::vector<FeatureSet>& sets, TablePrinter* table) {
  const std::vector<CandidatePair> pairs =
      GenerateCandidatePairs(*dataset.index);
  for (const FeatureSet& set : sets) {
    double total = 0.0;
    for (size_t rep = 0; rep < Seeds(); ++rep) {
      MetaBlockingConfig config;
      config.pruning = kind;
      config.features = set;
      config.train_per_class = 250;
      config.seed = rep;
      MetaBlockingResult result = RunMetaBlocking(dataset, pairs, config);
      total += result.total_seconds;
    }
    table->AddRow({std::to_string(set.Id()), set.ToString(),
                   TablePrinter::Fixed(total / Seeds() * 1e3, 1)});
  }
}

void RunFigure(const char* figure, PruningKind kind,
               const std::vector<FeatureSet>& sets,
               const std::vector<PreparedDataset>& datasets) {
  for (const PreparedDataset& dataset : datasets) {
    TablePrinter table({"ID", "Feature set", "mean RT (ms)"});
    TimeSets(dataset, kind, sets, &table);
    std::printf("%s — %s on %s (|C| = %s):\n%s\n", figure,
                PruningKindName(kind), dataset.name.c_str(),
                TablePrinter::Count(dataset.num_candidates()).c_str(),
                table.ToString().c_str());
  }
}

}  // namespace

int main() {
  PrintBanner("Run-time of the top-10 feature sets", "Figures 7 and 9");

  std::vector<PreparedDataset> datasets;
  datasets.push_back(PrepareByName("Movies"));
  datasets.push_back(PrepareByName("WalmartAmazon"));

  RunFigure("Figure 7", PruningKind::kBlast, BlastTop10(), datasets);
  RunFigure("Figure 9", PruningKind::kRcnp, RcnpTop10(), datasets);

  std::printf(
      "Expected shape: all BLAST sets are LCP-free and fast; every RCNP set "
      "carries\nLCP and pays a consistent premium (the paper reports 2-3x "
      "on its Spark\nsubstrate; our single-node LCP sweep is cheaper). "
      "Within each group the\ndifferences are small.\n");
  return 0;
}
