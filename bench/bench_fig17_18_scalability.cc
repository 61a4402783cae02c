// Regenerates Figures 17 and 18: the scalability study over the synthetic
// Dirty ER datasets D10K..D300K with logistic regression.
//   Fig. 17 — effectiveness of BCl/BLAST (weight-based) and CNP/RCNP
//             (cardinality-based); baselines use the 2014 recipe, ours use
//             the new formulas with 50 labels.
//   Fig. 18 — speedup = (|C2|/|C1|) * (RT1/RT2) relative to D10K; values
//             near 1 mean linear scaling.

#include <cstdio>

#include "bench_common.h"
#include "datasets/specs.h"
#include "ml/sampler.h"

namespace {

using namespace gsmb;
using namespace gsmb::bench;

struct AlgoSpec {
  const char* label;
  PruningKind kind;
  bool new_recipe;  // Formula features + 50 labels vs 2014 recipe
  FeatureSet features;
};

MetaBlockingConfig ConfigFor(const AlgoSpec& algo,
                             const PreparedDataset& dataset) {
  MetaBlockingConfig config;
  config.classifier = ClassifierKind::kLogisticRegression;
  config.pruning = algo.kind;
  config.features = algo.features;
  config.train_per_class =
      algo.new_recipe ? 25 : FivePercentRuleSize(dataset.ground_truth.size());
  return config;
}

}  // namespace

int main() {
  PrintBanner("Scalability over Dirty ER datasets", "Figures 17 and 18");

  const AlgoSpec algos[] = {
      {"BCl", PruningKind::kBCl, false, FeatureSet::Paper2014()},
      {"BLAST", PruningKind::kBlast, true, FeatureSet::BlastOptimal()},
      {"CNP", PruningKind::kCnp, false, FeatureSet::Paper2014()},
      {"RCNP", PruningKind::kRcnp, true, FeatureSet::RcnpOptimal()},
  };

  // Per algorithm: (|C|, RT) per dataset for the speedup plot.
  std::vector<std::vector<std::pair<double, double>>> scaling(4);

  TablePrinter fig17({"Dataset", "|C|", "Algorithm", "Recall", "Precision",
                      "F1", "RT (ms)"});
  for (const DirtySpec& spec : PaperDirtySpecs(Scale())) {
    PreparedDataset dataset = PrepareDirtySpec(spec);
    for (size_t a = 0; a < 4; ++a) {
      ExperimentResult r = RunRepeatedExperiment(
          dataset, ConfigFor(algos[a], dataset), Seeds());
      scaling[a].push_back({static_cast<double>(dataset.num_candidates()),
                            r.aggregate.rt_seconds});
      std::vector<std::string> row = {
          spec.name, TablePrinter::Count(dataset.num_candidates()),
          algos[a].label};
      for (auto& cell : MetricCells(r.aggregate)) row.push_back(cell);
      row.push_back(TablePrinter::Fixed(r.aggregate.rt_seconds * 1e3, 1));
      fig17.AddRow(row);
    }
  }
  std::printf("Figure 17 — effectiveness and run-time:\n%s\n",
              fig17.ToString().c_str());

  TablePrinter fig18({"Dataset", "BCl", "BLAST", "CNP", "RCNP"});
  const auto& names = PaperDirtySpecs(Scale());
  for (size_t d = 1; d < names.size(); ++d) {
    std::vector<std::string> row = {names[d].name};
    for (size_t a = 0; a < 4; ++a) {
      const auto& [c1, rt1] = scaling[a][0];
      const auto& [c2, rt2] = scaling[a][d];
      const double speedup = (c2 / c1) * (rt1 / rt2);
      row.push_back(TablePrinter::Fixed(speedup, 3));
    }
    fig18.AddRow(row);
  }
  std::printf("Figure 18 — speedup relative to D10K (1.0 = linear "
              "scaling):\n%s\n",
              fig18.ToString().c_str());
  std::printf(
      "Expected shape: BLAST keeps recall >0.9 while beating BCl's "
      "precision/F1 by\nan order of magnitude; RCNP similarly dominates "
      "CNP; the new recipes retain\nfewer pairs and therefore scale closer "
      "to linear (higher speedup).\n");
  return 0;
}
