// ABLATION (design-choice study, not a paper table): what Block Purging
// and Block Filtering each contribute. The paper applies both before
// meta-blocking (Section 5.1); this bench quantifies why: candidates
// drop by orders of magnitude at negligible recall cost, and downstream
// BLAST quality improves.

#include <cstdio>

#include "bench_common.h"
#include "datasets/clean_clean_generator.h"
#include "schemes/scheme_registry.h"

int main() {
  using namespace gsmb;
  using namespace gsmb::bench;
  PrintBanner("Preprocessing ablation: Purging / Filtering",
              "design-choice ablation — complements Table 2");

  for (const char* name : {"AbtBuy", "ImdbTmdb", "WalmartAmazon"}) {
    CleanCleanSpec spec = CleanCleanSpecByName(name, Scale());
    GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
    JobInputs inputs;
    inputs.e1 = std::move(data.e1);
    inputs.e2 = std::move(data.e2);
    inputs.ground_truth = std::move(data.ground_truth);

    // Token Blocking under each preprocessing: a purge fraction or filter
    // ratio of 1 switches that step off.
    struct Variant {
      const char* label;
      double purge_size_fraction;
      double filter_ratio;
    };
    const BlockingSpec paper;
    const std::vector<Variant> variants = {
        {"raw blocks", 1.0, 1.0},
        {"+ purging", paper.purge_size_fraction, 1.0},
        {"+ filtering", 1.0, paper.filter_ratio},
        {"+ purging + filtering", paper.purge_size_fraction,
         paper.filter_ratio}};

    TablePrinter table({"Pipeline", "|C|", "Blocking Re", "BLAST Re",
                        "BLAST Pr", "BLAST F1"});
    for (const Variant& v : variants) {
      BlockingSpec blocking = paper;
      blocking.purge_size_fraction = v.purge_size_fraction;
      blocking.filter_ratio = v.filter_ratio;
      PreparedDataset prep = schemes::PrepareInputs(inputs, blocking, 1, name);
      MetaBlockingConfig config;
      config.features = FeatureSet::BlastOptimal();
      config.pruning = PruningKind::kBlast;
      config.train_per_class = 25;
      AggregateMetrics m =
          RunRepeatedExperiment(prep, config, Seeds()).aggregate;
      table.AddRow({v.label, TablePrinter::Count(prep.num_candidates()),
                    TablePrinter::Fixed(prep.blocking_quality.recall, 3),
                    TablePrinter::Fixed(m.recall, 3),
                    TablePrinter::Fixed(m.precision, 3),
                    TablePrinter::Fixed(m.f1, 3)});
    }
    std::printf("%s:\n%s\n", name, table.ToString().c_str());
  }
  std::printf("Expected shape: purging kills the stop-word blocks, "
              "filtering shrinks |C|\nseveral-fold more; blocking recall "
              "barely moves and BLAST's F1 improves.\n");
  return 0;
}
