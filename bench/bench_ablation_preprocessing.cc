// ABLATION (design-choice study, not a paper table): what Block Purging
// and Block Filtering each contribute. The paper applies both before
// meta-blocking (Section 5.1); this bench quantifies why: candidates
// drop by orders of magnitude at negligible recall cost, and downstream
// BLAST quality improves.

#include <cstdio>

#include "bench_common.h"
#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "datasets/clean_clean_generator.h"

int main() {
  using namespace gsmb;
  using namespace gsmb::bench;
  PrintBanner("Preprocessing ablation: Purging / Filtering",
              "design-choice ablation — complements Table 2");

  for (const char* name : {"AbtBuy", "ImdbTmdb", "WalmartAmazon"}) {
    CleanCleanSpec spec = CleanCleanSpecByName(name, Scale());
    GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
    BlockCollection raw = TokenBlocking().Build(data.e1, data.e2);

    struct Variant {
      const char* label;
      BlockCollection blocks;
    };
    std::vector<Variant> variants;
    variants.push_back({"raw blocks", raw});
    variants.push_back({"+ purging", BlockPurging().Apply(raw)});
    variants.push_back({"+ filtering", BlockFiltering().Apply(raw)});
    variants.push_back(
        {"+ purging + filtering",
         BlockFiltering().Apply(BlockPurging().Apply(raw))});

    TablePrinter table({"Pipeline", "|C|", "Blocking Re", "BLAST Re",
                        "BLAST Pr", "BLAST F1"});
    for (Variant& v : variants) {
      GroundTruth gt = data.ground_truth;
      PreparedDataset prep =
          PrepareFromBlocks(name, std::move(v.blocks), std::move(gt));
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
