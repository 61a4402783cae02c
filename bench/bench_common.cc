#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "datasets/clean_clean_generator.h"
#include "datasets/dirty_generator.h"
#include "ml/sampler.h"
#include "schemes/scheme_registry.h"

namespace gsmb::bench {

double Scale() {
  static const double scale = ScaleFromEnv(0.125);
  return scale;
}

size_t Seeds() {
  static const size_t seeds = SeedsFromEnv(3);
  return seeds;
}

void PrintBanner(const std::string& title, const std::string& paper_ref) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("Regenerates: %s (Generalized Supervised Meta-blocking, "
              "PVLDB 14(1), 2022)\n",
              paper_ref.c_str());
  std::printf(
      "Synthetic stand-in datasets at scale %.4g, %zu repetition(s) "
      "(GSMB_SCALE / GSMB_SEEDS to change).\n\n",
      Scale(), Seeds());
}

PreparedDataset PrepareSpec(const CleanCleanSpec& spec) {
  GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
  JobInputs inputs;
  inputs.e1 = std::move(data.e1);
  inputs.e2 = std::move(data.e2);
  inputs.ground_truth = std::move(data.ground_truth);
  return schemes::PrepareInputs(inputs, BlockingSpec{}, 1, spec.name);
}

std::vector<PreparedDataset> PrepareAllCleanClean() {
  std::vector<PreparedDataset> out;
  for (const CleanCleanSpec& spec : PaperCleanCleanSpecs(Scale())) {
    out.push_back(PrepareSpec(spec));
  }
  return out;
}

PreparedDataset PrepareByName(const std::string& name) {
  return PrepareSpec(CleanCleanSpecByName(name, Scale()));
}

PreparedDataset PrepareDirtySpec(const DirtySpec& spec) {
  GeneratedDirty data = DirtyGenerator().Generate(spec);
  JobInputs inputs;
  inputs.e1 = std::move(data.entities);
  inputs.dirty = true;
  inputs.ground_truth = std::move(data.ground_truth);
  return schemes::PrepareInputs(inputs, BlockingSpec{}, 1, spec.name);
}

const Engine& SharedEngine() {
  // Never destroyed: harnesses call this from main() straight through
  // exit, and the cache's handles must outlive every caller.
  static const Engine* engine = new Engine();
  return *engine;
}

JobSpec CleanCleanBaseSpec(const std::string& name) {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedCleanClean;
  spec.dataset.name = name;
  spec.dataset.scale = Scale();
  return spec;
}

namespace {

std::vector<uint64_t> SeedAxis(size_t num_seeds) {
  std::vector<uint64_t> seeds(num_seeds);
  for (size_t i = 0; i < num_seeds; ++i) seeds[i] = i;
  return seeds;
}

[[noreturn]] void DieOnVariant(const SweepVariant& variant) {
  std::fprintf(stderr, "sweep variant %s failed: %s\n",
               variant.label.c_str(), variant.status.ToString().c_str());
  std::exit(1);
}

[[noreturn]] void DieOnSweep(const Status& status) {
  std::fprintf(stderr, "sweep failed: %s\n", status.ToString().c_str());
  std::exit(1);
}

}  // namespace

SeedSweepSummary RunSeedSweep(const JobSpec& base, size_t num_seeds) {
  SweepSpec sweep;
  sweep.base = base;
  sweep.axes.seeds = SeedAxis(num_seeds);
  Result<SweepResult> result = SharedEngine().RunSweep(sweep);
  if (!result.ok()) DieOnSweep(result.status());

  SeedSweepSummary summary;
  MetricsAccumulator acc;
  for (const SweepVariant& variant : result->variants) {
    if (!variant.status.ok()) DieOnVariant(variant);
    acc.Add(variant.result.metrics, variant.result.total_seconds);
    summary.feature_seconds += variant.result.feature_seconds;
    summary.classify_seconds += variant.result.classify_seconds;
    summary.prune_seconds += variant.result.prune_seconds;
    summary.num_candidates = variant.result.num_candidates;
  }
  const auto n = static_cast<double>(num_seeds);
  summary.metrics = acc.Summary();
  summary.feature_seconds /= n;
  summary.classify_seconds /= n;
  summary.prune_seconds /= n;
  return summary;
}

std::vector<AggregateMetrics> RunPruningKindSweep(
    const JobSpec& base, const std::vector<PruningKind>& kinds,
    size_t num_seeds) {
  SweepSpec sweep;
  sweep.base = base;
  sweep.axes.pruning = kinds;
  sweep.axes.seeds = SeedAxis(num_seeds);
  Result<SweepResult> result = SharedEngine().RunSweep(sweep);
  if (!result.ok()) DieOnSweep(result.status());

  // Expansion order is pruning-major, seeds innermost: variant i belongs
  // to kind i / num_seeds.
  std::vector<MetricsAccumulator> per_kind(kinds.size());
  for (size_t i = 0; i < result->variants.size(); ++i) {
    const SweepVariant& variant = result->variants[i];
    if (!variant.status.ok()) DieOnVariant(variant);
    per_kind[i / num_seeds].Add(variant.result.metrics,
                                variant.result.total_seconds);
  }
  std::vector<AggregateMetrics> out;
  out.reserve(kinds.size());
  for (const MetricsAccumulator& acc : per_kind) out.push_back(acc.Summary());
  return out;
}

MetaBlockingConfig BaselineConfig1(PruningKind kind, FeatureSet features) {
  MetaBlockingConfig config;
  config.pruning = kind;
  config.features = features;
  config.train_per_class = 25;  // 50 labelled instances
  return config;
}

MetaBlockingConfig BaselineConfig2(PruningKind kind,
                                   const PreparedDataset& dataset) {
  MetaBlockingConfig config;
  config.pruning = kind;
  config.features = FeatureSet::Paper2014();
  config.train_per_class = FivePercentRuleSize(dataset.ground_truth.size());
  return config;
}

std::vector<std::string> MetricCells(const AggregateMetrics& m) {
  return {TablePrinter::Fixed(m.recall, 4), TablePrinter::Fixed(m.precision, 4),
          TablePrinter::Fixed(m.f1, 4)};
}

std::vector<FeatureSweepEntry> RunFeatureSweep(
    const std::vector<PreparedDataset>& datasets, PruningKind kind,
    size_t train_per_class, size_t seeds) {
  const std::vector<FeatureSet>& all_sets = FeatureSet::EnumerateAll();

  // Per feature set, accumulate per-dataset aggregates.
  std::vector<std::vector<AggregateMetrics>> per_set(all_sets.size());

  for (const PreparedDataset& dataset : datasets) {
    const std::vector<CandidatePair> pairs =
        GenerateCandidatePairs(*dataset.index);
    FeatureExtractor extractor(*dataset.index, pairs);
    Matrix full = extractor.ComputeAll();
    for (size_t s = 0; s < all_sets.size(); ++s) {
      const FeatureSet& set = all_sets[s];
      Matrix features = full.SelectColumns(set.FullMatrixColumns());
      MetaBlockingConfig config;
      config.pruning = kind;
      config.features = set;
      config.train_per_class = train_per_class;
      MetricsAccumulator acc;
      for (size_t seed = 0; seed < seeds; ++seed) {
        config.seed = seed;
        acc.Add(RunMetaBlockingWithFeatures(dataset, pairs, config, features));
      }
      per_set[s].push_back(acc.Summary());
    }
  }

  std::vector<FeatureSweepEntry> out;
  out.reserve(all_sets.size());
  for (size_t s = 0; s < all_sets.size(); ++s) {
    out.push_back({all_sets[s], MacroAverage(per_set[s])});
  }
  std::sort(out.begin(), out.end(),
            [](const FeatureSweepEntry& a, const FeatureSweepEntry& b) {
              if (a.average.f1 != b.average.f1) return a.average.f1 > b.average.f1;
              return a.features.Id() < b.features.Id();
            });
  return out;
}

}  // namespace gsmb::bench
