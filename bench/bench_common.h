// Shared machinery for the per-table/figure benchmark harnesses.
//
// Every bench binary regenerates one table or figure of the paper on the
// synthetic stand-in datasets. All binaries honour:
//   GSMB_SCALE  — dataset size multiplier (default 0.125),
//   GSMB_SEEDS  — repetitions per configuration (default 3; paper uses 10).

#ifndef GSMB_BENCH_BENCH_COMMON_H_
#define GSMB_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "datasets/specs.h"
#include "eval/experiment.h"
#include "gsmb/engine.h"
#include "gsmb/sweep.h"
#include "util/table_printer.h"

namespace gsmb::bench {

/// Scale / repetition knobs (env-driven).
double Scale();
size_t Seeds();

/// Prints the bench banner: which paper artefact this regenerates and at
/// what scale/repetitions it runs.
void PrintBanner(const std::string& title, const std::string& paper_ref);

/// Generates and prepares one Clean-Clean spec through
/// schemes::PrepareInputs with the paper's defaults (Token Blocking ->
/// Purging -> Filtering -> candidates), timing excluded from experiment RT.
PreparedDataset PrepareSpec(const CleanCleanSpec& spec);

/// Prepares all nine paper datasets at the current scale.
std::vector<PreparedDataset> PrepareAllCleanClean();

/// Prepares one paper dataset by name at the current scale.
PreparedDataset PrepareByName(const std::string& name);

/// Prepares one Dirty scalability dataset.
PreparedDataset PrepareDirtySpec(const DirtySpec& spec);

// -- Sweep-API harness plumbing ---------------------------------------------
// The per-figure harnesses run their grids through gsmb::Engine::RunSweep
// against ONE process-wide engine, so every configuration of one dataset
// shares a single cached blocking preparation (the engine-level
// PreparedInputs cache) instead of re-preparing per experiment cell.

/// The process-wide engine the harnesses share (its prepare cache is what
/// makes repeated sweeps over one dataset prepare once).
const Engine& SharedEngine();

/// Base JobSpec of one generated Clean-Clean paper dataset at Scale():
/// batch mode, paper preprocessing defaults.
JobSpec CleanCleanBaseSpec(const std::string& name);

/// Seed-averaged summary of one configuration, produced by a seeds-axis
/// sweep — the sweep-API replacement for RunRepeatedExperiment. (Unlike
/// the legacy path, features are extracted per seed, so mean timings
/// include feature extraction in every repetition; same RT definition.)
struct SeedSweepSummary {
  AggregateMetrics metrics;
  double feature_seconds = 0.0;   // mean over seeds
  double classify_seconds = 0.0;  // mean over seeds
  double prune_seconds = 0.0;     // mean over seeds
  uint64_t num_candidates = 0;
};

/// Runs `base` with seeds 0..num_seeds-1 via SharedEngine().RunSweep and
/// averages. Exits with a diagnostic if any seed fails — a bench must
/// never silently average over missing runs.
SeedSweepSummary RunSeedSweep(const JobSpec& base, size_t num_seeds);

/// Per-kind seed-averaged metrics from one (pruning x seeds) sweep over a
/// single dataset — one shared preparation for the whole grid. Returned in
/// `kinds` order.
std::vector<AggregateMetrics> RunPruningKindSweep(
    const JobSpec& base, const std::vector<PruningKind>& kinds,
    size_t num_seeds);

/// The paper's two baseline configurations:
///   "1" — same budget as ours: 50 labelled pairs, new feature formulas;
///   "2" — the original Supervised Meta-blocking recipe: 5%-rule training
///         size and the 2014 feature set {CF-IBF, RACCB, JS, LCP}.
MetaBlockingConfig BaselineConfig1(PruningKind kind, FeatureSet features);
MetaBlockingConfig BaselineConfig2(PruningKind kind,
                                   const PreparedDataset& dataset);

/// Formats an AggregateMetrics triple as three table cells.
std::vector<std::string> MetricCells(const AggregateMetrics& m);

/// One feature-set cell of the Section 5.3 sweep.
struct FeatureSweepEntry {
  FeatureSet features;
  AggregateMetrics average;  // macro-average over datasets
};

/// Runs all 255 feature combinations for one pruning algorithm over the
/// given datasets (the brute-force search of Section 5.3). The full
/// 9-column feature matrix is computed once per dataset and column-sliced
/// per combination. Returns entries sorted by descending mean F1.
std::vector<FeatureSweepEntry> RunFeatureSweep(
    const std::vector<PreparedDataset>& datasets, PruningKind kind,
    size_t train_per_class, size_t seeds);

}  // namespace gsmb::bench

#endif  // GSMB_BENCH_BENCH_COMMON_H_
