// SweepSpec serialization/expansion and Engine::RunSweep equivalence.
//
// The load-bearing assertion (the staged-API acceptance bar): a 2-axis
// sweep — all 8 pruning kinds x 2 feature sets — over one dataset performs
// exactly ONE blocking preparation (the sweep's cache counters prove it),
// and every variant's retained pairs are bit-identical to an independent
// Engine::Run of the corresponding single JobSpec, on the batch AND the
// streaming backend (one shard and several). The accounting tests check
// that the grid is scored once per group — 2 groups, not 16 variants — and
// that the shared time is charged once.

#include "gsmb/sweep.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "gsmb/telemetry.h"
#include "test_support.h"

namespace gsmb {
namespace {

/// A D10K scale whose candidate arena outgrows a 1 MiB streaming budget
/// several times over.
constexpr double kBudgetedScale = 0.2;

JobSpec BaseSpec() {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = 0.03;
  spec.blocking.filter_ratio = 1.0;
  spec.training.labels_per_class = 15;
  spec.training.seed = 3;
  spec.execution.shards = 1;
  spec.output.keep_retained = true;
  return spec;
}

// ---------------------------------------------------------------------------
// Serialization / validation / expansion
// ---------------------------------------------------------------------------

TEST(SweepSpecJson, RoundTripsEveryAxis) {
  SweepSpec sweep;
  sweep.base = BaseSpec();
  sweep.axes.pruning = {PruningKind::kBlast, PruningKind::kCnp};
  sweep.axes.features = {FeatureSet::BlastOptimal(), FeatureSet::Paper2014()};
  sweep.axes.classifiers = {ClassifierKind::kLogisticRegression,
                            ClassifierKind::kLinearSvc};
  sweep.axes.labels_per_class = {15, 250};
  sweep.axes.seeds = {0, 1, 18446744073709551615ull};  // 2^64-1 must survive
  sweep.retained_dir = "out";

  Result<SweepSpec> again = SweepSpec::FromJson(sweep.ToJson());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(sweep == *again);
  EXPECT_EQ(again->GridSize(), 2u * 2 * 2 * 2 * 3);
}

TEST(SweepSpecJson, EmptyAxesMeanTheBaseValue) {
  SweepSpec sweep;
  sweep.base = BaseSpec();
  EXPECT_EQ(sweep.GridSize(), 1u);
  const std::vector<JobSpec> variants = sweep.Expand();
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_TRUE(variants[0] == sweep.base);

  Result<SweepSpec> again = SweepSpec::FromJson(sweep.ToJson());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(sweep == *again);
}

void ExpectSweepRejected(const std::string& text,
                         const std::string& fragment) {
  Result<SweepSpec> sweep = SweepSpec::FromJson(text);
  ASSERT_FALSE(sweep.ok()) << "accepted: " << text;
  EXPECT_NE(sweep.status().message().find(fragment), std::string::npos)
      << "message '" << sweep.status().message() << "' lacks '" << fragment
      << "'";
}

TEST(SweepSpecJson, RejectsMalformedDocuments) {
  ExpectSweepRejected(R"({})", "version is required");
  ExpectSweepRejected(R"({"version": 9})", "unsupported sweep version 9");
  ExpectSweepRejected(R"({"version": 1, "grid": {}})", "unknown key 'grid'");
  ExpectSweepRejected(
      R"({"version": 1, "axes": {"prunings": []}})",
      "unknown key 'prunings' in sweep.axes");
  ExpectSweepRejected(
      R"({"version": 1, "axes": {"pruning": ["blart"]}})",
      "unknown pruning kind 'blart'");
  ExpectSweepRejected(
      R"({"version": 1, "axes": {"seeds": [-1]}})",
      "sweep.axes.seeds");
  // Base diagnostics carry the nested path.
  ExpectSweepRejected(
      R"({"version": 1, "base": {"version": 2, "prunning": {}}})",
      "unknown key 'prunning' in sweep.base");
  // The base spec is versioned like any spec document.
  ExpectSweepRejected(R"({"version": 1, "base": {}})",
                      "sweep.base.version is required");
}

TEST(SweepSpecValidate, RejectsCollidingOutputsAndDuplicates) {
  SweepSpec sweep;
  sweep.base = BaseSpec();

  SweepSpec csv = sweep;
  csv.base.output.retained_csv = "one.csv";
  EXPECT_FALSE(csv.Validate().ok());

  SweepSpec duplicates = sweep;
  duplicates.axes.seeds = {1, 1};
  Status status = duplicates.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

TEST(SweepExpand, NestingOrderIsPruningMajorSeedsMinor) {
  SweepSpec sweep;
  sweep.base = BaseSpec();
  sweep.axes.pruning = {PruningKind::kWep, PruningKind::kCep};
  sweep.axes.seeds = {5, 7, 9};

  const std::vector<JobSpec> variants = sweep.Expand();
  ASSERT_EQ(variants.size(), 6u);
  EXPECT_EQ(variants[0].pruning.kind, PruningKind::kWep);
  EXPECT_EQ(variants[0].training.seed, 5u);
  EXPECT_EQ(variants[2].pruning.kind, PruningKind::kWep);
  EXPECT_EQ(variants[2].training.seed, 9u);
  EXPECT_EQ(variants[3].pruning.kind, PruningKind::kCep);
  EXPECT_EQ(variants[3].training.seed, 5u);
  // Unswept fields inherit the base everywhere.
  for (const JobSpec& variant : variants) {
    EXPECT_EQ(variant.training.labels_per_class, 15u);
    EXPECT_TRUE(variant.features == sweep.base.features);
  }
}

TEST(SweepVariantLabels, AreFilesystemSafeAndDistinct) {
  JobSpec variant = BaseSpec();
  EXPECT_EQ(SweepVariantLabel(variant), "token_blast_blast_logreg_l15_s3");
  variant.features = FeatureSet{Feature::kCfIbf, Feature::kJs};
  const std::string label = SweepVariantLabel(variant);
  EXPECT_EQ(label.find(','), std::string::npos) << label;
  EXPECT_EQ(label, "token_blast_cf-ibf+js_logreg_l15_s3");
  variant.blocking.scheme = kSchemeMinHashLsh;
  EXPECT_EQ(SweepVariantLabel(variant),
            "minhash-lsh_blast_cf-ibf+js_logreg_l15_s3");
}

// ---------------------------------------------------------------------------
// RunSweep
// ---------------------------------------------------------------------------

/// The acceptance grid: 8 pruning kinds x 2 feature sets over `base`.
/// Every variant must run on at least `min_shards` shards.
void RunTwoAxisGrid(const JobSpec& base, size_t min_shards = 1) {
  SweepSpec sweep;
  sweep.base = base;
  sweep.axes.pruning = AllPruningKinds();
  sweep.axes.features = {FeatureSet::BlastOptimal(), FeatureSet::Paper2014()};

  Engine engine;
  Result<SweepResult> result = engine.RunSweep(sweep);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->variants.size(), 16u);

  // Exactly ONE blocking preparation for the whole grid.
  EXPECT_EQ(result->cache_misses, 1u);
  EXPECT_EQ(result->cache_hits, 0u);
  const PrepareCacheStats stats = engine.prepare_cache_stats();
  EXPECT_EQ(stats.misses, 1u) << "a variant re-prepared blocking";

  // Every variant bit-identical to an independent, cache-free Run.
  EngineOptions uncached;
  uncached.prepare_cache_max_entries = 0;
  Engine independent(uncached);
  for (const SweepVariant& variant : result->variants) {
    ASSERT_TRUE(variant.status.ok())
        << variant.label << ": " << variant.status.ToString();
    ASSERT_GT(variant.result.metrics.retained, 0u) << variant.label;
    EXPECT_GE(variant.result.shards_used, min_shards) << variant.label;
    Result<JobResult> direct = independent.Run(variant.spec);
    ASSERT_TRUE(direct.ok())
        << variant.label << ": " << direct.status().ToString();
    EXPECT_EQ(variant.result.retained, direct->retained) << variant.label;
    EXPECT_EQ(variant.result.model_coefficients, direct->model_coefficients)
        << variant.label;
  }
}

JobSpec BaseSpecIn(ExecutionMode mode) {
  JobSpec spec = BaseSpec();
  spec.execution.mode = mode;
  return spec;
}

TEST(SweepEquivalence, TwoAxisGridBatch) {
  RunTwoAxisGrid(BaseSpecIn(ExecutionMode::kBatch));
}

TEST(SweepEquivalence, TwoAxisGridStreaming) {
  RunTwoAxisGrid(BaseSpecIn(ExecutionMode::kStreaming));
  // A memory budget that forces several shards: each group then scores
  // every shard once per pass, for all of its pruning kinds at once.
  JobSpec budgeted = BaseSpecIn(ExecutionMode::kStreaming);
  budgeted.dataset.scale = kBudgetedScale;
  budgeted.execution.memory_budget_mb = 1;
  RunTwoAxisGrid(budgeted, /*min_shards=*/4);
}

TEST(SweepEquivalence, ParallelVariantExecutionIsDeterministic) {
  SweepSpec sweep;
  sweep.base = BaseSpec();
  sweep.axes.seeds = {0, 1, 2, 3};

  Engine serial_engine;
  SweepSpec serial = sweep;
  serial.base.execution.options.num_threads = 1;
  Result<SweepResult> one = serial_engine.RunSweep(serial);
  ASSERT_TRUE(one.ok());

  Engine threaded_engine;
  SweepSpec threaded = sweep;
  threaded.base.execution.options.num_threads = 4;
  Result<SweepResult> many = threaded_engine.RunSweep(threaded);
  ASSERT_TRUE(many.ok());

  ASSERT_EQ(one->variants.size(), many->variants.size());
  for (size_t i = 0; i < one->variants.size(); ++i) {
    ASSERT_TRUE(one->variants[i].status.ok());
    ASSERT_TRUE(many->variants[i].status.ok());
    EXPECT_EQ(one->variants[i].label, many->variants[i].label);
    EXPECT_EQ(one->variants[i].result.retained,
              many->variants[i].result.retained);
  }
}

uint64_t CounterOf(const obs::MetricsSnapshot& metrics,
                   const std::string& name) {
  auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0 : it->second;
}

TEST(SweepAccounting, EachGroupScoresOnceAndChargesItsFirstVariant) {
  // 8 pruning kinds x 2 feature sets = 2 groups. Each extracts, trains and
  // classifies once; that shared time lands on the group's first variant
  // in expansion order — variants 0 (BLAST set) and 1 (2014 set) — while
  // every variant still reports its own prune time and the group's model.
  SweepSpec sweep;
  sweep.base = BaseSpec();
  sweep.axes.pruning = AllPruningKinds();
  sweep.axes.features = {FeatureSet::BlastOptimal(), FeatureSet::Paper2014()};

  Engine engine;
  obs::TelemetrySink sink;
  obs::InstallSink(&sink);
  Result<SweepResult> result = engine.RunSweep(sweep);
  obs::InstallSink(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->variants.size(), 16u);

  // The one 2014 group sweeps LCP once, not once per pruning kind.
  Result<PreparedHandle> prepared = engine.Prepare(sweep.base);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(CounterOf(sink.SnapshotMetrics(), "features.lcp.entries"),
            testing::LcpSweepEntries(*(*prepared)->dataset.index));

  EngineOptions uncached;
  uncached.prepare_cache_max_entries = 0;
  Engine independent(uncached);
  std::vector<size_t> carriers;
  for (size_t i = 0; i < result->variants.size(); ++i) {
    const SweepVariant& variant = result->variants[i];
    ASSERT_TRUE(variant.status.ok()) << variant.label;
    const JobResult& run = variant.result;
    if (run.feature_seconds > 0 && run.classify_seconds > 0 &&
        run.train_seconds > 0) {
      carriers.push_back(i);
    } else {
      EXPECT_EQ(run.feature_seconds, 0.0) << variant.label;
      EXPECT_EQ(run.train_seconds, 0.0) << variant.label;
      EXPECT_EQ(run.classify_seconds, 0.0) << variant.label;
      EXPECT_EQ(run.generate_seconds, 0.0) << variant.label;
    }
    EXPECT_GT(run.prune_seconds, 0.0) << variant.label;
    Result<JobResult> direct = independent.Run(variant.spec);
    ASSERT_TRUE(direct.ok()) << variant.label;
    EXPECT_EQ(run.training_size, direct->training_size) << variant.label;
    EXPECT_GT(run.training_size, 0u) << variant.label;
    EXPECT_EQ(run.model_coefficients, direct->model_coefficients)
        << variant.label;
  }
  EXPECT_EQ(carriers, (std::vector<size_t>{0, 1}));
}

TEST(SweepAccounting, SerialVariantTimesFitInTheSweepWallClock) {
  // No cost is charged twice: on one thread the groups run back to back,
  // so the variants' RT components must add up to no more than the
  // sweep's own wall clock.
  SweepSpec sweep;
  sweep.base = BaseSpec();
  sweep.base.execution.options.num_threads = 1;
  sweep.axes.pruning = AllPruningKinds();
  sweep.axes.features = {FeatureSet::BlastOptimal(), FeatureSet::Paper2014()};

  Engine engine;
  Result<SweepResult> result = engine.RunSweep(sweep);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->all_ok());
  double variant_seconds = 0.0;
  for (const SweepVariant& variant : result->variants) {
    variant_seconds += variant.result.total_seconds;
  }
  EXPECT_GT(variant_seconds, 0.0);
  EXPECT_LE(variant_seconds, result->total_seconds);
}

TEST(SweepFailures, AFailedVariantNeverAbortsItsSiblings) {
  SweepSpec sweep;
  sweep.base = BaseSpec();
  sweep.base.execution.mode = ExecutionMode::kServing;
  // Naive Bayes has no raw-space linear form: the serving backend rejects
  // that variant; logreg runs.
  sweep.axes.classifiers = {ClassifierKind::kLogisticRegression,
                            ClassifierKind::kGaussianNaiveBayes};

  Engine engine;
  Result<SweepResult> result = engine.RunSweep(sweep);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->variants.size(), 2u);
  EXPECT_FALSE(result->all_ok());

  EXPECT_TRUE(result->variants[0].status.ok())
      << result->variants[0].status.ToString();
  EXPECT_GT(result->variants[0].result.metrics.retained, 0u);

  EXPECT_FALSE(result->variants[1].status.ok());
  EXPECT_EQ(result->variants[1].status.code(),
            StatusCode::kFailedPrecondition);
}

TEST(SweepOutputs, RetainedDirHoldsOneCsvPerVariant) {
  SweepSpec sweep;
  sweep.base = BaseSpec();
  sweep.axes.seeds = {0, 1};
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gsmb_sweep_retained_test")
          .string();
  std::filesystem::remove_all(dir);
  sweep.retained_dir = dir;

  Engine engine;
  Result<SweepResult> result = engine.RunSweep(sweep);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const SweepVariant& variant : result->variants) {
    ASSERT_TRUE(variant.status.ok());
    const std::string path = dir + "/" + variant.label + ".csv";
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_EQ(variant.result.retained_csv_rows,
              variant.result.metrics.retained);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gsmb
