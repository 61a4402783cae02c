// Blocking-scheme subsystem tests (ROADMAP item 3).
//
// The load-bearing assertions:
//   * every new scheme's Build() is bit-identical across {1, 8} threads on
//     Clean-Clean AND Dirty inputs,
//   * under every new scheme the retained digest is bit-identical across
//     the batch and streaming backends for all 8 pruning kinds (the batch
//     reference runs single-threaded, the streaming run with 8 threads, so
//     one comparison covers both axes end to end),
//   * a scheme-axis sweep performs exactly one preparation per
//     (dataset, scheme) cache key, and each variant matches a cache-free
//     independent run.

#include "schemes/scheme_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datasets/clean_clean_generator.h"
#include "datasets/dirty_generator.h"
#include "datasets/specs.h"
#include "gsmb/digest.h"
#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "gsmb/sweep.h"

namespace gsmb {
namespace {

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

const JobInputs& CleanInputs() {
  static const JobInputs inputs = [] {
    CleanCleanSpec spec;
    spec.name = "schemes-cc";
    spec.e1_size = 250;
    spec.e2_size = 250;
    spec.num_duplicates = 100;
    GeneratedCleanClean data = CleanCleanGenerator().Generate(spec);
    JobInputs in;
    in.e1 = std::move(data.e1);
    in.e2 = std::move(data.e2);
    in.dirty = false;
    in.ground_truth = std::move(data.ground_truth);
    return in;
  }();
  return inputs;
}

const JobInputs& DirtyInputs() {
  static const JobInputs inputs = [] {
    DirtySpec spec;
    spec.name = "schemes-dirty";
    spec.num_entities = 300;
    GeneratedDirty data = DirtyGenerator().Generate(spec);
    JobInputs in;
    in.e1 = std::move(data.entities);
    in.dirty = true;
    in.ground_truth = std::move(data.ground_truth);
    return in;
  }();
  return inputs;
}

const std::vector<std::string>& NewSchemes() {
  static const std::vector<std::string> schemes = {
      kSchemeSortedNeighborhood, kSchemeDynamicSortedNeighborhood,
      kSchemeAttributeClustering, kSchemeMinHashLsh};
  return schemes;
}

void ExpectSameBlocks(const BlockCollection& a, const BlockCollection& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  EXPECT_EQ(a.clean_clean(), b.clean_clean()) << context;
  EXPECT_EQ(a.num_left_entities(), b.num_left_entities()) << context;
  EXPECT_EQ(a.num_right_entities(), b.num_right_entities()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << context << " block " << i;
    EXPECT_EQ(a[i].left, b[i].left) << context << " block " << a[i].key;
    EXPECT_EQ(a[i].right, b[i].right) << context << " block " << a[i].key;
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(SchemeRegistry, AllBuiltinsAreRegistered) {
  const std::vector<std::string> expected = {
      kSchemeToken,
      kSchemeQGram,
      kSchemeSuffix,
      kSchemeSortedNeighborhood,
      kSchemeDynamicSortedNeighborhood,
      kSchemeAttributeClustering,
      kSchemeMinHashLsh};
  const std::vector<std::string> names = schemes::BlockerNames();
  for (const std::string& name : expected) {
    const schemes::Blocker* blocker = schemes::FindBlocker(name);
    ASSERT_NE(blocker, nullptr) << name;
    EXPECT_EQ(blocker->name(), name);
    EXPECT_NE(std::string(blocker->description()), "");
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(schemes::FindBlocker("not-a-scheme"), nullptr);
  EXPECT_NE(schemes::BlockerNamesJoined().find(kSchemeMinHashLsh),
            std::string::npos);
}

class RenamedTokenBlocker : public schemes::Blocker {
 public:
  explicit RenamedTokenBlocker(const char* name) : name_(name) {}
  const char* name() const override { return name_; }
  const char* description() const override { return "test-only alias"; }
  Status ValidateParams(const BlockingSpec&) const override {
    return Status::Ok();
  }
  BlockCollection Build(const JobInputs& inputs, const BlockingSpec& blocking,
                        size_t num_threads) const override {
    return schemes::FindBlocker(kSchemeToken)->Build(inputs, blocking,
                                                     num_threads);
  }

 private:
  const char* name_;
};

TEST(SchemeRegistry, RejectsDuplicateRegistrations) {
  // A name can be claimed once per process; re-claiming it — even by a
  // different implementation — is an error, never a silent shadow.
  Status taken =
      schemes::RegisterBlocker(std::make_unique<RenamedTokenBlocker>("token"));
  ASSERT_FALSE(taken.ok());
  EXPECT_NE(taken.message().find("already registered"), std::string::npos);

  ASSERT_TRUE(schemes::RegisterBlocker(
                  std::make_unique<RenamedTokenBlocker>("schemes-test-alias"))
                  .ok());
  EXPECT_NE(schemes::FindBlocker("schemes-test-alias"), nullptr);
  EXPECT_FALSE(schemes::RegisterBlocker(
                   std::make_unique<RenamedTokenBlocker>("schemes-test-alias"))
                   .ok());
}

TEST(SchemeRegistry, ValidateParamsRejectsOutOfRange) {
  BlockingSpec blocking;  // defaults are valid for every scheme
  for (const std::string& name : schemes::BlockerNames()) {
    EXPECT_TRUE(schemes::FindBlocker(name)->ValidateParams(blocking).ok())
        << name;
  }

  BlockingSpec window = blocking;
  window.window = 1;
  Status status = schemes::FindBlocker(kSchemeSortedNeighborhood)
                      ->ValidateParams(window);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("blocking.window"), std::string::npos);

  BlockingSpec inverted = blocking;
  inverted.min_window = 6;
  inverted.window = 4;
  EXPECT_FALSE(schemes::FindBlocker(kSchemeDynamicSortedNeighborhood)
                   ->ValidateParams(inverted)
                   .ok());

  BlockingSpec similarity = blocking;
  similarity.key_similarity = 1.5;
  EXPECT_FALSE(schemes::FindBlocker(kSchemeDynamicSortedNeighborhood)
                   ->ValidateParams(similarity)
                   .ok());

  BlockingSpec attribute = blocking;
  attribute.attribute_similarity = 0.0;
  EXPECT_FALSE(schemes::FindBlocker(kSchemeAttributeClustering)
                   ->ValidateParams(attribute)
                   .ok());

  BlockingSpec bands = blocking;
  bands.lsh_bands = 0;
  EXPECT_FALSE(
      schemes::FindBlocker(kSchemeMinHashLsh)->ValidateParams(bands).ok());

  // Another scheme's params are none of this scheme's business.
  EXPECT_TRUE(
      schemes::FindBlocker(kSchemeMinHashLsh)->ValidateParams(window).ok());
}

// ---------------------------------------------------------------------------
// Thread determinism at the Build() level
// ---------------------------------------------------------------------------

TEST(SchemeDeterminism, BitIdenticalAcrossThreadCounts) {
  BlockingSpec blocking;
  for (const std::string& name : NewSchemes()) {
    const schemes::Blocker* blocker = schemes::FindBlocker(name);
    ASSERT_NE(blocker, nullptr) << name;
    for (const JobInputs* inputs : {&CleanInputs(), &DirtyInputs()}) {
      const std::string context =
          name + (inputs->dirty ? " dirty" : " clean-clean");
      BlockCollection one = blocker->Build(*inputs, blocking, 1);
      BlockCollection eight = blocker->Build(*inputs, blocking, 8);
      ASSERT_GT(one.size(), 0u) << context;
      ExpectSameBlocks(one, eight, context);
    }
  }
}

TEST(SchemeDeterminism, MinHashSeedChangesBuckets) {
  BlockingSpec a;
  BlockingSpec b;
  b.minhash_seed = a.minhash_seed + 1;
  const schemes::Blocker* lsh = schemes::FindBlocker(kSchemeMinHashLsh);
  BlockCollection ba = lsh->Build(CleanInputs(), a, 1);
  BlockCollection bb = lsh->Build(CleanInputs(), b, 1);
  // A different hash family must not reproduce the same bucket keys.
  std::vector<std::string> keys_a, keys_b;
  for (const Block& block : ba.blocks()) keys_a.push_back(block.key);
  for (const Block& block : bb.blocks()) keys_b.push_back(block.key);
  EXPECT_NE(keys_a, keys_b);
}

// ---------------------------------------------------------------------------
// End-to-end: backends x pruning kinds per scheme
// ---------------------------------------------------------------------------

JobSpec SchemeBaseSpec(const std::string& scheme) {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = 0.03;
  spec.blocking.scheme = scheme;
  spec.blocking.filter_ratio = 1.0;
  spec.training.labels_per_class = 15;
  spec.training.seed = 3;
  spec.output.keep_retained = true;
  return spec;
}

TEST(SchemeBackends, RetainedDigestIdenticalAcrossBackendsAndThreads) {
  // One engine per backend so the 8 pruning variants of a scheme share a
  // single preparation; the comparison (batch, 1 thread) vs (streaming,
  // 8 threads) pins down both the backend and the thread-count axis.
  Engine batch_engine;
  Engine streaming_engine;
  for (const std::string& scheme : NewSchemes()) {
    for (PruningKind kind : AllPruningKinds()) {
      JobSpec reference = SchemeBaseSpec(scheme);
      reference.pruning.kind = kind;
      reference.execution.mode = ExecutionMode::kBatch;
      reference.execution.options.num_threads = 1;

      JobSpec streaming = reference;
      streaming.execution.mode = ExecutionMode::kStreaming;
      streaming.execution.options.num_threads = 8;

      const std::string context = scheme + "/" + PruningShortName(kind);
      Result<JobResult> a = batch_engine.Run(reference);
      ASSERT_TRUE(a.ok()) << context << ": " << a.status().ToString();
      Result<JobResult> b = streaming_engine.Run(streaming);
      ASSERT_TRUE(b.ok()) << context << ": " << b.status().ToString();

      ASSERT_GT(a->metrics.retained, 0u) << context;
      EXPECT_EQ(a->retained_digest, b->retained_digest) << context;
      EXPECT_EQ(a->prepared_digest, b->prepared_digest) << context;
      EXPECT_EQ(a->retained, b->retained) << context;
    }
  }
}

TEST(SchemeBackends, SchemesProduceDistinctPreparations) {
  // Scheme identity is part of the preparation: distinct schemes must have
  // distinct cache keys AND distinct prepared digests on the same dataset.
  Engine engine;
  std::set<std::string> keys;
  std::set<uint64_t> digests;
  std::vector<std::string> all = NewSchemes();
  all.push_back(kSchemeToken);
  for (const std::string& scheme : all) {
    JobSpec spec = SchemeBaseSpec(scheme);
    keys.insert(PrepareCacheKey(spec));
    Result<PreparedHandle> prepared = engine.Prepare(spec);
    ASSERT_TRUE(prepared.ok()) << scheme << ": "
                               << prepared.status().ToString();
    digests.insert((*prepared)->prepared_digest);
  }
  EXPECT_EQ(keys.size(), all.size());
  EXPECT_EQ(digests.size(), all.size());
}

// ---------------------------------------------------------------------------
// The scheme sweep axis
// ---------------------------------------------------------------------------

void RunSchemeAxisSweep(ExecutionMode mode) {
  SweepSpec sweep;
  sweep.base = SchemeBaseSpec(kSchemeToken);
  sweep.base.execution.mode = mode;
  sweep.axes.schemes = {kSchemeToken, kSchemeSortedNeighborhood,
                        kSchemeAttributeClustering, kSchemeMinHashLsh};
  sweep.axes.pruning = {PruningKind::kBlast, PruningKind::kCnp};

  Engine engine;
  Result<SweepResult> result = engine.RunSweep(sweep);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->variants.size(), 8u);

  // Exactly ONE preparation per (dataset, scheme) cache key.
  EXPECT_EQ(result->cache_misses, sweep.axes.schemes.size());
  EXPECT_EQ(result->cache_hits, 0u);
  EXPECT_EQ(engine.prepare_cache_stats().misses, sweep.axes.schemes.size())
      << "a variant re-prepared blocking";

  // Scheme outermost in expansion order; the label records the scheme.
  for (size_t i = 0; i < result->variants.size(); ++i) {
    const SweepVariant& variant = result->variants[i];
    const std::string& scheme = sweep.axes.schemes[i / 2];
    EXPECT_EQ(variant.spec.blocking.scheme, scheme);
    EXPECT_EQ(variant.label.rfind(scheme + "_", 0), 0u) << variant.label;
  }

  // Every variant bit-identical to an independent, cache-free Run.
  EngineOptions uncached;
  uncached.prepare_cache_max_entries = 0;
  Engine independent(uncached);
  for (const SweepVariant& variant : result->variants) {
    ASSERT_TRUE(variant.status.ok())
        << variant.label << ": " << variant.status.ToString();
    ASSERT_GT(variant.result.metrics.retained, 0u) << variant.label;
    Result<JobResult> direct = independent.Run(variant.spec);
    ASSERT_TRUE(direct.ok())
        << variant.label << ": " << direct.status().ToString();
    EXPECT_EQ(variant.result.retained_digest, direct->retained_digest)
        << variant.label;
    EXPECT_EQ(variant.result.retained, direct->retained) << variant.label;
  }
}

TEST(SchemeSweep, OnePreparationPerSchemeBatch) {
  RunSchemeAxisSweep(ExecutionMode::kBatch);
}

TEST(SchemeSweep, OnePreparationPerSchemeStreaming) {
  RunSchemeAxisSweep(ExecutionMode::kStreaming);
}

// ---------------------------------------------------------------------------
// One preparation front door: the harnesses and the Engine agree
// ---------------------------------------------------------------------------

// The paper harnesses generate their data themselves and prepare it with
// schemes::PrepareInputs (bench/bench_common.cc); the Engine loads a
// generated JobSpec and prepares it in Engine::Prepare. For every
// registered scheme, on Clean-Clean and on Dirty input, both must produce
// the same blocked representation — equal prepared digests.
TEST(SchemePreparation, HarnessPrepareInputsMatchesEnginePrepare) {
  constexpr double kCleanScale = 0.05;
  constexpr double kDirtyScale = 0.03;
  GeneratedCleanClean clean_data = CleanCleanGenerator().Generate(
      CleanCleanSpecByName("DblpAcm", kCleanScale));
  JobInputs clean;
  clean.e1 = std::move(clean_data.e1);
  clean.e2 = std::move(clean_data.e2);
  clean.ground_truth = std::move(clean_data.ground_truth);
  const DirtySpec d10k = PaperDirtySpecs(kDirtyScale).front();
  ASSERT_EQ(d10k.name, "D10K");
  GeneratedDirty dirty_data = DirtyGenerator().Generate(d10k);
  JobInputs dirty;
  dirty.e1 = std::move(dirty_data.entities);
  dirty.dirty = true;
  dirty.ground_truth = std::move(dirty_data.ground_truth);

  Engine engine;
  for (const std::string& scheme : schemes::BlockerNames()) {
    for (const bool is_dirty : {false, true}) {
      SCOPED_TRACE(scheme + (is_dirty ? " / dirty" : " / clean-clean"));
      JobSpec spec;
      spec.dataset.source = is_dirty ? DatasetSource::kGeneratedDirty
                                     : DatasetSource::kGeneratedCleanClean;
      spec.dataset.name = is_dirty ? "D10K" : "DblpAcm";
      spec.dataset.scale = is_dirty ? kDirtyScale : kCleanScale;
      spec.blocking.scheme = scheme;
      Result<PreparedHandle> engine_prepared = engine.Prepare(spec);
      ASSERT_TRUE(engine_prepared.ok())
          << engine_prepared.status().ToString();

      const PreparedDataset harness = schemes::PrepareInputs(
          is_dirty ? dirty : clean, spec.blocking, 1, "harness");
      EXPECT_GT(harness.num_candidates(), 0u);
      EXPECT_EQ(harness.num_candidates(),
                (*engine_prepared)->num_candidates());
      EXPECT_EQ(obs::PreparedStreamDigest(harness),
                (*engine_prepared)->prepared_digest);
    }
  }
}

}  // namespace
}  // namespace gsmb
