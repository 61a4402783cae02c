// Streaming-vs-batch equivalence: the StreamingExecutor must retain pairs
// BIT-IDENTICAL to RunMetaBlocking for all 8 pruning kinds, at every
// tested shard count x thread count, on both Clean-Clean and Dirty
// fixtures, whether it regenerates its shard pairs or reads them from a
// lent candidate set (the batch backend's shape). This is the load-bearing
// guarantee of stream/ — everything else (memory bounds, sweeps, sinks) is
// checked afterwards. Both paths read the same counting PreparedDataset,
// so its counting sweep is first checked against a brute-force scan of the
// materialised candidates.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/candidate_pairs.h"
#include "core/pipeline.h"
#include "datasets/dirty_generator.h"
#include "datasets/specs.h"
#include "gsmb/telemetry.h"
#include "schemes/scheme_registry.h"
#include "stream/streaming_executor.h"
#include "test_support.h"

namespace gsmb {
namespace {

using testing::MediumDataset;
using testing::MediumPairs;
using testing::SmallDirtyDataset;

MetaBlockingConfig BaseConfig(PruningKind kind) {
  MetaBlockingConfig config;
  config.features = FeatureSet::BlastOptimal();
  config.pruning = kind;
  config.train_per_class = 25;
  config.seed = 7;
  config.keep_retained = true;
  return config;
}

void ExpectIdentical(const MetaBlockingResult& batch,
                     const StreamingResult& stream, PruningKind kind,
                     size_t shards, size_t threads) {
  SCOPED_TRACE(std::string(PruningKindName(kind)) + " shards=" +
               std::to_string(shards) + " threads=" +
               std::to_string(threads));
  EXPECT_EQ(batch.retained_indices, stream.retained_indices);
  EXPECT_EQ(batch.metrics.retained, stream.metrics.retained);
  EXPECT_EQ(batch.metrics.true_positives, stream.metrics.true_positives);
  EXPECT_EQ(batch.metrics.recall, stream.metrics.recall);
  EXPECT_EQ(batch.metrics.precision, stream.metrics.precision);
  EXPECT_EQ(batch.metrics.f1, stream.metrics.f1);
  EXPECT_EQ(batch.training_size, stream.training_size);
  EXPECT_EQ(batch.model_coefficients, stream.model_coefficients);
}

void RunEquivalenceSweep(const PreparedDataset& prep,
                         const std::vector<CandidatePair>& pairs) {
  ASSERT_EQ(pairs.size(), prep.num_candidates());
  for (PruningKind kind : AllPruningKinds()) {
    const MetaBlockingConfig config = BaseConfig(kind);
    const MetaBlockingResult batch = RunMetaBlocking(prep, pairs, config);
    for (size_t shards : {size_t{1}, size_t{4}, size_t{128}}) {
      for (size_t threads : {size_t{1}, size_t{8}}) {
        StreamingOptions options;
        options.num_shards = shards;
        MetaBlockingConfig stream_config = config;
        stream_config.execution.num_threads = threads;
        const StreamingResult stream =
            StreamingExecutor(prep, options).Run(stream_config);
        ExpectIdentical(batch, stream, kind, shards, threads);
      }
    }
  }
}

// The counting sweep of PrepareFromBlocks against an independent oracle:
// materialise the candidates, label each with GroundTruth::IsMatch, and
// score the whole set with EvaluateBlockingQuality. A rebuild at another
// thread count must count identically.
void ExpectCountingSweepMatchesBruteForce(const PreparedDataset& prep) {
  SCOPED_TRACE(prep.name);
  const std::vector<CandidatePair> pairs =
      GenerateCandidatePairs(*prep.index, 1);
  ASSERT_EQ(pairs.size(), prep.num_candidates());
  std::vector<uint64_t> expected;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (prep.ground_truth.IsMatch(pairs[i].left, pairs[i].right)) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(prep.positive_indices, expected);

  const BlockingQuality quality =
      EvaluateBlockingQuality(pairs, prep.ground_truth);
  EXPECT_EQ(prep.blocking_quality.num_candidates, quality.num_candidates);
  EXPECT_EQ(prep.blocking_quality.duplicates_covered,
            quality.duplicates_covered);
  EXPECT_EQ(prep.blocking_quality.recall, quality.recall);
  EXPECT_EQ(prep.blocking_quality.precision, quality.precision);
  EXPECT_EQ(prep.blocking_quality.f1, quality.f1);

  const PreparedDataset rebuilt = PrepareFromBlocks(
      prep.name, prep.blocks, prep.ground_truth, /*num_threads=*/4);
  EXPECT_EQ(rebuilt.pivot_offsets, prep.pivot_offsets);
  EXPECT_EQ(rebuilt.positive_indices, prep.positive_indices);
}

TEST(StreamExecutorTest, CountingSweepMatchesBruteForce) {
  ExpectCountingSweepMatchesBruteForce(MediumDataset());
  ExpectCountingSweepMatchesBruteForce(SmallDirtyDataset());
  ExpectCountingSweepMatchesBruteForce(
      PrepareFromBlocks("paper", testing::PaperExampleBlocks(),
                        testing::PaperExampleGroundTruth()));
}

TEST(StreamExecutorTest, PreparationMatchesBatchGeometry) {
  const PreparedDataset& prep = MediumDataset();
  const std::vector<CandidatePair>& pairs = MediumPairs();

  ASSERT_EQ(prep.num_candidates(), pairs.size());
  ASSERT_EQ(prep.pivot_offsets.size(), NumCandidatePivots(*prep.index) + 1);
  // The offsets must reproduce the grouped-by-pivot order of the batch
  // candidate list.
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t pivot = pairs[i].left;
    EXPECT_GE(i, prep.pivot_offsets[pivot]);
    EXPECT_LT(i, prep.pivot_offsets[pivot + 1]);
  }
}

TEST(StreamExecutorTest, AllKindsMatchBatchCleanClean) {
  RunEquivalenceSweep(MediumDataset(), MediumPairs());
}

TEST(StreamExecutorTest, AllKindsMatchBatchDirty) {
  RunEquivalenceSweep(SmallDirtyDataset(), testing::SmallDirtyPairs());
}

// LCP forces the precomputed-per-entity path (and the 2014 feature set is
// the one whose rows depend on a feature the shard cannot see locally).
TEST(StreamExecutorTest, LcpFeaturesMatchBatch) {
  const PreparedDataset& prep = MediumDataset();
  MetaBlockingConfig config = BaseConfig(PruningKind::kRcnp);
  config.features = FeatureSet::Paper2014();
  const MetaBlockingResult batch = RunMetaBlocking(prep, MediumPairs(), config);
  StreamingOptions options;
  options.num_shards = 5;
  MetaBlockingConfig stream_config = config;
  stream_config.execution.num_threads = 4;
  const StreamingResult stream =
      StreamingExecutor(prep, options).Run(stream_config);
  ExpectIdentical(batch, stream, config.pruning, 5, 4);
}

// A dataset large enough for dozens of chunks, so shard boundaries cut
// through pivot groups many times (the truncated-group path).
struct ManyChunkFixture {
  PreparedDataset prep;
  std::vector<CandidatePair> pairs;
};

const ManyChunkFixture& ManyChunkDirty() {
  static const ManyChunkFixture* fixture = [] {
    DirtySpec spec;
    spec.name = "StreamD6K";
    spec.num_entities = 6000;
    spec.seed = 5;
    GeneratedDirty data = DirtyGenerator().Generate(spec);
    JobInputs inputs;
    inputs.e1 = std::move(data.entities);
    inputs.dirty = true;
    inputs.ground_truth = std::move(data.ground_truth);
    auto* built = new ManyChunkFixture;
    built->prep = schemes::PrepareInputs(inputs, BlockingSpec{}, 4, spec.name);
    built->pairs = GenerateCandidatePairs(*built->prep.index, 4);
    return built;
  }();
  return *fixture;
}

TEST(StreamExecutorTest, ManyShardDirtyDatasetMatchesBatch) {
  const PreparedDataset& prep = ManyChunkDirty().prep;
  const std::vector<CandidatePair>& pairs = ManyChunkDirty().pairs;

  for (PruningKind kind : {PruningKind::kBlast, PruningKind::kWep,
                           PruningKind::kCnp}) {
    MetaBlockingConfig config = BaseConfig(kind);
    config.execution.num_threads = 4;
    const MetaBlockingResult batch = RunMetaBlocking(prep, pairs, config);
    for (size_t shards : {size_t{3}, size_t{32}}) {
      StreamingOptions options;
      options.num_shards = shards;
      const StreamingResult stream =
          StreamingExecutor(prep, options).Run(config);
      EXPECT_GT(stream.num_shards_used, 1u);
      ExpectIdentical(batch, stream, kind, shards, 4);
    }
  }
}

// The batch backend's shape: the executor at one shard over the lent
// candidate set. For every kind it must equal RunMetaBlocking and the
// regenerating executor at 1 and 16 shards, and spend no time on pairs.
void ExpectLentPairsMatch(const PreparedDataset& prep,
                          const std::vector<CandidatePair>& pairs,
                          size_t threads) {
  SCOPED_TRACE(prep.name);
  for (PruningKind kind : AllPruningKinds()) {
    MetaBlockingConfig config = BaseConfig(kind);
    config.execution.num_threads = threads;
    const MetaBlockingResult batch = RunMetaBlocking(prep, pairs, config);
    StreamingOptions one_shard;
    one_shard.num_shards = 1;
    const StreamingResult lent =
        StreamingExecutor(prep, one_shard, &pairs).Run(config);
    ExpectIdentical(batch, lent, kind, 1, threads);
    EXPECT_EQ(lent.num_shards_used, 1u);
    EXPECT_EQ(lent.phases.Get(obs::Phase::kPairs), 0.0);
    EXPECT_EQ(lent.generate_seconds, 0.0);

    for (size_t shards : {size_t{1}, size_t{16}}) {
      StreamingOptions options;
      options.num_shards = shards;
      const StreamingResult regenerated =
          StreamingExecutor(prep, options).Run(config);
      ExpectIdentical(batch, regenerated, kind, shards, threads);
      EXPECT_EQ(lent.retained_indices, regenerated.retained_indices);
      EXPECT_EQ(lent.sweeps, regenerated.sweeps);
    }
  }
}

TEST(StreamExecutorTest, LentPairsMatchBatchAndRegeneratedShards) {
  ExpectLentPairsMatch(MediumDataset(), MediumPairs(), 1);
  ExpectLentPairsMatch(SmallDirtyDataset(), testing::SmallDirtyPairs(), 8);
  ExpectLentPairsMatch(ManyChunkDirty().prep, ManyChunkDirty().pairs, 4);

  StreamingOptions options;
  options.num_shards = 16;
  EXPECT_GT(StreamingExecutor(ManyChunkDirty().prep, options)
                .Run(BaseConfig(PruningKind::kBCl))
                .num_shards_used,
            1u);
  // Lent pairs are the whole candidate set, run as one shard.
  EXPECT_THROW(StreamingExecutor(MediumDataset(), options, &MediumPairs()),
               std::invalid_argument);
  options.num_shards = 1;
  const std::vector<CandidatePair> truncated(MediumPairs().begin(),
                                             MediumPairs().end() - 1);
  EXPECT_THROW(StreamingExecutor(MediumDataset(), options, &truncated),
               std::invalid_argument);
}

TEST(StreamExecutorTest, MemoryBudgetDerivesShardCountAndBoundsArena) {
  const PreparedDataset& prep = MediumDataset();
  MetaBlockingConfig config = BaseConfig(PruningKind::kBlast);
  const MetaBlockingResult batch = RunMetaBlocking(prep, MediumPairs(), config);

  StreamingOptions options;
  options.num_shards = 1;
  options.memory_budget_mb = 1;  // ~1 MiB arena => multiple shards
  const StreamingExecutor executor(prep, options);
  const StreamingResult stream = executor.Run(config);

  EXPECT_GT(stream.num_shards_used, 1u);
  // One candidate costs ~sizeof(pair) + feature row + probability; the
  // high-water arena must respect the derived per-shard budget (chunk
  // granularity makes it exact only up to one chunk).
  const size_t bytes_per_pair =
      sizeof(CandidatePair) + 8 * config.features.Dimensions() + 16;
  EXPECT_LE(stream.max_shard_candidates * bytes_per_pair,
            (options.memory_budget_mb << 20) + bytes_per_pair * 8192);
  ExpectIdentical(batch, stream, config.pruning, stream.num_shards_used, 1);
}

TEST(StreamExecutorTest, SinkReceivesRetainedAscendingWithPairs) {
  const PreparedDataset& prep = MediumDataset();
  // One weight-based and one cardinality kind: the two emission paths.
  for (PruningKind kind : {PruningKind::kWnp, PruningKind::kCep}) {
    MetaBlockingConfig config = BaseConfig(kind);
    StreamingOptions options;
    options.num_shards = 4;
    std::vector<uint32_t> seen;
    StreamingResult stream = StreamingExecutor(prep, options).Run(
        config, [&](uint32_t index, const CandidatePair& pair,
                    double probability) {
          if (!seen.empty()) {
            EXPECT_LT(seen.back(), index);
          }
          seen.push_back(index);
          EXPECT_EQ(MediumPairs()[index], pair);
          EXPECT_GE(probability, 0.5);  // default validity threshold
        });
    EXPECT_EQ(seen.size(), stream.metrics.retained);
    EXPECT_EQ(seen, stream.retained_indices);
  }
}

TEST(StreamExecutorTest, SweepCountsPerAlgorithmFamily) {
  const PreparedDataset& prep = MediumDataset();
  StreamingOptions options;
  options.num_shards = 4;
  auto sweeps = [&](PruningKind kind) {
    return StreamingExecutor(prep, options)
        .Run(BaseConfig(kind))
        .sweeps;
  };
  EXPECT_EQ(sweeps(PruningKind::kBCl), 1u);    // stateless: single pass
  EXPECT_EQ(sweeps(PruningKind::kBlast), 2u);  // aggregate + threshold pass
  EXPECT_EQ(sweeps(PruningKind::kCnp), 1u);    // emits from aggregates
}

TEST(StreamExecutorTest, RejectsUnusableOptions) {
  const PreparedDataset& prep = MediumDataset();
  StreamingOptions options;
  options.num_shards = 0;
  options.memory_budget_mb = 0;
  EXPECT_THROW(StreamingExecutor(prep, options), std::invalid_argument);
}

// Score once, prune many: a group of all 8 kinds (2014 features, so the
// LCP sweep is shared too) must give every kind exactly its single-config
// result — retained set, sink stream, sweeps, model — at one resident
// shard and at several shards scored once per pass; the LCP sweep runs
// once per group; the shared stages are charged to the first config only.
TEST(StreamExecutorTest, GroupScoresOnceAndMatchesSingleRuns) {
  const PreparedDataset& prep = MediumDataset();
  std::vector<MetaBlockingConfig> configs;
  for (PruningKind kind : AllPruningKinds()) {
    MetaBlockingConfig config = BaseConfig(kind);
    config.features = FeatureSet::Paper2014();
    config.execution.num_threads = 4;
    configs.push_back(config);
  }
  configs[3].validity_threshold = 0.7;  // pruning settings may differ
  for (size_t shards : {size_t{1}, size_t{5}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StreamingOptions options;
    options.num_shards = shards;
    const StreamingExecutor executor(prep, options);
    std::vector<std::vector<uint32_t>> streamed(configs.size());
    std::vector<StreamingExecutor::RetainedSink> sinks;
    for (size_t k = 0; k < configs.size(); ++k) {
      sinks.push_back([&streamed, k](uint32_t index, const CandidatePair&,
                                     double) {
        streamed[k].push_back(index);
      });
    }
    obs::TelemetrySink sink;
    obs::InstallSink(&sink);
    const std::vector<StreamingResult> group =
        executor.RunGroup(configs, sinks);
    obs::InstallSink(nullptr);
    ASSERT_EQ(group.size(), configs.size());
    EXPECT_EQ(sink.SnapshotMetrics().counters.at("features.lcp.entries"),
              testing::LcpSweepEntries(*prep.index));
    for (size_t k = 0; k < configs.size(); ++k) {
      SCOPED_TRACE(PruningKindName(configs[k].pruning));
      const StreamingResult single = executor.Run(configs[k]);
      EXPECT_EQ(group[k].retained_indices, single.retained_indices);
      EXPECT_EQ(streamed[k], single.retained_indices);
      EXPECT_EQ(group[k].metrics.true_positives,
                single.metrics.true_positives);
      EXPECT_EQ(group[k].sweeps, single.sweeps);
      EXPECT_EQ(group[k].model_coefficients, single.model_coefficients);
      EXPECT_EQ(group[k].training_size, single.training_size);
      EXPECT_EQ(group[k].num_shards_used, single.num_shards_used);
      EXPECT_GT(group[k].prune_seconds, 0.0);
      if (k == 0) {
        EXPECT_GT(group[k].feature_seconds, 0.0);
        EXPECT_GT(group[k].train_seconds, 0.0);
        EXPECT_GT(group[k].classify_seconds, 0.0);
      } else {
        EXPECT_EQ(group[k].feature_seconds, 0.0);
        EXPECT_EQ(group[k].train_seconds, 0.0);
        EXPECT_EQ(group[k].classify_seconds, 0.0);
        EXPECT_EQ(group[k].generate_seconds, 0.0);
      }
    }
  }
}

TEST(StreamExecutorTest, GroupRejectsConfigsThatScoreDifferently) {
  StreamingOptions options;
  options.num_shards = 2;
  const StreamingExecutor executor(MediumDataset(), options);
  MetaBlockingConfig other_seed = BaseConfig(PruningKind::kWnp);
  other_seed.seed = 8;
  EXPECT_THROW(executor.RunGroup({BaseConfig(PruningKind::kBlast), other_seed}),
               std::invalid_argument);
  EXPECT_THROW(executor.RunGroup({BaseConfig(PruningKind::kBlast)},
                                 {nullptr, nullptr}),
               std::invalid_argument);
  EXPECT_TRUE(executor.RunGroup({}).empty());
}

}  // namespace
}  // namespace gsmb
