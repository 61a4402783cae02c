#include <atomic>
#include <numeric>
#include <stdexcept>

#include <gtest/gtest.h>

#include "blocking/candidate_pairs.h"
#include "core/features.h"
#include "core/pipeline.h"
#include "core/pruning.h"
#include "ml/logistic_regression.h"
#include "test_support.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace gsmb {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  size_t calls = 0;
  ParallelFor(10, 1, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(0, 4, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, MoreThreadsThanItems) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(3, 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      ParallelFor(100, 4,
                  [](size_t begin, size_t) {
                    if (begin == 0) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

// Header contract regressions: n == 0, num_threads == 0, num_threads > n,
// and exception propagation from every execution mode.

TEST(ParallelFor, ZeroThreadsRunsInline) {
  size_t calls = 0;
  ParallelFor(10, 0, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelFor, ZeroItemsZeroThreadsIsNoop) {
  bool called = false;
  ParallelFor(0, 0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptionFromInlinePath) {
  EXPECT_THROW(
      ParallelFor(10, 1,
                  [](size_t, size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

TEST(ParallelFor, PropagatesExceptionWithMoreThreadsThanItems) {
  EXPECT_THROW(
      ParallelFor(2, 16,
                  [](size_t begin, size_t) {
                    if (begin == 1) throw std::out_of_range("boom");
                  }),
      std::out_of_range);
}

TEST(ParallelFor, AllWorkersThrowingPropagatesExactlyOne) {
  std::atomic<int> thrown{0};
  try {
    ParallelFor(100, 4, [&](size_t, size_t) {
      thrown.fetch_add(1);
      throw std::runtime_error("boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  // The contract is "exactly one propagates", not how many workers ran.
  EXPECT_GE(thrown.load(), 1);
}

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1u); }

// ---- Persistent pool behaviour (ParallelFor dispatches to it). ----

TEST(ThreadPool, ReusedAcrossManySmallCalls) {
  // 200 parallel regions; with per-call thread spawning this was 800
  // threads, with the pool the worker count stays bounded.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    ParallelFor(100, 4, [&](size_t begin, size_t end) {
      sum.fetch_add(static_cast<int>(end - begin));
    });
    ASSERT_EQ(sum.load(), 100);
  }
  EXPECT_LE(ThreadPool::Global().ActiveWorkers(),
            ThreadPool::Global().max_workers());
}

TEST(ThreadPool, RunExecutesEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.Run(64, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.Run(16,
                        [](size_t i) {
                          if (i % 2 == 0) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> ok{0};
  pool.Run(8, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> total{0};
  ParallelFor(4, 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ParallelFor(64, 4, [&](size_t inner_begin, size_t inner_end) {
        total.fetch_add(static_cast<int>(inner_end - inner_begin));
      });
    }
  });
  EXPECT_EQ(total.load(), 4 * 64);
}

TEST(ThreadPool, ConcurrentRunsFromDistinctThreads) {
  // Two plain threads submitting to the global pool at once: batches drain
  // independently (each submitter participates in its own).
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread ta([&] {
    for (int i = 0; i < 50; ++i) {
      ParallelFor(32, 4,
                  [&](size_t begin, size_t end) {
                    a.fetch_add(static_cast<int>(end - begin));
                  });
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < 50; ++i) {
      ParallelFor(32, 4,
                  [&](size_t begin, size_t end) {
                    b.fetch_add(static_cast<int>(end - begin));
                  });
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), 50 * 32);
  EXPECT_EQ(b.load(), 50 * 32);
}

TEST(DeterministicChunks, PartitionsRangeInOrder) {
  const std::vector<ChunkRange> chunks = DeterministicChunks(1000, 64);
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().begin, 0u);
  EXPECT_EQ(chunks.back().end, 1000u);
  for (size_t c = 1; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].begin, chunks[c - 1].end);
  }
  for (const ChunkRange& chunk : chunks) {
    EXPECT_LE(chunk.end - chunk.begin, 64u);
    EXPECT_LT(chunk.begin, chunk.end);
  }
}

TEST(DeterministicChunks, EmptyRangeHasNoChunks) {
  EXPECT_TRUE(DeterministicChunks(0, 64).empty());
}

TEST(DeterministicChunks, ZeroGrainTreatedAsOne) {
  EXPECT_EQ(DeterministicChunks(3, 0).size(), 3u);
}

TEST(DeterministicChunks, SmallInputIsOneChunk) {
  const std::vector<ChunkRange> chunks = DeterministicChunks(100, 8192);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (ChunkRange{0, 100}));
}

TEST(ParallelCandidatePairs, CleanCleanBitIdenticalToSerial) {
  const PreparedDataset& prep = testing::MediumDataset();
  const std::vector<CandidatePair> serial =
      GenerateCandidatePairs(*prep.index, 1);
  for (size_t threads : {2, 4, 8}) {
    EXPECT_EQ(GenerateCandidatePairs(*prep.index, threads), serial)
        << threads << " threads";
  }
}

TEST(ParallelCandidatePairs, DirtyBitIdenticalToSerial) {
  const PreparedDataset& prep = testing::SmallDirtyDataset();
  const std::vector<CandidatePair> serial =
      GenerateCandidatePairs(*prep.index, 1);
  for (size_t threads : {2, 4, 8}) {
    EXPECT_EQ(GenerateCandidatePairs(*prep.index, threads), serial)
        << threads << " threads";
  }
}

TEST(ParallelClassify, PredictBatchBitIdenticalToSerial) {
  Rng rng(7);
  Matrix x(20000, 3);
  std::vector<int> labels(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    labels[r] = static_cast<int>(r % 2);
    for (size_t c = 0; c < x.cols(); ++c) {
      x.At(r, c) = rng.NextGaussian() + (labels[r] != 0 ? 1.0 : -1.0);
    }
  }
  std::vector<size_t> train_rows(200);
  std::iota(train_rows.begin(), train_rows.end(), 0);
  std::vector<int> train_labels(labels.begin(), labels.begin() + 200);
  LogisticRegression model;
  model.Fit(x.SelectRows(train_rows), train_labels);

  const std::vector<double> serial = model.PredictBatch(x, 1);
  for (size_t threads : {2, 4, 8}) {
    EXPECT_EQ(model.PredictBatch(x, threads), serial) << threads
                                                      << " threads";
  }
}

// The tentpole guarantee: every pruning algorithm retains a bit-identical
// pair set for any thread count. The fixture is large enough (~12k pairs)
// to span several fixed-grain chunks, so the chunked merges really run.
TEST(ParallelPruning, AllAlgorithmsBitIdenticalAcrossThreadCounts) {
  testing::PruningFixture f = testing::RandomPruningGraph(300, 0.5, 41);
  ASSERT_GT(f.pairs.size(), 2 * kDefaultChunkGrain)
      << "fixture too small to exercise multi-chunk merges";
  for (PruningKind kind : AllPruningKinds()) {
    const std::unique_ptr<PruningAlgorithm> algorithm =
        MakePruningAlgorithm(kind);
    PruningContext context = f.context;
    context.execution.num_threads = 1;
    const std::vector<uint32_t> serial =
        algorithm->Prune(f.pairs, f.probs, context);
    EXPECT_FALSE(serial.empty()) << algorithm->Name();
    for (size_t threads : {2, 8}) {
      context.execution.num_threads = threads;
      EXPECT_EQ(algorithm->Prune(f.pairs, f.probs, context), serial)
          << algorithm->Name() << " with " << threads << " threads";
    }
  }
}

// End to end: the whole pipeline (features -> train -> classify -> prune)
// produces identical probabilities, retained pairs and metrics when run
// multi-threaded.
TEST(ParallelPipeline, RunMetaBlockingBitIdenticalToSerial) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.train_per_class = 50;
  config.keep_probabilities = true;
  config.keep_retained = true;

  const std::vector<CandidatePair>& pairs = testing::MediumPairs();
  config.execution.num_threads = 1;
  const MetaBlockingResult serial = RunMetaBlocking(prep, pairs, config);
  config.execution.num_threads = 4;
  const MetaBlockingResult parallel = RunMetaBlocking(prep, pairs, config);

  EXPECT_EQ(parallel.probabilities, serial.probabilities);
  EXPECT_EQ(parallel.retained_indices, serial.retained_indices);
  EXPECT_EQ(parallel.metrics.retained, serial.metrics.retained);
  EXPECT_EQ(parallel.metrics.true_positives, serial.metrics.true_positives);
  EXPECT_EQ(parallel.model_coefficients, serial.model_coefficients);
}

TEST(ParallelFeatures, BitIdenticalToSerial) {
  const PreparedDataset& prep = testing::MediumDataset();
  FeatureExtractor extractor(*prep.index, testing::MediumPairs());
  Matrix serial = extractor.ComputeAll(1);
  for (size_t threads : {2, 4, 8}) {
    Matrix parallel = extractor.ComputeAll(threads);
    ASSERT_EQ(parallel.rows(), serial.rows());
    ASSERT_EQ(parallel.cols(), serial.cols());
    EXPECT_EQ(parallel.data(), serial.data()) << threads << " threads";
  }
}

TEST(ParallelFeatures, LcpBitIdenticalToSerial) {
  const PreparedDataset& prep = testing::SmallDirtyDataset();
  FeatureExtractor extractor(*prep.index, testing::SmallDirtyPairs());
  EXPECT_EQ(extractor.ComputeLcpPerEntity(1),
            extractor.ComputeLcpPerEntity(4));
}

TEST(ParallelFeatures, SubsetSelectionAlsoIdentical) {
  const PreparedDataset& prep = testing::MediumDataset();
  FeatureExtractor extractor(*prep.index, testing::MediumPairs());
  FeatureSet set = FeatureSet::RcnpOptimal();
  EXPECT_EQ(extractor.Compute(set, 1).data(),
            extractor.Compute(set, 4).data());
}

}  // namespace
}  // namespace gsmb
