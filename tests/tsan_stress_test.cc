// Concurrency stress suite, written to run under ThreadSanitizer (the
// `tsan` preset). Every test here drives a component from several real
// std::threads at once so TSan can observe the interleavings the rest of
// the suite only exercises single-threaded: ThreadPool shutdown and nested
// dispatch, racing Engine::Prepare calls sharing one build, concurrent
// RunSweep over a shared prepared handle, and a MetaBlockingSession being
// queried while it ingests and refreshes.
//
// The tests are also run in plain builds (they assert functional
// postconditions, not just "no race"), but their iteration counts are kept
// small enough that the ~10x TSan slowdown stays in CI budget.
//
// gsmb-lint: allow(raw-thread) — file-wide rationale: stress tests must
// create bare std::threads to race components against each other; each
// use-site below also carries its own marker.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>  // gsmb-lint: allow(raw-thread)
#include <vector>

#include <gtest/gtest.h>

#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "gsmb/prepared.h"
#include "gsmb/sweep.h"
#include "gsmb/telemetry.h"
#include "datasets/dirty_generator.h"
#include "schemes/scheme_registry.h"
#include "serve/serving_model.h"
#include "serve/session.h"
#include "util/thread_pool.h"

namespace gsmb {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolStress, ManySmallBatchesReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  // Hundreds of tiny batches: exercises the queue hand-off and the
  // batch-done signalling far more often than any production workload.
  constexpr size_t kBatches = 300;
  constexpr size_t kTasks = 8;
  for (size_t b = 0; b < kBatches; ++b) {
    pool.Run(kTasks, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), kBatches * kTasks);
  EXPECT_LE(pool.ActiveWorkers(), pool.max_workers());
}

TEST(ThreadPoolStress, NestedDispatchDoesNotDeadlock) {
  // Every outer task submits an inner batch to the SAME pool while all
  // workers are already busy; the caller-drains-own-batch design must keep
  // this deadlock-free and count every inner task exactly once.
  ThreadPool pool(2);
  std::atomic<size_t> inner_runs{0};
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 16;
  for (size_t round = 0; round < 20; ++round) {
    pool.Run(kOuter, [&](size_t) {
      pool.Run(kInner, [&](size_t) { inner_runs.fetch_add(1); });
    });
  }
  EXPECT_EQ(inner_runs.load(), 20 * kOuter * kInner);
}

TEST(ThreadPoolStress, ConcurrentRunFromManyThreads) {
  // The global-pool usage pattern: unrelated threads share one pool and
  // submit batches concurrently. Each submitter's Run() must return only
  // after its OWN batch fully drained.
  ThreadPool pool(3);
  constexpr size_t kSubmitters = 6;
  constexpr size_t kRounds = 40;
  constexpr size_t kTasks = 8;
  std::vector<size_t> per_submitter(kSubmitters, 0);
  {
    std::vector<std::thread> submitters;  // gsmb-lint: allow(raw-thread)
    submitters.reserve(kSubmitters);
    for (size_t s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        std::atomic<size_t> mine{0};
        for (size_t r = 0; r < kRounds; ++r) {
          pool.Run(kTasks, [&](size_t) { mine.fetch_add(1); });
        }
        per_submitter[s] = mine.load();
      });
    }
    for (std::thread& t : submitters) t.join();
  }
  for (size_t s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(per_submitter[s], kRounds * kTasks) << "submitter " << s;
  }
}

TEST(ThreadPoolStress, RepeatedConstructionAndTeardown) {
  // Construct, use, and destroy pools in a tight loop: the destructor must
  // join workers that may still be parked on the condition variable or
  // mid-task, with no use-after-free of pool state.
  for (size_t round = 0; round < 60; ++round) {
    ThreadPool pool(2);
    std::atomic<size_t> ran{0};
    pool.Run(5, [&](size_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 5u);
    // Destructor runs here, racing worker park/unpark.
  }
}

TEST(ThreadPoolStress, TaskExceptionSurfacesOnceBatchDrains) {
  ThreadPool pool(2);
  for (size_t round = 0; round < 30; ++round) {
    std::atomic<size_t> ran{0};
    EXPECT_THROW(
        pool.Run(8,
                 [&](size_t i) {
                   ran.fetch_add(1);
                   if (i == 3) throw std::runtime_error("boom");
                 }),
        std::runtime_error);
    // The batch drains fully before rethrow, so the pool stays usable.
    pool.Run(4, [&](size_t) { ran.fetch_add(1); });
  }
}

// ---------------------------------------------------------------------------
// Engine prepare cache

JobSpec StressSpec(double scale = 0.02) {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = scale;
  spec.blocking.filter_ratio = 1.0;
  spec.training.labels_per_class = 15;
  spec.training.seed = 3;
  spec.execution.shards = 1;
  spec.output.keep_retained = true;
  return spec;
}

TEST(EngineStress, ConcurrentPrepareAndRunShareOnePreparation) {
  // Half the threads Prepare, half Run the same spec, all racing the cold
  // build. Exactly one preparation may happen; every Run must retain the
  // same pairs.
  Engine engine;
  const JobSpec spec = StressSpec();

  constexpr size_t kThreads = 8;
  std::vector<const PreparedInputs*> handles(kThreads, nullptr);
  std::vector<std::vector<RetainedPair>> retained(kThreads);
  std::atomic<size_t> failures{0};
  {
    std::vector<std::thread> threads;  // gsmb-lint: allow(raw-thread)
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        if (t % 2 == 0) {
          Result<PreparedHandle> prepared = engine.Prepare(spec);
          if (prepared.ok()) {
            handles[t] = prepared->get();
          } else {
            failures.fetch_add(1);
          }
        } else {
          Result<JobResult> run = engine.Run(spec);
          if (run.ok()) {
            retained[t] = run->retained;
          } else {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  ASSERT_EQ(failures.load(), 0u);

  const PreparedInputs* shared = nullptr;
  for (size_t t = 0; t < kThreads; t += 2) {
    ASSERT_NE(handles[t], nullptr);
    if (shared == nullptr) shared = handles[t];
    EXPECT_EQ(handles[t], shared) << "thread " << t << " got its own build";
  }
  for (size_t t = 1; t < kThreads; t += 2) {
    EXPECT_EQ(retained[t], retained[1]) << "thread " << t;
    EXPECT_FALSE(retained[t].empty());
  }
  EXPECT_EQ(engine.prepare_cache_stats().misses, 1u);
}

TEST(EngineStress, ConcurrentPrepareOfDistinctSpecsStaysIsolated) {
  // Different specs racing into the cache must not bleed into each other's
  // slots: each key builds once, and handles differ across keys.
  Engine engine;
  constexpr size_t kSpecs = 3;
  constexpr size_t kThreadsPerSpec = 3;
  const double scales[kSpecs] = {0.02, 0.025, 0.03};

  std::vector<const PreparedInputs*> handles(kSpecs * kThreadsPerSpec,
                                             nullptr);
  {
    std::vector<std::thread> threads;  // gsmb-lint: allow(raw-thread)
    for (size_t s = 0; s < kSpecs; ++s) {
      for (size_t t = 0; t < kThreadsPerSpec; ++t) {
        threads.emplace_back([&, s, t] {
          Result<PreparedHandle> prepared =
              engine.Prepare(StressSpec(scales[s]));
          if (prepared.ok()) handles[s * kThreadsPerSpec + t] = prepared->get();
        });
      }
    }
    for (std::thread& thread : threads) thread.join();
  }

  for (size_t s = 0; s < kSpecs; ++s) {
    const PreparedInputs* first = handles[s * kThreadsPerSpec];
    ASSERT_NE(first, nullptr) << "spec " << s;
    for (size_t t = 1; t < kThreadsPerSpec; ++t) {
      EXPECT_EQ(handles[s * kThreadsPerSpec + t], first)
          << "spec " << s << " thread " << t;
    }
    for (size_t other = s + 1; other < kSpecs; ++other) {
      EXPECT_NE(first, handles[other * kThreadsPerSpec])
          << "specs " << s << " and " << other << " share a handle";
    }
  }
  EXPECT_EQ(engine.prepare_cache_stats().misses, kSpecs);
}

// ---------------------------------------------------------------------------
// RunSweep

TEST(SweepStress, ConcurrentSweepsOverOneSharedHandle) {
  // Two threads run the same sweep on one engine: the variants of both
  // sweeps execute in parallel against ONE shared PreparedInputs (including
  // its lazily materialised batch arrays), and both must report identical
  // per-variant retained sets.
  Engine engine;
  SweepSpec sweep;
  sweep.base = StressSpec();
  sweep.axes.pruning = {PruningKind::kBlast, PruningKind::kCnp,
                        PruningKind::kWnp};
  sweep.axes.seeds = {1, 2};

  constexpr size_t kSweepers = 2;
  std::vector<Result<SweepResult>> results;
  results.reserve(kSweepers);
  for (size_t s = 0; s < kSweepers; ++s) {
    results.emplace_back(Status::Internal("not run"));
  }
  {
    std::vector<std::thread> threads;  // gsmb-lint: allow(raw-thread)
    threads.reserve(kSweepers);
    for (size_t s = 0; s < kSweepers; ++s) {
      threads.emplace_back([&, s] { results[s] = engine.RunSweep(sweep); });
    }
    for (std::thread& thread : threads) thread.join();
  }

  for (size_t s = 0; s < kSweepers; ++s) {
    ASSERT_TRUE(results[s].ok()) << results[s].status().ToString();
    ASSERT_TRUE(results[s]->all_ok());
    ASSERT_EQ(results[s]->variants.size(), sweep.GridSize());
  }
  for (size_t v = 0; v < results[0]->variants.size(); ++v) {
    EXPECT_EQ(results[0]->variants[v].result.retained,
              results[1]->variants[v].result.retained)
        << results[0]->variants[v].label;
  }
  // Both sweeps map to one cache key: one build, total.
  EXPECT_EQ(engine.prepare_cache_stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Serving session

DirtySpec SessionData(size_t num_entities, uint64_t seed) {
  DirtySpec spec;
  spec.name = "tsan-stress";
  spec.num_entities = num_entities;
  spec.seed = seed;
  return spec;
}

const ServingModel& SessionModel() {
  static const ServingModel model = [] {
    GeneratedDirty labelled = DirtyGenerator().Generate(SessionData(300, 23));
    JobInputs inputs;
    inputs.e1 = std::move(labelled.entities);
    inputs.dirty = true;
    inputs.ground_truth = std::move(labelled.ground_truth);
    ServingModelTraining training;
    training.train_per_class = 30;
    return TrainServingModelFromPrepared(
        schemes::PrepareInputs(inputs, BlockingSpec{}, 1, "bootstrap"),
        FeatureSet::BlastOptimal(), training);
  }();
  return model;
}

TEST(SessionStress, IngestRefreshAndQueryRaceToAConsistentEnd) {
  // One writer thread interleaves AddProfiles and Refresh while reader
  // threads hammer QueryCandidates / RetainedPairs / Stats / DirtyShardCount.
  // The locks make every call atomic, so readers may observe any prefix of
  // the ingest but never a torn state; at the end the session must hold
  // exactly the cold-rebuild retained set.
  const GeneratedDirty data = DirtyGenerator().Generate(SessionData(400, 11));
  const std::vector<EntityProfile>& profiles = data.entities.profiles();
  SessionOptions options;
  options.num_shards = 8;
  options.execution.num_threads = 2;

  MetaBlockingSession session(options, SessionModel());
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> reader_errors{0};

  constexpr size_t kBatches = 8;
  const size_t batch_size = profiles.size() / kBatches;

  std::thread writer([&] {  // gsmb-lint: allow(raw-thread)
    for (size_t b = 0; b < kBatches; ++b) {
      const size_t begin = b * batch_size;
      const size_t end =
          (b + 1 == kBatches) ? profiles.size() : begin + batch_size;
      session.AddProfiles(
          {profiles.begin() + begin, profiles.begin() + end});
      session.Refresh();
    }
    writer_done.store(true);
  });

  constexpr size_t kReaders = 2;
  std::vector<std::thread> readers;  // gsmb-lint: allow(raw-thread)
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const EntityProfile& probe = profiles[r];
      // Sleep between iterations and bound the loop: libstdc++'s
      // shared_mutex has no writer preference, so readers spinning on
      // shared locks can starve the writer indefinitely on few-core
      // machines (observed under TSan's ~10x slowdown on one core).
      for (size_t iter = 0; iter < 500 && !writer_done.load(); ++iter) {
        // Each reader call sees some consistent post-Refresh state.
        const std::vector<QueryMatch> matches =
            session.QueryCandidates(probe, 5);
        for (const QueryMatch& m : matches) {
          if (m.probability < 0.0 || m.probability > 1.0) {
            reader_errors.fetch_add(1);
          }
        }
        const SessionStats stats = session.Stats();
        if (stats.num_retained != 0 && stats.num_profiles == 0) {
          reader_errors.fetch_add(1);  // pairs without profiles: torn state
        }
        if (session.DirtyShardCount() > stats.num_shards) {
          reader_errors.fetch_add(1);
        }
        (void)session.RetainedPairs();
        // gsmb-lint: allow(raw-clock) — interleaving jitter, not a timer.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0u);

  // Functional postcondition: identical to a cold rebuild.
  MetaBlockingSession cold(options, SessionModel());
  cold.AddProfiles(profiles);
  cold.Refresh();
  EXPECT_EQ(session.RetainedPairs(), cold.RetainedPairs());
}

TEST(SessionStress, ConcurrentWritersSerialise) {
  // Two threads AddProfiles disjoint halves and both call Refresh; the
  // exclusive lock serialises them in SOME order, and since the retained
  // set is a pure function of the full profile set (ids assigned in ingest
  // order only affect pair naming, so both halves must be identical data
  // for a bitwise check — instead we assert against a cold session built
  // in whatever order the race produced).
  const GeneratedDirty data = DirtyGenerator().Generate(SessionData(300, 7));
  const std::vector<EntityProfile>& profiles = data.entities.profiles();
  SessionOptions options;
  options.num_shards = 4;

  MetaBlockingSession session(options, SessionModel());
  const size_t half = profiles.size() / 2;
  std::vector<std::vector<EntityId>> assigned(2);
  {
    std::vector<std::thread> writers;  // gsmb-lint: allow(raw-thread)
    for (size_t w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        const size_t begin = w == 0 ? 0 : half;
        const size_t end = w == 0 ? half : profiles.size();
        assigned[w] = session.AddProfiles(
            {profiles.begin() + begin, profiles.begin() + end});
        session.Refresh();
      });
    }
    for (std::thread& t : writers) t.join();
  }

  // Batches stayed atomic: each writer's ids are contiguous.
  for (size_t w = 0; w < 2; ++w) {
    ASSERT_FALSE(assigned[w].empty());
    for (size_t i = 1; i < assigned[w].size(); ++i) {
      ASSERT_EQ(assigned[w][i], assigned[w][i - 1] + 1)
          << "writer " << w << " batch interleaved";
    }
  }
  EXPECT_EQ(session.profiles().size(), profiles.size());
  EXPECT_EQ(session.DirtyShardCount(), 0u);

  // Rebuild cold in the serialisation order the race actually produced.
  MetaBlockingSession cold(options, SessionModel());
  const bool w0_first = assigned[0][0] == 0;
  const size_t first = w0_first ? 0 : 1;
  for (size_t w : {first, 1 - first}) {
    const size_t begin = w == 0 ? 0 : half;
    const size_t end = w == 0 ? half : profiles.size();
    cold.AddProfiles({profiles.begin() + begin, profiles.begin() + end});
  }
  cold.Refresh();
  EXPECT_EQ(session.RetainedPairs(), cold.RetainedPairs());
}

// ---------------------------------------------------------------------------
// Telemetry

TEST(TelemetryStress, SpansMetricsAndExportsRace) {
  // Writers hammer every recording surface (spans with nesting, counters,
  // gauges, histograms) while readers concurrently export snapshots and
  // trace JSON. TSan must see no race between the per-thread slots and
  // the merging exports, and the final counts must add up exactly.
  obs::TelemetrySink sink;
  obs::InstallSink(&sink);
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 2;
  constexpr size_t kRounds = 200;
  std::atomic<bool> stop{false};
  {
    std::vector<std::thread> threads;  // gsmb-lint: allow(raw-thread)
    for (size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([w] {
        for (size_t i = 0; i < kRounds; ++i) {
          GSMB_SPAN("stress.outer", "stress.outer_us");
          obs::CounterAdd("stress.rounds");
          obs::CounterAdd("stress.bytes", w + 1);
          obs::GaugeMax("stress.high_water", static_cast<double>(i));
          {
            GSMB_SPAN("stress.inner");
            obs::HistogramRecord("stress.cost_us",
                                 static_cast<double>(i % 50 + 1));
          }
        }
      });
    }
    for (size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back([&sink, &stop] {
        while (!stop.load()) {
          const obs::MetricsSnapshot snapshot = sink.SnapshotMetrics();
          // Monotone reads: a snapshot mid-run is any prefix of the work.
          EXPECT_LE(snapshot.counters.count("stress.rounds")
                        ? snapshot.counters.at("stress.rounds")
                        : 0,
                    kWriters * kRounds);
          (void)sink.TraceJson();
        }
      });
    }
    // Writers are the first kWriters threads; join them, then stop readers.
    for (size_t i = 0; i < kWriters; ++i) threads[i].join();
    stop.store(true);
    for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  }
  obs::InstallSink(nullptr);

  const obs::MetricsSnapshot final_snapshot = sink.SnapshotMetrics();
  EXPECT_EQ(final_snapshot.counters.at("stress.rounds"), kWriters * kRounds);
  // sum over writers of kRounds * (w + 1)
  EXPECT_EQ(final_snapshot.counters.at("stress.bytes"),
            kRounds * kWriters * (kWriters + 1) / 2);
  EXPECT_EQ(final_snapshot.histograms.at("stress.cost_us").count,
            kWriters * kRounds);
  EXPECT_EQ(sink.Spans().size(), 2 * kWriters * kRounds);
}

}  // namespace
}  // namespace gsmb
