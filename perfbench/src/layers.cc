// Traced per-layer replay. Each layer's public calls run on the workload's
// own inputs inside spans; the per-layer metrics are read from those spans
// and from counts taken at the same points. The serving layer always runs
// on the serve-mixed input, the only one it serves. The run ends with the
// tracing overhead: the workload's unit of work traced (benchmark spans +
// the library telemetry sink) against untraced.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/block_stats.h"
#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "common.h"
#include "core/features.h"
#include "core/pruning.h"
#include "datasets/io.h"
#include "gsmb/digest.h"
#include "gsmb/engine.h"
#include "gsmb/prepared.h"
#include "gsmb/sweep.h"
#include "ml/classifier.h"
#include "ml/sampler.h"
#include "schemes/scheme_registry.h"
#include "util/random.h"

namespace perfbench {

namespace {

constexpr const char* kSchemes[] = {
    "token",
    "qgram",
    "suffix",
    "sorted-neighborhood",
    "dynamic-sorted-neighborhood",
    "attribute-clustering",
    "minhash-lsh",
};

constexpr struct {
  gsmb::ClassifierKind kind;
  const char* name;
} kClassifiers[] = {
    {gsmb::ClassifierKind::kLogisticRegression, "logreg"},
    {gsmb::ClassifierKind::kLinearSvc, "svc"},
    {gsmb::ClassifierKind::kGaussianNaiveBayes, "nb"},
};

// Fits are sub-millisecond; the median of several is the reported time.
constexpr int kFitRepeats = 5;
constexpr int kCachedPrepareRepeats = 200;
constexpr int kOverheadRepeats = 2;

double FileMb(const std::string& path) {
  return path.empty() ? 0.0
                      : static_cast<double>(std::filesystem::file_size(path)) /
                            (1024.0 * 1024.0);
}

std::string Threads(size_t threads) { return "t" + std::to_string(threads); }

// datasets -> schemes -> blocking -> pairs -> features -> ml -> prune -> obs,
// called layer by layer exactly as the batch backend composes them. Returns
// the BLAST retained-set digest, which must equal the Engine's.
uint64_t ReplayPipeline(const InputFiles& files, Tracer* tracer,
                        Report* report) {
  const size_t threads = BenchThreads();

  gsmb::JobInputs inputs;
  inputs.dirty = files.dirty();
  const double load_s = tracer->Time("load", "LoadCollectionCsv + "
                                     "LoadGroundTruthCsv", [&] {
    inputs.e1 = gsmb::LoadCollectionCsv(files.e1, "dataset.e1");
    if (!inputs.dirty) {
      inputs.e2 = gsmb::LoadCollectionCsv(files.e2, "dataset.e2");
    }
    inputs.ground_truth = gsmb::LoadGroundTruthCsv(
        files.ground_truth, inputs.e1, inputs.dirty ? inputs.e1 : inputs.e2,
        inputs.dirty);
  });
  const double load_mb =
      FileMb(files.e1) + FileMb(files.e2) + FileMb(files.ground_truth);
  report->Metric("datasets.load_s", load_s, "s");
  report->Metric("datasets.load_mb_per_s", load_mb / load_s, "MB/s");

  const gsmb::BlockingSpec blocking;  // the job spec's defaults
  gsmb::BlockCollection raw;
  for (const char* name : kSchemes) {
    const gsmb::schemes::Blocker* blocker = gsmb::schemes::FindBlocker(name);
    report->Attempt(blocker != nullptr,
                    std::string("scheme not registered: ") + name);
    if (blocker == nullptr) continue;
    gsmb::BlockCollection blocks;
    const double build_s = tracer->Time(
        "blocking", std::string(name) + ": Blocker::Build",
        [&] { blocks = blocker->Build(inputs, blocking, threads); });
    report->Metric(std::string("blocking.build_s.") + name, build_s, "s");
    if (std::string(name) == gsmb::kSchemeToken) raw = std::move(blocks);
  }
  const double raw_comparisons = raw.TotalComparisons();
  report->Metric("blocking.blocks", static_cast<double>(raw.size()), "count");
  report->Metric("blocking.comparisons", raw_comparisons, "count");

  gsmb::BlockCollection blocks;
  report->Metric("blocking.purge_filter_s",
                 tracer->Time("blocking", "BlockPurging + BlockFiltering::Apply",
                              [&] {
                                blocks = gsmb::BlockFiltering(
                                             blocking.filter_ratio)
                                             .Apply(gsmb::BlockPurging(
                                                        blocking
                                                            .purge_size_fraction)
                                                        .Apply(raw));
                              }),
                 "s");
  report->Metric("blocking.kept_ratio",
                 blocks.TotalComparisons() / raw_comparisons, "ratio");
  raw = gsmb::BlockCollection();

  std::unique_ptr<gsmb::EntityIndex> index;
  report->Metric("blocking.index_s",
                 tracer->Time("blocking", "EntityIndex", [&] {
                   index = std::make_unique<gsmb::EntityIndex>(blocks, threads);
                 }),
                 "s");

  std::vector<gsmb::CandidatePair> pairs;
  const double pairs_t1 =
      tracer->Time("pairs", "GenerateCandidatePairs t1",
                   [&] { pairs = gsmb::GenerateCandidatePairs(*index, 1); });
  std::vector<gsmb::CandidatePair> pairs_tn;
  const double pairs_tn_s = tracer->Time(
      "pairs", "GenerateCandidatePairs " + Threads(threads),
      [&] { pairs_tn = gsmb::GenerateCandidatePairs(*index, threads); });
  report->Attempt(pairs == pairs_tn, "candidate pairs differ across threads");
  pairs_tn = {};
  const double num_pairs = static_cast<double>(pairs.size());
  report->Metric("blocking.pairs_s.t1", pairs_t1, "s");
  report->Metric("blocking.pairs_s.t4", pairs_tn_s, "s");
  report->Metric("blocking.pairs.count", num_pairs, "count");
  report->Metric("blocking.pairs.scaling", pairs_t1 / pairs_tn_s, "x");

  std::vector<uint8_t> is_positive(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    is_positive[i] = inputs.ground_truth.IsMatch(pairs[i].left, pairs[i].right)
                         ? 1
                         : 0;
  }

  const gsmb::FeatureExtractor extractor(*index, pairs);
  gsmb::Matrix features;
  {
    gsmb::Matrix serial;
    const double blast_t1 = tracer->Time(
        "features", "FeatureExtractor::Compute blast t1",
        [&] { serial = extractor.Compute(gsmb::FeatureSet::BlastOptimal(), 1); },
        num_pairs);
    const double blast_tn = tracer->Time(
        "features", "FeatureExtractor::Compute blast " + Threads(threads),
        [&] {
          features =
              extractor.Compute(gsmb::FeatureSet::BlastOptimal(), threads);
        },
        num_pairs);
    report->Attempt(serial.data() == features.data(),
                    "features differ across threads");
    report->Metric("features.blast_s.t1", blast_t1, "s");
    report->Metric("features.blast_s.t4", blast_tn, "s");
    report->Metric("features.mpairs_per_s", num_pairs / blast_tn * 1e-6,
                   "Mpairs/s");
  }
  {
    gsmb::Matrix with_lcp;
    report->Metric(
        "features.lcp_s.t4",
        tracer->Time("features",
                     "FeatureExtractor::Compute 2014 " + Threads(threads),
                     [&] {
                       with_lcp = extractor.Compute(
                           gsmb::FeatureSet::Paper2014(), threads);
                     },
                     num_pairs),
        "s");
  }

  // Training exactly as the batch backend samples it: labels_per_class 25,
  // seed 0.
  gsmb::Rng rng(0);
  const gsmb::TrainingSet training = gsmb::SampleBalanced(is_positive, 25, &rng);
  const gsmb::Matrix train_x = features.SelectRows(training.row_indices);
  for (const auto& classifier : kClassifiers) {
    std::vector<double> fits;
    for (int i = 0; i < kFitRepeats; ++i) {
      fits.push_back(tracer->Time(
          "train", std::string(classifier.name) + ": Fit",
          [&] {
            gsmb::MakeClassifier(classifier.kind, 0)
                ->Fit(train_x, training.labels);
          },
          static_cast<double>(training.size())));
    }
    report->Metric(std::string("ml.train_s.") + classifier.name, Median(fits),
                   "s");
  }
  std::unique_ptr<gsmb::ProbabilisticClassifier> model =
      gsmb::MakeClassifier(gsmb::ClassifierKind::kLogisticRegression, 0);
  model->Fit(train_x, training.labels);
  std::vector<double> probabilities;
  const double classify_s = tracer->Time(
      "classify", "PredictBatch " + Threads(threads),
      [&] { probabilities = model->PredictBatch(features, threads); },
      num_pairs);
  report->Metric("ml.classify_s", classify_s, "s");
  report->Metric("ml.classify.mpairs_per_s", num_pairs / classify_s * 1e-6,
                 "Mpairs/s");
  features = gsmb::Matrix();

  gsmb::PruningContext context =
      gsmb::PruningContext::FromIndex(*index, gsmb::ComputeBlockStats(blocks));
  context.execution.num_threads = threads;
  std::vector<uint32_t> blast_retained;
  for (gsmb::PruningKind kind : gsmb::AllPruningKinds()) {
    const std::string name = gsmb::PruningShortName(kind);
    std::vector<uint32_t> retained;
    const double prune_s = tracer->Time(
        "prune", name + ": PruningAlgorithm::Prune",
        [&] {
          retained = gsmb::MakePruningAlgorithm(kind)->Prune(
              pairs, probabilities, context);
        },
        num_pairs);
    report->Metric("prune_s." + name, prune_s, "s");
    report->Metric("prune.retained_ratio." + name,
                   static_cast<double>(retained.size()) / num_pairs, "ratio");
    if (kind == gsmb::PruningKind::kBlast) blast_retained = std::move(retained);
  }

  gsmb::obs::PairSetDigest digest;
  report->Metric(
      "obs.digest_s",
      tracer->Time(
          "obs", "PairSetDigest",
          [&] {
            for (uint32_t i : blast_retained) {
              digest.AddPair(inputs.ExternalLeftId(pairs[i].left),
                             inputs.ExternalRightId(pairs[i].right));
            }
          },
          static_cast<double>(blast_retained.size())),
      "s");
  return digest.Value();
}

// The Engine surface on the same input: cold and cached Prepare, then
// Execute on the batch and streaming backends against one handle.
void ReplayApi(const InputFiles& files, uint64_t replay_digest,
               Tracer* tracer, Report* report) {
  const gsmb::JobSpec spec = CsvJobSpec(files);
  gsmb::Engine engine;
  gsmb::Result<gsmb::PreparedHandle> prepared =
      gsmb::Status::Internal("not run");
  const double prepare_s = tracer->Time(
      "prepare", "Engine::Prepare cold", [&] { prepared = engine.Prepare(spec); });
  report->Attempt(prepared.ok(), "Prepare: " + prepared.status().ToString());
  if (!prepared.ok()) return;
  std::vector<double> cached;
  for (int i = 0; i < kCachedPrepareRepeats; ++i) {
    cached.push_back(tracer->Time("prepare", "Engine::Prepare cached", [&] {
      report->Attempt(engine.Prepare(spec).ok(), "cached Prepare failed");
    }));
  }

  gsmb::Result<gsmb::JobResult> batch = gsmb::Status::Internal("not run");
  const double batch_s = tracer->Time("execute", "Engine::Execute batch", [&] {
    batch = engine.Execute(spec, **prepared);
  });
  const gsmb::JobSpec streaming_spec = StreamingJobSpec(files);
  gsmb::Result<gsmb::JobResult> streaming = gsmb::Status::Internal("not run");
  const double streaming_s =
      tracer->Time("execute", "Engine::Execute streaming",
                   [&] { streaming = engine.Execute(streaming_spec,
                                                    **prepared); });
  report->Attempt(batch.ok(), "Execute batch: " + batch.status().ToString());
  report->Attempt(streaming.ok(),
                  "Execute streaming: " + streaming.status().ToString());
  if (!batch.ok() || !streaming.ok()) return;
  report->Attempt(batch->retained_digest == replay_digest,
                  "layer-by-layer replay retained a different set than "
                  "Engine::Execute");
  report->Attempt(streaming->retained_digest == batch->retained_digest,
                  "batch and streaming retained different pairs");

  const gsmb::PrepareCacheStats stats = engine.prepare_cache_stats();
  report->Metric("api.prepare_s", prepare_s, "s");
  report->Metric("api.prepare_cached_us", Median(cached) * 1e6, "us");
  report->Metric("api.execute_s.batch", batch_s, "s");
  report->Metric("api.execute_s.streaming", streaming_s, "s");
  report->Metric("api.cache_hits", static_cast<double>(stats.hits), "count");
  report->Metric("api.cache_misses", static_cast<double>(stats.misses),
                 "count");
  // The library's own phase accounting against the wall time of the same
  // cold job (Prepare + Execute): above 1 means a cost is charged twice.
  report->Metric("api.phase_sum_over_wall",
                 (batch->total_seconds + batch->blocking_seconds) /
                     (prepare_s + batch_s),
                 "ratio");
  report->Metric("stream.execute_s", streaming->total_seconds, "s");
  report->Metric("stream.shards", static_cast<double>(streaming->shards_used),
                 "count");
  report->Metric("stream.sweeps", static_cast<double>(streaming->sweeps),
                 "count");
}

void ReplayServe(const RunOptions& options, Tracer* tracer, Report* report) {
  const ServeFixture fixture(options.serve_dir);
  double open_s = 0.0;
  std::unique_ptr<gsmb::MetaBlockingSession> session =
      fixture.Setup(&open_s, tracer);
  // The ingest layer alone: the resident batch into an empty session with
  // the opened session's options and model.
  double ingest_s = 0.0;
  {
    gsmb::MetaBlockingSession empty(session->options(), session->model());
    ingest_s = tracer->Time(
        "serve", "MetaBlockingSession::AddProfiles",
        [&] { empty.AddProfiles(fixture.resident); },
        static_cast<double>(fixture.resident.size()));
  }
  const ServeEpisode episode =
      fixture.Play(session.get(), options.seed, tracer);
  fixture.Check(*session, report);

  report->Metric("serve.ingest_s", ingest_s, "s");
  report->Metric("serve.ingest.profiles_per_s",
                 static_cast<double>(fixture.resident.size()) / ingest_s,
                 "1/s");
  report->Metric("serve.refresh_ms", Median(episode.refresh_ms), "ms");
  const double dirty = Median(episode.dirty_shards);
  report->Metric("serve.refresh.dirty_shards", dirty, "count");
  report->Metric("serve.refresh.dirty_ratio",
                 dirty / static_cast<double>(kServeShards), "ratio");
  report->Metric("serve.query_us", Median(episode.query_us), "us");
  double results = 0.0;
  for (double r : episode.query_results) results += r;
  report->Metric("serve.query.results",
                 results / static_cast<double>(episode.query_results.size()),
                 "count");
  report->Metric("serve.candidates",
                 static_cast<double>(session->Stats().num_candidates), "count");

  // The serving percentiles, each reported only with >= 10 samples beyond.
  const struct {
    const char* name;
    const std::vector<double>* samples;
    double p;
    const char* unit;
  } percentiles[] = {
      {"serve.update_p50_ms", &episode.update_ms, 0.50, "ms"},
      {"serve.update_p95_ms", &episode.update_ms, 0.95, "ms"},
      {"serve.query_p50_us", &episode.query_us, 0.50, "us"},
      {"serve.query_p99_us", &episode.query_us, 0.99, "us"},
  };
  for (const auto& percentile : percentiles) {
    double value = 0.0;
    report->Attempt(
        HonestPercentile(*percentile.samples, percentile.p, &value),
        std::string(percentile.name) + ": too few samples");
    report->Metric(percentile.name, value, percentile.unit);
  }
  report->Metric("serve.update.samples",
                 static_cast<double>(episode.update_ms.size()), "count");
  report->Metric("serve.query.samples",
                 static_cast<double>(episode.query_us.size()), "count");
  session.reset();

  // Train/serve skew: the same session capped by serving_max_block_size
  // while its model trains on blocks purged at the batch default (half the
  // profiles). On some seeds that model's session probabilities fall below
  // the validity threshold; its pair completeness shows it.
  gsmb::JobSpec skewed = fixture.spec;
  skewed.blocking.purge_size_fraction =
      gsmb::JobSpec().blocking.purge_size_fraction;
  skewed.execution.serving_max_block_size = kServeMaxBlockSize;
  gsmb::Result<gsmb::JobResult> skewed_run = gsmb::Engine().Run(skewed);
  report->Attempt(skewed_run.ok(), "Run with serving_max_block_size: " +
                                       skewed_run.status().ToString());
  const double skewed_pc = skewed_run.ok() ? skewed_run->metrics.recall : 0.0;
  std::fprintf(stderr,
               "serve-mixed with serving_max_block_size %zu and the default "
               "training purge: PC %.4f\n",
               kServeMaxBlockSize, skewed_pc);
  report->Metric("serve.skewed_cap.pc", skewed_pc, "ratio");
}

// Traced / untraced wall time of the workload's unit of work: a cold job,
// a sweep on a prepared engine, or a serving setup.
void MeasureOverhead(const RunOptions& options, Tracer* tracer,
                     Report* report) {
  const InputFiles files = InputsIn(options.dir, options.workload);
  std::function<void(Tracer*)> unit;
  gsmb::Engine sweep_engine;
  std::unique_ptr<ServeFixture> fixture;
  switch (options.workload) {
    case Workload::kDirtyBatch: {
      const gsmb::JobSpec spec = CsvJobSpec(files);
      unit = [spec, report](Tracer* t) { RunJob(spec, report, t); };
      break;
    }
    case Workload::kCcSweep: {
      const gsmb::SweepSpec sweep = PaperSweep(CsvJobSpec(files));
      report->Attempt(sweep_engine.Prepare(sweep.base).ok(), "Prepare failed");
      unit = [sweep, report, &sweep_engine](Tracer* t) {
        Timed(t, "sweep", "Engine::RunSweep", [&] {
          gsmb::Result<gsmb::SweepResult> result = sweep_engine.RunSweep(sweep);
          report->Attempt(result.ok() && result->all_ok(), "RunSweep failed");
        });
      };
      break;
    }
    case Workload::kServeMixed:
      fixture = std::make_unique<ServeFixture>(options.dir);
      unit = [&fixture](Tracer* t) {
        double seconds = 0.0;
        fixture->Setup(&seconds, t);
      };
      break;
  }

  std::vector<double> untraced;
  std::vector<double> traced;
  for (int i = 0; i < kOverheadRepeats; ++i) {
    untraced.push_back(Timed(nullptr, "", "", [&] { unit(nullptr); }));
    gsmb::obs::TelemetrySink sink;
    gsmb::obs::InstallSink(&sink);
    traced.push_back(tracer->Time("unit", "traced unit of work",
                                  [&] { unit(tracer); }));
    gsmb::obs::InstallSink(nullptr);
    tracer->AddLibrarySpans(sink.Spans());
  }
  report->Metric("trace.unit_s", Median(untraced), "s");
  report->Metric("trace.overhead_ratio", Median(traced) / Median(untraced),
                 "ratio");
}

}  // namespace

void RunLayers(const RunOptions& options, Report* report) {
  Tracer tracer;
  const InputFiles files = InputsIn(options.dir, options.workload);
  const uint64_t replay_digest = ReplayPipeline(files, &tracer, report);
  ReplayApi(files, replay_digest, &tracer, report);
  ReplayServe(options, &tracer, report);
  MeasureOverhead(options, &tracer, report);
  report->Attempt(tracer.Write(options.trace_out),
                  "cannot write " + options.trace_out);
}

}  // namespace perfbench
