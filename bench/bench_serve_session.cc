// Serving-layer micro-benchmark: ingest throughput, incremental Refresh()
// vs cold rebuild, and single-probe query latency for MetaBlockingSession
// on the generated Dirty scalability series (D10K and friends).
//
// The headline number is the incremental speed-up: after a small batch of
// late arrivals dirties a fraction of the shards, Refresh() must beat a
// full from-scratch session rebuild by a wide margin (>= 5x at the default
// scale) while retaining bit-identical pairs.
//
//   GSMB_SCALE   dataset size multiplier (default 0.25 here)
//   GSMB_SHARDS  shard count (default 64)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datasets/dirty_generator.h"
#include "datasets/specs.h"
#include "gsmb/telemetry.h"
#include "schemes/scheme_registry.h"
#include "serve/session.h"
#include "serve/serving_model.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace {

using namespace gsmb;

size_t ShardsFromEnv() {
  const char* value = std::getenv("GSMB_SHARDS");
  if (value == nullptr) return 128;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : 128;
}

double EnvScale() {
  const char* value = std::getenv("GSMB_SCALE");
  if (value == nullptr) return 0.25;
  const double parsed = std::atof(value);
  return parsed > 0.0 ? parsed : 0.25;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "bench_serve_session.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json out.json]\n", argv[0]);
      return 2;
    }
  }
  // Latency percentiles come from the telemetry registry, not ad-hoc
  // timers: the sink's serve.*.latency_us histograms see every
  // ingest/refresh/query this benchmark issues.
  obs::TelemetrySink sink;
  obs::InstallSink(&sink);

  const double scale = EnvScale();
  const size_t num_shards = ShardsFromEnv();
  const size_t threads = HardwareThreads();
  std::printf(
      "== Serving-session micro-benchmark (scale %.3g, %zu shards, %zu "
      "threads) ==\n\n",
      scale, num_shards, threads);

  DirtySpec spec = PaperDirtySpecs(scale).front();  // D10K at `scale`
  const GeneratedDirty data = DirtyGenerator().Generate(spec);
  const std::vector<EntityProfile>& profiles = data.entities.profiles();
  std::printf("dataset %s: %zu profiles, %zu duplicate pairs\n",
              spec.name.c_str(), profiles.size(), data.ground_truth.size());

  JobInputs labelled;
  labelled.e1 = data.entities;
  labelled.dirty = true;
  labelled.ground_truth = data.ground_truth;
  ServingModelTraining training;
  training.train_per_class = 50;
  training.execution.num_threads = threads;
  const ServingModel model = TrainServingModelFromPrepared(
      schemes::PrepareInputs(labelled, BlockingSpec{}, threads, "bootstrap"),
      FeatureSet::BlastOptimal(), training);

  SessionOptions options;
  options.num_shards = num_shards;
  options.execution.num_threads = threads;
  options.max_block_size = 100;

  // ---- Ingest throughput (tokenise + route, no re-blocking). ----
  // Hold back a handful of "late arrivals" (~0.1%): the incremental case
  // is a trickle of new records against a big resident collection.
  const size_t late_count = std::max<size_t>(1, profiles.size() / 1000);
  const size_t resident_count = profiles.size() - late_count;
  MetaBlockingSession session(options, model);
  Stopwatch watch;
  session.AddProfiles({profiles.begin(), profiles.begin() + resident_count});
  const double ingest_seconds = watch.ElapsedSeconds();
  std::printf("ingest      %zu profiles in %.1f ms  (%.0f profiles/s)\n",
              resident_count, ingest_seconds * 1e3,
              static_cast<double>(resident_count) / ingest_seconds);

  // ---- Cold build: refresh with every shard dirty. Best of 3 runs (the
  // session is plain data, so forking a copy replays the same work). ----
  watch.Restart();
  session.Refresh();
  double cold_seconds = watch.ElapsedSeconds();
  for (int rep = 0; rep < 2; ++rep) {
    MetaBlockingSession fresh(options, model);
    fresh.AddProfiles({profiles.begin(), profiles.begin() + resident_count});
    watch.Restart();
    fresh.Refresh();
    cold_seconds = std::min(cold_seconds, watch.ElapsedSeconds());
  }
  std::printf("cold build  %zu shards in %.1f ms (best of 3)\n", num_shards,
              cold_seconds * 1e3);

  // ---- Incremental: the late trickle arrives as one small batch;
  // Refresh() touches only the dirtied shards. Best of 3. ----
  watch.Restart();
  session.AddProfiles({profiles.begin() + resident_count, profiles.end()});
  const size_t dirty = session.DirtyShardCount();
  const double add_seconds = watch.ElapsedSeconds();
  watch.Restart();
  session.Refresh();
  double refresh_seconds = watch.ElapsedSeconds();
  for (int rep = 0; rep < 2; ++rep) {
    MetaBlockingSession fresh(options, model);
    fresh.AddProfiles({profiles.begin(), profiles.begin() + resident_count});
    fresh.Refresh();
    fresh.AddProfiles({profiles.begin() + resident_count, profiles.end()});
    watch.Restart();
    fresh.Refresh();
    refresh_seconds = std::min(refresh_seconds, watch.ElapsedSeconds());
  }
  const double speedup = cold_seconds / refresh_seconds;
  std::printf(
      "incremental %zu late profiles -> %zu/%zu shards dirty; add %.2f ms, "
      "refresh %.1f ms\n",
      profiles.size() - resident_count, dirty, num_shards, add_seconds * 1e3,
      refresh_seconds * 1e3);
  std::printf("speed-up    refresh vs cold rebuild: %.1fx\n", speedup);

  // Correctness of the headline: incremental state == cold rebuild.
  MetaBlockingSession cold(options, model);
  cold.AddProfiles(profiles);
  cold.Refresh();
  const bool identical = session.RetainedPairs() == cold.RetainedPairs();
  std::printf("equivalence incremental == cold rebuild: %s\n",
              identical ? "yes" : "NO");

  // ---- Query latency: probe every 37th resident profile. ----
  size_t queries = 0;
  size_t results = 0;
  watch.Restart();
  for (size_t i = 0; i < profiles.size(); i += 37) {
    results += session.QueryCandidates(profiles[i], 10).size();
    ++queries;
  }
  const double query_seconds = watch.ElapsedSeconds();
  std::printf(
      "query       %zu probes in %.1f ms  (%.3f ms/query, %.1f results "
      "avg)\n",
      queries, query_seconds * 1e3, query_seconds * 1e3 / queries,
      static_cast<double>(results) / static_cast<double>(queries));

  // ---- Registry-derived latency percentiles + bench JSON. ----
  obs::InstallSink(nullptr);
  const obs::MetricsSnapshot snapshot = sink.SnapshotMetrics();
  double q50 = 0.0, q95 = 0.0, q99 = 0.0;
  const auto query_hist = snapshot.histograms.find("serve.query.latency_us");
  if (query_hist != snapshot.histograms.end() &&
      query_hist->second.count > 0) {
    q50 = query_hist->second.Percentile(0.50);
    q95 = query_hist->second.Percentile(0.95);
    q99 = query_hist->second.Percentile(0.99);
    std::printf(
        "latency     p50 %.0f us | p95 %.0f us | p99 %.0f us (registry, "
        "%llu probes)\n",
        q50, q95, q99,
        static_cast<unsigned long long>(query_hist->second.count));
  }

  {
    std::ofstream out(json_path);
    out << "{\n  \"context\": {\n"
        << "    \"executable\": \"bench_serve_session\",\n"
        << "    \"scale\": " << scale << ",\n"
        << "    \"num_shards\": " << num_shards << ",\n"
        << "    \"refresh_speedup_vs_cold\": " << speedup << "\n"
        << "  },\n  \"benchmarks\": [\n";
    auto row = [&](const char* name, double real_ms, bool last,
                   const std::string& extra = std::string()) {
      out << "    {\n      \"name\": \"" << name << "\",\n"
          << "      \"run_type\": \"iteration\",\n"
          << "      \"real_time\": " << real_ms << ",\n"
          << "      \"time_unit\": \"ms\"" << extra << "\n    }"
          << (last ? "\n" : ",\n");
    };
    std::ostringstream query_extra;
    query_extra << ",\n      \"query_p50_us\": " << q50
                << ",\n      \"query_p95_us\": " << q95
                << ",\n      \"query_p99_us\": " << q99;
    row("serve_session/ingest", ingest_seconds * 1e3, false);
    row("serve_session/cold_build", cold_seconds * 1e3, false);
    row("serve_session/refresh", refresh_seconds * 1e3, false);
    row("serve_session/query", query_seconds * 1e3 / queries, true,
        query_extra.str());
    out << "  ]\n}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  const bool speedup_ok = speedup >= 5.0;
  std::printf("\n%s\n", identical && speedup_ok
                            ? "SERVE BENCH OK"
                            : (identical ? "SERVE BENCH: speed-up below 5x"
                                         : "SERVE BENCH: EQUIVALENCE FAILED"));
  return identical ? 0 : 1;
}
