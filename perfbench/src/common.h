// Shared pieces of the perfbench binary: workload definitions, seeded input
// paths, job specs, sample statistics, the metric sink that prints the
// result line, and the span recorder used by the traced run.

#ifndef GSMB_PERFBENCH_COMMON_H_
#define GSMB_PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "er/entity_collection.h"
#include "er/ground_truth.h"
#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "gsmb/sweep.h"
#include "gsmb/telemetry.h"
#include "serve/session.h"

namespace perfbench {

enum class Workload { kDirtyBatch, kCcSweep, kServeMixed };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// Library calls run with min(4, hardware threads) workers.
size_t BenchThreads();

/// Where a workload's generated CSVs live. Dirty inputs have no e2. On
/// serve-mixed, e1 and ground_truth hold the resident profiles and their
/// matches (what a session opens on); `late` holds the profiles that arrive
/// afterwards and `all_ground_truth` the matches over every profile.
struct InputFiles {
  std::string e1;
  std::string e2;
  std::string ground_truth;
  std::string late;
  std::string all_ground_truth;
  bool dirty() const { return e2.empty(); }
};

InputFiles InputsIn(const std::string& dir, Workload workload);

/// Generates the workload's dataset, in an order drawn from `seed`, and
/// writes it as CSV into `dir` with the dataset layer's own writers; the
/// library only ever reads these files back.
void GenerateInputs(Workload workload, uint64_t seed, const std::string& dir);

/// The kCsv job spec every Engine workload runs: token blocking, BLAST
/// features, logistic regression, BLAST pruning, batch backend.
gsmb::JobSpec CsvJobSpec(const InputFiles& files);

/// The same job on the streaming backend under a 64 MB budget; the
/// cross-check of unpinned seeds and the traced replay run it.
gsmb::JobSpec StreamingJobSpec(const InputFiles& files);

/// The serve-mixed session: the serving backend's spec over the resident
/// CSVs (`resident` profiles), 64 shards, filtering off (the serving backend
/// cannot filter), other settings at the JobSpec defaults. The purge
/// fraction is the one from which the backend derives a session cap of 100
/// profiles per block, so the model trains on blocks purged like the
/// session's.
gsmb::JobSpec ServingJobSpec(const InputFiles& files, size_t resident);

/// Serving configuration of serve-mixed.
inline constexpr size_t kServeShards = 64;
inline constexpr size_t kServeMaxBlockSize = 100;
inline constexpr size_t kServeUpdateProfiles = 5;
inline constexpr size_t kServeQueriesPerUpdate = 10;
inline constexpr size_t kServeResidentOutOf = 10;  // 9 of every 10 resident

// ---- Sample statistics ----------------------------------------------------

double Median(std::vector<double> values);

/// Nearest-rank percentile, reported only when at least 10 samples lie
/// beyond it (p99 needs >= 1000 samples, p95 >= 200). Returns false
/// otherwise.
bool HonestPercentile(std::vector<double> values, double p, double* out);

// ---- Result line ----------------------------------------------------------

/// Collects metrics and check outcomes; Print() writes the one-line JSON
/// result that the runner forwards.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation or output check; a false `ok` counts
  /// it as failed and prints `what` to stderr.
  void Attempt(bool ok, const std::string& what);
  void Print() const;
  bool correct() const { return failed_ == 0; }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// ---- Entry points ---------------------------------------------------------

struct RunOptions {
  Workload workload = Workload::kDirtyBatch;
  uint64_t seed = 0;
  double seconds = 10.0;
  std::string dir;        // the workload's generated CSVs
  std::string serve_dir;  // serve-mixed CSVs (traced run only)
  std::string trace_out;  // Chrome-trace path (traced run only)
};

/// The untraced closed loop: end-to-end metrics and output checks.
void RunWorkload(const RunOptions& options, Report* report);

/// The traced per-layer replay on the same inputs, plus tracing overhead.
void RunLayers(const RunOptions& options, Report* report);

class Tracer;

struct JobOutcome {
  bool ok = false;
  double prepare_s = 0.0;
  double total_s = 0.0;  // Prepare + Execute
  gsmb::JobResult result;
};

/// One job: cold Engine::Prepare + Execute on a fresh engine. A non-null
/// `tracer` records both calls as spans.
JobOutcome RunJob(const gsmb::JobSpec& spec, Report* report,
                  Tracer* tracer = nullptr);

/// The paper's experiment shape: 8 pruning kinds x {blast, 2014} features.
gsmb::SweepSpec PaperSweep(const gsmb::JobSpec& base);

// ---- serve-mixed ----------------------------------------------------------

/// Samples of one pass over the late arrivals.
struct ServeEpisode {
  std::vector<double> update_ms;   // AddProfiles + Refresh
  std::vector<double> refresh_ms;  // the Refresh part alone
  std::vector<double> dirty_shards;
  std::vector<double> query_us;
  std::vector<double> query_results;
  void Append(const ServeEpisode& other);
};

struct ServeCheck {
  uint64_t digest = 0;
  double recall = 0.0;
};

/// The serve-mixed dataset: resident profiles (9 of every 10) and late
/// arrivals (the rest), with the closed loop over them.
struct ServeFixture {
  explicit ServeFixture(const std::string& dir);

  /// Engine::OpenSession on a fresh engine: CSV load, blocking, model
  /// training, resident ingest and first Refresh(), as the serving backend
  /// runs them. `seconds` receives its wall time; a non-null `tracer`
  /// records it as a span. Throws when the session cannot be opened.
  std::unique_ptr<gsmb::MetaBlockingSession> Setup(double* seconds,
                                                   Tracer* tracer) const;
  /// Feeds every late arrival in small updates, each followed by resident
  /// probe queries; probes are drawn from `seed`.
  ServeEpisode Play(gsmb::MetaBlockingSession* session, uint64_t seed,
                    Tracer* tracer) const;
  /// PC floor and equality with a cold session on the final profile set.
  ServeCheck Check(const gsmb::MetaBlockingSession& session,
                   Report* report) const;

  gsmb::JobSpec spec;
  std::vector<gsmb::EntityProfile> resident;
  std::vector<gsmb::EntityProfile> late;
  /// Residents, then late arrivals: the session's id order after Play().
  gsmb::EntityCollection profiles;
  gsmb::GroundTruth ground_truth{true};  // over `profiles`
};

// ---- Spans ----------------------------------------------------------------

/// Records (name, start, end, parent) spans around public library calls and
/// exports them as Chrome-trace JSON. Timestamps share the library
/// telemetry clock, so library spans recorded during traced units line up.
class Tracer {
 public:
  /// Runs `body` inside a span and returns its wall time in seconds.
  /// `phase` is the canonical pipeline phase name (prepare, blocking,
  /// pairs, features, train, classify, prune) or a layer name; `call` names
  /// the public function; `items` is a count taken at the same point.
  double Time(const std::string& phase, const std::string& call,
              const std::function<void()>& body, double items = -1.0);

  /// Adds spans recorded by the library's own telemetry sink.
  void AddLibrarySpans(const std::vector<gsmb::obs::SpanEvent>& spans);

  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string call;
    double begin_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    double items = -1.0;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<gsmb::obs::SpanEvent> library_spans_;
};

/// Times `body`: inside a span when `tracer` is non-null, with a bare
/// stopwatch otherwise.
double Timed(Tracer* tracer, const std::string& phase, const std::string& call,
             const std::function<void()>& body, double items = -1.0);

}  // namespace perfbench

#endif  // GSMB_PERFBENCH_COMMON_H_
