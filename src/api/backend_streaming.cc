// The streaming backend: stream/'s bounded-memory executor behind the
// Executor interface. Retained pairs are bit-identical to the batch
// backend's for any shard/thread count (stream/streaming_executor.h
// documents why); retained CSV rows stream straight to disk so the mode
// never buffers O(retained) memory. Executes straight off a shared
// PreparedInputs handle's counting preparation — a streaming-only sweep
// never materialises the O(|C|) candidate pairs.

#include <utility>

#include "api/backends.h"
#include "gsmb/digest.h"
#include "gsmb/log.h"
#include "stream/streaming_executor.h"

namespace gsmb::api {

namespace {

class StreamingBackend : public Executor {
 public:
  std::string name() const override { return "streaming"; }

  Status Supports(const JobSpec&) const override { return Status::Ok(); }

  bool AcceptsPrepared() const override { return true; }

  Result<JobResult> ExecutePrepared(
      const JobSpec& spec, const PreparedInputs& prepared) const override {
    return RunStreamingOn(spec, prepared);
  }

  Result<JobResult> Execute(const JobSpec& spec) const override {
    Result<PreparedHandle> prepared = BuildPreparedInputs(spec);
    if (!prepared.ok()) return prepared.status();
    return RunStreamingOn(spec, **prepared);
  }
};

}  // namespace

Result<JobResult> RunStreamingOn(const JobSpec& spec,
                                 const PreparedInputs& prepared) {
  const JobInputs& inputs = prepared.inputs;
  const PreparedDataset& prep = prepared.dataset;

  StreamingOptions options;
  options.num_shards = spec.execution.shards;
  options.memory_budget_mb = spec.execution.memory_budget_mb;
  StreamingExecutor executor(prep, options);

  JobResult result;
  result.backend = "streaming";

  // Retained pairs arrive in ascending global-index order — ascending
  // (left, right) — so CSV rows and kept pairs match the batch backend's
  // byte for byte without ever materialising the retained set.
  std::ofstream csv_file;
  bool want_csv = !spec.output.retained_csv.empty();
  if (want_csv) {
    Result<std::ofstream> csv = OpenRetainedCsv(spec.output.retained_csv);
    if (!csv.ok()) return csv.status();
    csv_file = std::move(*csv);
  }
  // The sink is always installed: the retained-set digest is part of every
  // JobResult (the provenance contract), not only of CSV/keep runs. The
  // executor invokes it serially, in ascending global-index order; the
  // digest is order-free anyway.
  obs::PairSetDigest digest;
  StreamingExecutor::RetainedSink sink =
      [&](uint32_t, const CandidatePair& pair, double) {
        const std::string& left = inputs.ExternalLeftId(pair.left);
        const std::string& right = inputs.ExternalRightId(pair.right);
        digest.AddPair(left, right);
        if (want_csv) {
          AppendRetainedCsvRow(csv_file, left, right);
          ++result.retained_csv_rows;
        }
        if (spec.output.keep_retained) {
          result.retained.push_back({left, right});
        }
      };

  StreamingResult run = executor.Run(ConfigFromSpec(spec), sink);
  if (want_csv) {
    Status finished = FinishRetainedCsv(csv_file, spec.output.retained_csv);
    if (!finished.ok()) return finished;
  }

  result.metrics = run.metrics;
  result.blocking_quality = prep.blocking_quality;
  result.num_blocks = prep.blocks.size();
  result.num_candidates = prep.num_candidates();
  result.training_size = run.training_size;
  result.model_coefficients = run.model_coefficients;
  ApplyPhaseTimings(run.phases, prepared.prepare_seconds, &result);
  result.shards_used = run.num_shards_used;
  result.sweeps = run.sweeps;

  result.dataset_fingerprint = prepared.dataset_fingerprint;
  result.prepared_digest = prepared.prepared_digest;
  result.retained_digest = digest.Value();
  result.retained_count = digest.count;
  GSMB_LOG_INFO("run.done", {"backend", "streaming"},
                {"retained", digest.count},
                {"shards", run.num_shards_used},
                {"retained_digest", obs::DigestHex(result.retained_digest)});
  return result;
}

std::unique_ptr<Executor> MakeStreamingBackend() {
  return std::make_unique<StreamingBackend>();
}

}  // namespace gsmb::api
