// The batch and streaming backends: both run stream/'s StreamingExecutor,
// the one execution core, against a shared PreparedInputs handle.
//
//   batch      one shard over the handle's materialised candidate pairs
//              (PreparedInputs::Pairs(), built at most once per handle and
//              shared by every run against it);
//   streaming  spec.execution.shards / memory_budget_mb shards, each
//              regenerated from the counting preparation — a
//              streaming-only sweep never materialises the O(|C|) pairs.
//
// Retained pairs are bit-identical across the two for any shard/thread
// count (stream/streaming_executor.h documents why). Retained CSV rows
// stream straight to disk from the executor's sink, so neither mode
// buffers O(retained) memory for them.

#include <utility>

#include "api/backends.h"
#include "gsmb/digest.h"
#include "gsmb/log.h"
#include "stream/streaming_executor.h"

namespace gsmb::api {

namespace {

Result<JobResult> RunExecutorOn(const JobSpec& spec,
                                const PreparedInputs& prepared, bool batch) {
  const JobInputs& inputs = prepared.inputs;
  const PreparedDataset& prep = prepared.dataset;

  StreamingOptions options;
  const std::vector<CandidatePair>* pairs = nullptr;
  // The handle's one-off candidate materialisation is batch's
  // pair-generation cost, charged only to the run that paid it.
  double materialize_seconds = 0.0;
  if (batch) {
    options.num_shards = 1;
    pairs = &prepared.Pairs(ResolvedExecution(spec).num_threads,
                            &materialize_seconds);
  } else {
    options.num_shards = spec.execution.shards;
    options.memory_budget_mb = spec.execution.memory_budget_mb;
  }
  StreamingExecutor executor(prep, options, pairs);

  JobResult result;
  result.backend = batch ? "batch" : "streaming";

  // Retained pairs arrive in ascending global-index order — ascending
  // (left, right) — so CSV rows and kept pairs are byte-identical across
  // backends without ever materialising the retained set.
  std::ofstream csv_file;
  const bool want_csv = !spec.output.retained_csv.empty();
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
  run.phases.Add(obs::Phase::kPairs, materialize_seconds);
  ApplyPhaseTimings(run.phases, prepared.ClaimPrepareSeconds(), &result);
  result.shards_used = run.num_shards_used;
  result.sweeps = run.sweeps;

  result.dataset_fingerprint = prepared.dataset_fingerprint;
  result.prepared_digest = prepared.prepared_digest;
  result.retained_digest = digest.Value();
  result.retained_count = digest.count;
  GSMB_LOG_INFO("run.done", {"backend", result.backend},
                {"retained", digest.count},
                {"shards", run.num_shards_used},
                {"retained_digest", obs::DigestHex(result.retained_digest)});
  return result;
}

class ExecutorBackend : public Executor {
 public:
  explicit ExecutorBackend(bool batch) : batch_(batch) {}

  std::string name() const override {
    return batch_ ? "batch" : "streaming";
  }

  Status Supports(const JobSpec&) const override { return Status::Ok(); }

  bool AcceptsPrepared() const override { return true; }

  Result<JobResult> ExecutePrepared(
      const JobSpec& spec, const PreparedInputs& prepared) const override {
    return RunExecutorOn(spec, prepared, batch_);
  }

  Result<JobResult> Execute(const JobSpec& spec) const override {
    Result<PreparedHandle> prepared = BuildPreparedInputs(spec);
    if (!prepared.ok()) return prepared.status();
    return RunExecutorOn(spec, **prepared, batch_);
  }

 private:
  bool batch_;
};

}  // namespace

std::unique_ptr<Executor> MakeBatchBackend() {
  return std::make_unique<ExecutorBackend>(/*batch=*/true);
}

std::unique_ptr<Executor> MakeStreamingBackend() {
  return std::make_unique<ExecutorBackend>(/*batch=*/false);
}

}  // namespace gsmb::api
