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
// count (stream/streaming_executor.h documents why). Both take a GROUP of
// specs that differ only in pruning — a single run is the group of one —
// and score it once. Retained CSV rows stream straight to disk from each
// spec's sink, so neither mode buffers O(retained) memory for them.

#include <utility>
#include <vector>

#include "api/backends.h"
#include "gsmb/digest.h"
#include "gsmb/log.h"
#include "stream/streaming_executor.h"

namespace gsmb::api {

namespace {

/// Runs a group of specs that differ only in their pruning section: the
/// executor scores the candidates once and prunes every spec off that one
/// score. One result per spec, in order; a spec whose CSV cannot be
/// written fails alone. The handle's one-off costs and the group's shared
/// stages are charged to the first spec that runs.
std::vector<Result<JobResult>> RunExecutorOn(const std::vector<JobSpec>& specs,
                                             const PreparedInputs& prepared,
                                             bool batch) {
  const JobInputs& inputs = prepared.inputs;
  const PreparedDataset& prep = prepared.dataset;
  std::vector<Result<JobResult>> out(specs.size(),
                                     Status::Internal("group member not run"));

  // Per-spec output state. Retained pairs arrive in ascending global-index
  // order — ascending (left, right) — so CSV rows and kept pairs are
  // byte-identical across backends without ever materialising the
  // retained set.
  struct Output {
    JobResult result;
    std::ofstream csv;
    obs::PairSetDigest digest;
  };
  std::vector<Output> outputs(specs.size());
  std::vector<size_t> members;
  std::vector<MetaBlockingConfig> configs;
  std::vector<StreamingExecutor::RetainedSink> sinks;
  for (size_t i = 0; i < specs.size(); ++i) {
    const JobSpec& spec = specs[i];
    Output& output = outputs[i];
    output.result.backend = batch ? "batch" : "streaming";
    const bool want_csv = !spec.output.retained_csv.empty();
    if (want_csv) {
      Result<std::ofstream> csv = OpenRetainedCsv(spec.output.retained_csv);
      if (!csv.ok()) {
        out[i] = csv.status();
        continue;
      }
      output.csv = std::move(*csv);
    }
    members.push_back(i);
    configs.push_back(ConfigFromSpec(spec));
    // The sink is always installed: the retained-set digest is part of
    // every JobResult (the provenance contract), not only of CSV/keep
    // runs. The executor invokes it serially, in ascending global-index
    // order; the digest is order-free anyway.
    sinks.push_back([&inputs, &spec, &output, want_csv](
                        uint32_t, const CandidatePair& pair, double) {
      const std::string& left = inputs.ExternalLeftId(pair.left);
      const std::string& right = inputs.ExternalRightId(pair.right);
      output.digest.AddPair(left, right);
      if (want_csv) {
        AppendRetainedCsvRow(output.csv, left, right);
        ++output.result.retained_csv_rows;
      }
      if (spec.output.keep_retained) {
        output.result.retained.push_back({left, right});
      }
    });
  }
  if (members.empty()) return out;

  const JobSpec& lead = specs[members.front()];
  StreamingOptions options;
  const std::vector<CandidatePair>* pairs = nullptr;
  // The handle's one-off candidate materialisation is batch's
  // pair-generation cost, charged only to the run that paid it.
  double materialize_seconds = 0.0;
  if (batch) {
    options.num_shards = 1;
    pairs = &prepared.Pairs(ResolvedExecution(lead).num_threads,
                            &materialize_seconds);
  } else {
    options.num_shards = lead.execution.shards;
    options.memory_budget_mb = lead.execution.memory_budget_mb;
  }
  std::vector<StreamingResult> runs =
      StreamingExecutor(prep, options, pairs).RunGroup(configs, sinks);
  const double prepare_seconds = prepared.ClaimPrepareSeconds();

  for (size_t k = 0; k < members.size(); ++k) {
    const size_t i = members[k];
    const JobSpec& spec = specs[i];
    Output& output = outputs[i];
    StreamingResult& run = runs[k];
    if (!spec.output.retained_csv.empty()) {
      Status finished =
          FinishRetainedCsv(output.csv, spec.output.retained_csv);
      if (!finished.ok()) {
        out[i] = finished;
        continue;
      }
    }
    JobResult& result = output.result;
    result.metrics = run.metrics;
    result.blocking_quality = prep.blocking_quality;
    result.num_blocks = prep.blocks.size();
    result.num_candidates = prep.num_candidates();
    result.training_size = run.training_size;
    result.model_coefficients = std::move(run.model_coefficients);
    if (k == 0) run.phases.Add(obs::Phase::kPairs, materialize_seconds);
    ApplyPhaseTimings(run.phases, k == 0 ? prepare_seconds : 0.0, &result);
    result.shards_used = run.num_shards_used;
    result.sweeps = run.sweeps;

    result.dataset_fingerprint = prepared.dataset_fingerprint;
    result.prepared_digest = prepared.prepared_digest;
    result.retained_digest = output.digest.Value();
    result.retained_count = output.digest.count;
    GSMB_LOG_INFO("run.done", {"backend", result.backend},
                  {"retained", output.digest.count},
                  {"shards", run.num_shards_used},
                  {"retained_digest",
                   obs::DigestHex(result.retained_digest)});
    out[i] = std::move(result);
  }
  return out;
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
    return std::move(RunExecutorOn({spec}, prepared, batch_).front());
  }

  std::vector<Result<JobResult>> ExecutePreparedGroup(
      const std::vector<JobSpec>& specs,
      const PreparedInputs& prepared) const override {
    return RunExecutorOn(specs, prepared, batch_);
  }

  Result<JobResult> Execute(const JobSpec& spec) const override {
    Result<PreparedHandle> prepared = BuildPreparedInputs(spec);
    if (!prepared.ok()) return prepared.status();
    return ExecutePrepared(spec, **prepared);
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
