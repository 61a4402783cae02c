// Internal plumbing shared by the Engine's standard backends.
//
// Each backend's staged entry point is ExecutePreparedGroup(specs,
// prepared) — ExecutePrepared(spec, prepared) is its group of one: the
// Engine loads + blocks + counts ONCE per distinct dataset+blocking pair
// (gsmb/prepared.h, served from the prepare cache) and every backend
// executes its per-configuration stages against that shared, immutable
// handle. The legacy Execute(spec) path builds a private preparation and
// delegates — which is what keeps cross-backend equivalence testable at the
// API boundary: every backend's implied candidate set derives from the SAME
// preparation code.

#ifndef GSMB_API_BACKENDS_H_
#define GSMB_API_BACKENDS_H_

#include <fstream>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"
#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "gsmb/prepared.h"
#include "gsmb/status.h"

namespace gsmb::api {

/// Loads one profile CSV: NotFound when `path` does not exist,
/// InvalidArgument when it parses to zero profiles. `role` names the input
/// in both diagnostics (e.g. "dataset.e1").
Result<EntityCollection> LoadProfilesChecked(const std::string& path,
                                             const std::string& role);

/// Loads CSV files or generates the named synthetic dataset. Missing paths
/// and empty parses are NotFound/InvalidArgument with the offending path.
Result<JobInputs> LoadJobInputs(const JobSpec& spec);

/// The full preparation stage: load inputs, then schemes::PrepareInputs
/// (the spec's scheme, purging/filtering, the counting preparation) — the
/// exact preprocessing every backend's implied candidate set derives
/// from. Everything Engine::Prepare caches; also the uncached path behind
/// each backend's legacy Execute(spec).
Result<PreparedHandle> BuildPreparedInputs(const JobSpec& spec);

/// spec.execution.options with threads == 0 resolved to the hardware count.
ExecutionOptions ResolvedExecution(const JobSpec& spec);
MetaBlockingConfig ConfigFromSpec(const JobSpec& spec);

/// Arena-bytes model shared with StreamingExecutor::PlanShards: per
/// candidate, the pair + feature row + probability + aggregation slack.
uint64_t EstimateCandidateBytes(uint64_t num_candidates, size_t feature_dims);

// -- Retained-pair CSV ------------------------------------------------------
// One writer for every backend, so backends that retain the same pairs in
// the same order produce byte-identical files.

Result<std::ofstream> OpenRetainedCsv(const std::string& path);
void AppendRetainedCsvRow(std::ofstream& out, const std::string& left_id,
                          const std::string& right_id);
Status FinishRetainedCsv(std::ofstream& out, const std::string& path);

/// The one place JobResult timing fields are written. Every backend runs
/// its pipeline against an obs::PhaseTimings (the telemetry clock) and
/// finishes through here: `prepare_seconds` is the handle's one-off cost
/// as PreparedInputs::ClaimPrepareSeconds() returns it (non-zero for the
/// first run against the handle only), added to any in-run re-blocking in
/// Phase::kBlocking; the phase array fills the `*_seconds` breakdown,
/// and the per-run metric snapshot (result->telemetry) is derived from
/// the result's own counters — so all three backends report the same
/// canonical phase set from the same clock.
void ApplyPhaseTimings(const obs::PhaseTimings& phases,
                       double prepare_seconds, JobResult* result);

// -- Backends ---------------------------------------------------------------
// Batch and streaming are one execution core (api/backend_streaming.cc):
// the StreamingExecutor at one shard over the handle's lazily materialised
// O(|C|) pairs (batch), or at the spec's shard count regenerating each
// shard from the counting preparation (streaming); both score a group of
// specs that differ only in pruning once. The serving backend
// trains its resident model from the handle's balanced sample alone and
// never materialises the pairs (the session tokenizes its own ingests).

Result<JobResult> RunServingOn(const JobSpec& spec,
                               const PreparedInputs& prepared);

std::unique_ptr<Executor> MakeBatchBackend();
std::unique_ptr<Executor> MakeStreamingBackend();
std::unique_ptr<Executor> MakeServingBackend();

/// Session construction for the serving backend, shared with
/// Engine::OpenSession: trains the resident model from `prepared` (a
/// preparation of the SAME spec; only its sampled training pairs are read,
/// so `prepared.pairs_materialized()` stays false) and ingests its
/// profiles.
/// `cold_build_universe` pins the CNP entity universe to the profile count
/// (one-shot Run; batch parity); OpenSession leaves it unset for the
/// incremental present-entity semantics. `training_size` (optional)
/// receives the balanced training sample's actual size; `phases`
/// (optional) receives the cold build's phase breakdown — kTrain for the
/// model fit plus the session's accumulated refresh phases.
Result<MetaBlockingSession> BuildServingSession(
    const JobSpec& spec, const PreparedInputs& prepared,
    bool cold_build_universe, size_t* training_size = nullptr,
    obs::PhaseTimings* phases = nullptr);

}  // namespace gsmb::api

#endif  // GSMB_API_BACKENDS_H_
