// gsmb::SweepSpec — a parameter sweep as a first-class, declarative job.
//
// The paper's experiment grids (pruning kind x feature set x classifier x
// training size x seed over one dataset) were previously caller-side loops,
// each Run() re-preparing blocking from scratch. A SweepSpec names the grid
// once — a base JobSpec plus per-axis value lists — and Engine::RunSweep
// expands it, prepares each distinct dataset+blocking exactly once (through
// the engine's prepare cache; without a scheme axis that is ONE shared
// preparation), and reports one structured SweepResult.
//
// Execution scores each group once. Variants that differ only in their
// pruning read the same classifier probabilities (the paper's Generalized
// Supervised Meta-blocking weights the blocking graph once, then any
// pruning algorithm runs over it), so RunSweep groups them — same
// preparation, same features, classifier, labels and seed — and runs the
// groups in parallel against the shared PreparedInputs. The batch and
// streaming backends extract features, train and classify once per group
// and run every pruning kind of the group off that one probability vector.
// Each variant's retained pairs stay bit-identical to an independent Run.
// The group's shared feature/train/classify time is charged to its first
// variant in expansion order; the others report their own prune time only.
//
// Like JobSpec, a SweepSpec serializes to versioned JSON with
// reject-don't-ignore validation:
//
//   {
//     "version": 1,
//     "base": { ...JobSpec object, version and all... },
//     "axes": {
//       "scheme":   ["token", "minhash-lsh", ...],
//       "pruning":  ["bcl", "wep", ...],
//       "features": ["blast", "2014"],
//       "classifier": ["logreg"],
//       "labels_per_class": [25, 250],
//       "seeds": [0, 1, 2]
//     },
//     "retained_dir": "out/"          // optional
//   }
//
// An empty (or absent) axis contributes the base spec's value, so the grid
// size is the product of max(1, |axis|) over the six axes.

#ifndef GSMB_API_SWEEP_H_
#define GSMB_API_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "gsmb/status.h"

namespace gsmb {

/// Version written by SweepSpec::ToJson() and accepted by FromJson().
inline constexpr uint64_t kSweepSpecVersion = 1;

/// The swept axes. Empty axis = the base spec's single value.
struct SweepAxes {
  /// Blocking-scheme names from the scheme registry. The one axis that
  /// changes the preparation itself: each distinct scheme gets its own
  /// prepared handle (one preparation per scheme, held for the sweep).
  std::vector<std::string> schemes;
  std::vector<PruningKind> pruning;
  std::vector<FeatureSet> features;
  std::vector<ClassifierKind> classifiers;
  std::vector<size_t> labels_per_class;
  std::vector<uint64_t> seeds;
};

struct SweepSpec {
  uint64_t version = kSweepSpecVersion;
  /// Every variant inherits this spec; only the axed fields vary. The
  /// base's dataset+blocking sections define the ONE shared preparation.
  JobSpec base;
  SweepAxes axes;
  /// When non-empty, every variant's retained pairs are written to
  /// `<retained_dir>/<variant label>.csv` (the directory is created).
  /// base.output.retained_csv must stay empty — a single path cannot hold
  /// a grid of results.
  std::string retained_dir;

  /// Canonical JSON (schema above); re-parses to an equal spec.
  std::string ToJson(int indent = 2) const;
  static Result<SweepSpec> FromJson(const std::string& text);
  static Result<SweepSpec> FromFile(const std::string& path);

  /// base.Validate() plus sweep-level rules (no per-variant output
  /// collisions, non-empty grid).
  Status Validate() const;

  /// Product of max(1, |axis|) over the axes.
  size_t GridSize() const;

  /// The expanded grid, deterministic order: scheme outermost, then
  /// pruning, features, classifier, labels_per_class, seeds innermost.
  std::vector<JobSpec> Expand() const;

  bool operator==(const SweepSpec& other) const;
};

/// Deterministic, filesystem-safe label of one expanded variant:
/// "<scheme>_<pruning>_<features>_<classifier>_l<labels>_s<seed>" (commas
/// of a custom feature list become '+').
std::string SweepVariantLabel(const JobSpec& variant);

/// One executed grid point.
struct SweepVariant {
  JobSpec spec;
  std::string label;
  /// OK when `result` is meaningful; a failed variant carries its
  /// diagnostic here and never aborts the rest of the sweep.
  Status status;
  JobResult result;
};

struct SweepResult {
  /// Expansion order (see SweepSpec::Expand) — independent of the parallel
  /// execution order.
  std::vector<SweepVariant> variants;
  /// Prepare-cache activity of this sweep: a cold sweep reports one miss
  /// per distinct dataset+blocking (without a scheme axis, exactly 1); a
  /// sweep over already-cached preparations reports hits instead.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// One-off preparation cost, seconds, summed over the sweep's distinct
  /// prepared handles.
  double prepare_seconds = 0.0;
  /// Whole-sweep wall clock (prepare + all variants), seconds.
  double total_seconds = 0.0;
  /// Merge of every successful variant's per-run snapshot (counters sum,
  /// gauges keep their max) plus this sweep's prepare-cache activity as
  /// `prepare.cache.{hit,miss}` counters. Variant snapshots are job-local,
  /// so the merge is deterministic regardless of execution interleaving.
  obs::MetricsSnapshot telemetry;

  bool all_ok() const {
    for (const SweepVariant& v : variants) {
      if (!v.status.ok()) return false;
    }
    return true;
  }
};

}  // namespace gsmb

#endif  // GSMB_API_SWEEP_H_
