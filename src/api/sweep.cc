#include "gsmb/sweep.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "api/backends.h"
#include "api/json.h"
#include "api/spec_json.h"
#include "gsmb/log.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

template <typename T>
json::Array NamesArray(const std::vector<T>& values,
                       std::string (*name_of)(T)) {
  json::Array out;
  out.reserve(values.size());
  for (const T& value : values) out.emplace_back(name_of(value));
  return out;
}

std::string PruningAxisName(PruningKind kind) { return PruningShortName(kind); }
std::string ClassifierAxisName(ClassifierKind kind) {
  return std::string(ClassifierShortName(kind));
}

/// Parses one string-valued axis array through a Parse* helper.
template <typename T, typename ParseFn>
Status ParseNameAxis(const json::Value& value, const char* path, ParseFn parse,
                     std::vector<T>* out) {
  if (!value.is_array()) {
    return Status::InvalidArgument(std::string(path) +
                                   ": expected an array of strings");
  }
  out->clear();
  for (const json::Value& item : value.AsArray()) {
    if (!item.is_string()) {
      return Status::InvalidArgument(std::string(path) +
                                     ": expected an array of strings");
    }
    Result<T> parsed = parse(item.AsString());
    if (!parsed.ok()) {
      return Status::InvalidArgument(std::string(path) + ": " +
                                     parsed.status().message());
    }
    out->push_back(*parsed);
  }
  return Status::Ok();
}

template <typename T>
Status ParseCountAxis(const json::Value& value, const char* path,
                      std::vector<T>* out) {
  if (!value.is_array()) {
    return Status::InvalidArgument(
        std::string(path) + ": expected an array of non-negative integers");
  }
  out->clear();
  for (const json::Value& item : value.AsArray()) {
    if (!item.is_u64()) {
      return Status::InvalidArgument(
          std::string(path) + ": expected an array of non-negative integers");
    }
    out->push_back(static_cast<T>(item.AsU64()));
  }
  return Status::Ok();
}

/// Rejects an axis with repeated values: duplicate variants would collide
/// on labels (and retained_dir file names) while adding no information.
template <typename T, typename KeyFn>
Status RejectDuplicates(const std::vector<T>& values, const char* path,
                        KeyFn key_of) {
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = i + 1; j < values.size(); ++j) {
      if (key_of(values[i]) == key_of(values[j])) {
        return Status::InvalidArgument(std::string(path) +
                                       ": duplicate value '" +
                                       key_of(values[i]) + "'");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string SweepSpec::ToJson(int indent) const {
  json::Object root;
  root["version"] = json::Value(version);
  root["base"] = api::JobSpecToJsonValue(base);

  json::Object axes_obj;
  if (!axes.schemes.empty()) {
    json::Array schemes;
    for (const std::string& scheme : axes.schemes) {
      schemes.emplace_back(scheme);
    }
    axes_obj["scheme"] = json::Value(std::move(schemes));
  }
  if (!axes.pruning.empty()) {
    axes_obj["pruning"] = json::Value(NamesArray(axes.pruning,
                                                 &PruningAxisName));
  }
  if (!axes.features.empty()) {
    json::Array features;
    for (const FeatureSet& set : axes.features) {
      features.emplace_back(FeatureSetSpecName(set));
    }
    axes_obj["features"] = json::Value(std::move(features));
  }
  if (!axes.classifiers.empty()) {
    axes_obj["classifier"] =
        json::Value(NamesArray(axes.classifiers, &ClassifierAxisName));
  }
  if (!axes.labels_per_class.empty()) {
    json::Array labels;
    for (size_t value : axes.labels_per_class) labels.emplace_back(value);
    axes_obj["labels_per_class"] = json::Value(std::move(labels));
  }
  if (!axes.seeds.empty()) {
    json::Array seeds;
    for (uint64_t value : axes.seeds) seeds.emplace_back(value);
    axes_obj["seeds"] = json::Value(std::move(seeds));
  }
  root["axes"] = json::Value(std::move(axes_obj));

  if (!retained_dir.empty()) {
    root["retained_dir"] = json::Value(retained_dir);
  }
  return json::Dump(json::Value(std::move(root)), indent);
}

Result<SweepSpec> SweepSpec::FromJson(const std::string& text) {
  Result<json::Value> parsed = json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument(
        "a sweep spec must be a JSON object, got " +
        std::string(json::Value::KindName(parsed->kind())));
  }

  SweepSpec sweep;
  const json::Object& root = parsed->AsObject();

  // Version first, same contract as JobSpec.
  const json::Value* version = root.Find("version");
  if (version == nullptr) {
    return Status::InvalidArgument(
        "sweep.version is required (current version: " +
        std::to_string(kSweepSpecVersion) + ")");
  }
  if (!version->is_u64()) {
    return Status::InvalidArgument(
        "sweep.version: expected a non-negative integer");
  }
  sweep.version = version->AsU64();
  if (sweep.version != kSweepSpecVersion) {
    return Status::InvalidArgument(
        "unsupported sweep version " + std::to_string(sweep.version) +
        " (this build reads version " + std::to_string(kSweepSpecVersion) +
        ")");
  }

  for (const auto& [key, value] : root.members()) {
    if (key == "version") continue;
    if (key == "base") {
      Result<JobSpec> base =
          api::JobSpecFromJsonValue(value, JobSpec(), "sweep.base");
      if (!base.ok()) return base.status();
      sweep.base = *base;
    } else if (key == "axes") {
      if (!value.is_object()) {
        return Status::InvalidArgument("sweep.axes: expected an object");
      }
      for (const auto& [axis, axis_value] : value.AsObject().members()) {
        Status parsed_axis = Status::Ok();
        if (axis == "scheme") {
          parsed_axis = ParseNameAxis(axis_value, "sweep.axes.scheme",
                                      ParseBlockingScheme,
                                      &sweep.axes.schemes);
        } else if (axis == "pruning") {
          parsed_axis = ParseNameAxis(axis_value, "sweep.axes.pruning",
                                      ParsePruningName, &sweep.axes.pruning);
        } else if (axis == "features") {
          parsed_axis = ParseNameAxis(axis_value, "sweep.axes.features",
                                      ParseFeatureSetName,
                                      &sweep.axes.features);
        } else if (axis == "classifier") {
          parsed_axis = ParseNameAxis(axis_value, "sweep.axes.classifier",
                                      ParseClassifierName,
                                      &sweep.axes.classifiers);
        } else if (axis == "labels_per_class") {
          parsed_axis = ParseCountAxis(axis_value,
                                       "sweep.axes.labels_per_class",
                                       &sweep.axes.labels_per_class);
        } else if (axis == "seeds") {
          parsed_axis =
              ParseCountAxis(axis_value, "sweep.axes.seeds", &sweep.axes.seeds);
        } else {
          return Status::InvalidArgument(
              "unknown key '" + axis +
              "' in sweep.axes (the spec rejects unrecognized settings "
              "rather than ignore them)");
        }
        if (!parsed_axis.ok()) return parsed_axis;
      }
    } else if (key == "retained_dir") {
      if (!value.is_string()) {
        return Status::InvalidArgument("sweep.retained_dir: expected a string");
      }
      sweep.retained_dir = value.AsString();
    } else {
      return Status::InvalidArgument(
          "unknown key '" + key +
          "' in sweep (the spec rejects unrecognized settings rather than "
          "ignore them)");
    }
  }
  return sweep;
}

Result<SweepSpec> SweepSpec::FromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open sweep file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<SweepSpec> sweep = FromJson(buffer.str());
  if (!sweep.ok()) {
    return Status(sweep.status().code(),
                  path + ": " + sweep.status().message());
  }
  return sweep;
}

// ---------------------------------------------------------------------------
// Validation / expansion
// ---------------------------------------------------------------------------

Status SweepSpec::Validate() const {
  if (version != kSweepSpecVersion) {
    return Status::InvalidArgument("unsupported sweep version " +
                                   std::to_string(version));
  }
  Status base_valid = base.Validate();
  if (!base_valid.ok()) {
    return Status(base_valid.code(),
                  "sweep.base: " + base_valid.message());
  }
  if (!base.output.retained_csv.empty()) {
    return Status::InvalidArgument(
        "sweep.base.output.retained_csv must be empty: one path cannot "
        "hold a grid of results (use retained_dir for per-variant CSVs)");
  }
  Status unique = RejectDuplicates(axes.schemes, "sweep.axes.scheme",
                                   [](const std::string& s) { return s; });
  if (!unique.ok()) return unique;
  // The scheme axis changes the preparation itself, so each value must
  // yield a spec this build can prepare: registry membership AND the
  // base's per-scheme params, checked the same way a plain Run would.
  for (const std::string& scheme : axes.schemes) {
    JobSpec variant = base;
    variant.blocking.scheme = scheme;
    Status scheme_valid = variant.Validate();
    if (!scheme_valid.ok()) {
      return Status(scheme_valid.code(), "sweep.axes.scheme '" + scheme +
                                             "': " + scheme_valid.message());
    }
  }
  unique = RejectDuplicates(axes.pruning, "sweep.axes.pruning",
                            [](PruningKind k) {
                              return PruningShortName(k);
                            });
  if (!unique.ok()) return unique;
  unique = RejectDuplicates(axes.features, "sweep.axes.features",
                            [](const FeatureSet& s) {
                              return FeatureSetSpecName(s);
                            });
  if (!unique.ok()) return unique;
  unique = RejectDuplicates(axes.classifiers, "sweep.axes.classifier",
                            [](ClassifierKind k) {
                              return std::string(ClassifierShortName(k));
                            });
  if (!unique.ok()) return unique;
  unique = RejectDuplicates(axes.labels_per_class,
                            "sweep.axes.labels_per_class",
                            [](size_t v) { return std::to_string(v); });
  if (!unique.ok()) return unique;
  unique = RejectDuplicates(axes.seeds, "sweep.axes.seeds",
                            [](uint64_t v) { return std::to_string(v); });
  if (!unique.ok()) return unique;
  for (size_t labels : axes.labels_per_class) {
    if (labels < 1) {
      return Status::InvalidArgument(
          "sweep.axes.labels_per_class values must be >= 1");
    }
  }
  return Status::Ok();
}

size_t SweepSpec::GridSize() const {
  auto dim = [](size_t n) { return n == 0 ? size_t{1} : n; };
  return dim(axes.schemes.size()) * dim(axes.pruning.size()) *
         dim(axes.features.size()) * dim(axes.classifiers.size()) *
         dim(axes.labels_per_class.size()) * dim(axes.seeds.size());
}

std::vector<JobSpec> SweepSpec::Expand() const {
  // An empty axis contributes the base's single value, so every loop below
  // runs at least once and the expansion order is exactly the documented
  // scheme -> pruning -> features -> classifier -> labels -> seeds nesting.
  // Scheme is outermost so variants sharing a preparation are contiguous.
  const std::vector<std::string> schemes =
      axes.schemes.empty() ? std::vector<std::string>{base.blocking.scheme}
                           : axes.schemes;
  const std::vector<PruningKind> prunings =
      axes.pruning.empty() ? std::vector<PruningKind>{base.pruning.kind}
                           : axes.pruning;
  const std::vector<FeatureSet> features =
      axes.features.empty() ? std::vector<FeatureSet>{base.features}
                            : axes.features;
  const std::vector<ClassifierKind> classifiers =
      axes.classifiers.empty() ? std::vector<ClassifierKind>{base.classifier}
                               : axes.classifiers;
  const std::vector<size_t> labels =
      axes.labels_per_class.empty()
          ? std::vector<size_t>{base.training.labels_per_class}
          : axes.labels_per_class;
  const std::vector<uint64_t> seeds =
      axes.seeds.empty() ? std::vector<uint64_t>{base.training.seed}
                         : axes.seeds;

  std::vector<JobSpec> variants;
  variants.reserve(GridSize());
  for (const std::string& scheme : schemes) {
    for (PruningKind pruning : prunings) {
      for (const FeatureSet& feature_set : features) {
        for (ClassifierKind classifier : classifiers) {
          for (size_t labels_per_class : labels) {
            for (uint64_t seed : seeds) {
              JobSpec variant = base;
              variant.blocking.scheme = scheme;
              variant.pruning.kind = pruning;
              variant.features = feature_set;
              variant.classifier = classifier;
              variant.training.labels_per_class = labels_per_class;
              variant.training.seed = seed;
              variants.push_back(std::move(variant));
            }
          }
        }
      }
    }
  }
  return variants;
}

bool SweepSpec::operator==(const SweepSpec& other) const {
  return version == other.version && base == other.base &&
         axes.schemes == other.axes.schemes &&
         axes.pruning == other.axes.pruning &&
         axes.features == other.axes.features &&
         axes.classifiers == other.axes.classifiers &&
         axes.labels_per_class == other.axes.labels_per_class &&
         axes.seeds == other.axes.seeds &&
         retained_dir == other.retained_dir;
}

std::string SweepVariantLabel(const JobSpec& variant) {
  std::string features = FeatureSetSpecName(variant.features);
  // A custom feature list serializes with commas; '+' keeps the label one
  // filesystem-safe token. Scheme names are already filesystem-safe
  // (lowercase words joined by '-').
  std::replace(features.begin(), features.end(), ',', '+');
  return variant.blocking.scheme + "_" +
         PruningShortName(variant.pruning.kind) + "_" + features + "_" +
         ClassifierShortName(variant.classifier) + "_l" +
         std::to_string(variant.training.labels_per_class) + "_s" +
         std::to_string(variant.training.seed);
}

// ---------------------------------------------------------------------------
// Engine::RunSweep
// ---------------------------------------------------------------------------

Result<SweepResult> Engine::RunSweep(const SweepSpec& sweep) const {
  Status valid = sweep.Validate();
  if (!valid.ok()) return valid;

  Stopwatch total_watch;

  std::vector<JobSpec> variants = sweep.Expand();

  // One preparation per distinct dataset+blocking section — without a
  // scheme axis that is the single shared base preparation. The handles
  // live in this map for the whole sweep, so the cache's LRU can never
  // evict (and force a re-preparation of) a scheme mid-sweep.
  const PrepareCacheStats before = prepare_cache_stats();
  std::vector<std::string> variant_keys;
  variant_keys.reserve(variants.size());
  std::map<std::string, PreparedHandle> handles;
  double prepare_seconds = 0.0;
  for (const JobSpec& variant : variants) {
    std::string key = PrepareCacheKey(variant);
    if (handles.find(key) == handles.end()) {
      Result<PreparedHandle> prepared = Prepare(variant);
      if (!prepared.ok()) {
        return Status(prepared.status().code(),
                      "sweep: preparing scheme '" + variant.blocking.scheme +
                          "': " + prepared.status().message());
      }
      prepare_seconds += (*prepared)->prepare_seconds;
      handles.emplace(key, *prepared);
    }
    variant_keys.push_back(std::move(key));
  }
  const PrepareCacheStats after = prepare_cache_stats();

  if (!sweep.retained_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(sweep.retained_dir, ec);
    if (ec) {
      return Status::NotFound("cannot create sweep.retained_dir '" +
                              sweep.retained_dir + "': " + ec.message());
    }
  }

  GSMB_LOG_INFO("sweep.start", {"variants", variants.size()},
                {"preparations", handles.size()},
                {"cache_hits", after.hits - before.hits},
                {"cache_misses", after.misses - before.misses});
  SweepResult result;
  result.variants.resize(variants.size());
  result.cache_hits = after.hits - before.hits;
  result.cache_misses = after.misses - before.misses;
  result.prepare_seconds = prepare_seconds;

  for (size_t i = 0; i < variants.size(); ++i) {
    SweepVariant& out = result.variants[i];
    out.spec = std::move(variants[i]);
    out.label = SweepVariantLabel(out.spec);
    if (!sweep.retained_dir.empty()) {
      out.spec.output.retained_csv =
          sweep.retained_dir + "/" + out.label + ".csv";
    }
  }

  // Score once, prune many: variants that differ only in pruning (and so
  // in their output path) read the same classifier probabilities, so each
  // such group is dispatched once and scored once. Groups are ordered by
  // their first variant, members in expansion order.
  auto scoring_key = [](JobSpec spec) {
    spec.pruning = PruningSpec();
    spec.output.retained_csv.clear();
    return spec;
  };
  std::vector<JobSpec> group_keys;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < result.variants.size(); ++i) {
    JobSpec key = scoring_key(result.variants[i].spec);
    size_t g = 0;
    while (g < groups.size() && !(group_keys[g] == key)) ++g;
    if (g == groups.size()) {
      group_keys.push_back(std::move(key));
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }

  // Groups are independent, deterministic jobs; run them in parallel with
  // work stealing: every slot pulls the next unclaimed group off a shared
  // atomic counter, so a skewed grid (BLAST vs LCP-heavy groups differ >2x
  // in cost) never stalls on a static stripe. Results still land in
  // expansion order regardless of which slot ran which group.
  const size_t threads = api::ResolvedExecution(sweep.base).num_threads;
  const size_t slots = std::min(std::max<size_t>(threads, 1), groups.size());
  std::atomic<size_t> next_group{0};
  ParallelFor(slots, slots, [&](size_t slot_begin, size_t slot_end) {
    (void)slot_begin;
    (void)slot_end;
    for (;;) {
      const size_t g = next_group.fetch_add(1, std::memory_order_relaxed);
      if (g >= groups.size()) break;
      std::vector<JobSpec> specs;
      for (size_t i : groups[g]) specs.push_back(result.variants[i].spec);
      std::vector<Result<JobResult>> runs = ExecuteGroup(
          specs, *handles.at(variant_keys[groups[g].front()]));
      for (size_t k = 0; k < groups[g].size(); ++k) {
        SweepVariant& out = result.variants[groups[g][k]];
        if (runs[k].ok()) {
          out.result = std::move(*runs[k]);
          out.status = Status::Ok();
          GSMB_LOG_INFO("sweep.variant.done", {"label", out.label},
                        {"retained", out.result.retained_count});
        } else {
          out.status = runs[k].status();
          GSMB_LOG_WARN("sweep.variant.failed", {"label", out.label},
                        {"error", runs[k].status().message()});
        }
      }
    }
  });

  // Merge in expansion order — deterministic however the variants were
  // scheduled above.
  for (const SweepVariant& variant : result.variants) {
    if (variant.status.ok()) {
      result.telemetry.MergeFrom(variant.result.telemetry);
    }
  }
  result.telemetry.counters["prepare.cache.hit"] += result.cache_hits;
  result.telemetry.counters["prepare.cache.miss"] += result.cache_misses;

  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace gsmb
