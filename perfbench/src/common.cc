#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "datasets/clean_clean_generator.h"
#include "datasets/dirty_generator.h"
#include "datasets/io.h"
#include "datasets/specs.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr struct {
  Workload workload;
  const char* name;
} kWorkloads[] = {
    {Workload::kDirtyBatch, "dirty-batch"},
    {Workload::kCcSweep, "cc-sweep"},
    {Workload::kServeMixed, "serve-mixed"},
};

// JSON string escaping for the few free-text fields the trace carries.
std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// The collection's profiles in a seeded order; `new_id` maps old ids to
// new ones.
gsmb::EntityCollection Shuffled(const gsmb::EntityCollection& in,
                                gsmb::Rng* rng,
                                std::vector<gsmb::EntityId>* new_id) {
  std::vector<gsmb::EntityId> order(in.size());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  gsmb::EntityCollection out(in.name());
  out.Reserve(in.size());
  new_id->assign(in.size(), 0);
  for (gsmb::EntityId i = 0; i < order.size(); ++i) {
    (*new_id)[order[i]] = i;
    out.Add(in[order[i]]);
  }
  return out;
}

gsmb::GroundTruth Remapped(const gsmb::GroundTruth& in,
                           const std::vector<gsmb::EntityId>& left,
                           const std::vector<gsmb::EntityId>& right) {
  gsmb::GroundTruth out(in.dirty());
  for (const gsmb::MatchPair& match : in.pairs()) {
    out.AddMatch(left[match.left], right[match.right]);
  }
  return out;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const auto& entry : kWorkloads) {
    if (name == entry.name) {
      *out = entry.workload;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  for (const auto& entry : kWorkloads) {
    if (entry.workload == workload) return entry.name;
  }
  return "?";
}

size_t BenchThreads() { return std::min<size_t>(4, gsmb::HardwareThreads()); }

InputFiles InputsIn(const std::string& dir, Workload workload) {
  InputFiles files;
  files.e1 = dir + "/e1.csv";
  if (workload == Workload::kCcSweep) files.e2 = dir + "/e2.csv";
  files.ground_truth = dir + "/ground_truth.csv";
  if (workload == Workload::kServeMixed) {
    files.late = dir + "/late.csv";
    files.all_ground_truth = dir + "/all_ground_truth.csv";
  }
  return files;
}

void GenerateInputs(Workload workload, uint64_t seed, const std::string& dir) {
  // The paper spec's own generator seed fixes the dataset's shape; the
  // workload seed draws the order in which its profiles are written (and
  // so every entity id, the serve-mixed trickle and the training sample).
  // Generator seeds would not do: on the dirty spec they flip the candidate
  // count between ~7.0M and ~12.9M, so figures from different seeds could
  // not be compared.
  const InputFiles files = InputsIn(dir, workload);
  gsmb::Rng rng(seed);
  std::vector<gsmb::EntityId> left;
  std::vector<gsmb::EntityId> right;
  if (workload == Workload::kCcSweep) {
    const gsmb::GeneratedCleanClean data = gsmb::CleanCleanGenerator().Generate(
        gsmb::CleanCleanSpecByName("Movies", 0.25));
    const gsmb::EntityCollection e1 = Shuffled(data.e1, &rng, &left);
    const gsmb::EntityCollection e2 = Shuffled(data.e2, &rng, &right);
    gsmb::SaveCollectionCsv(e1, files.e1);
    gsmb::SaveCollectionCsv(e2, files.e2);
    gsmb::SaveGroundTruthCsv(Remapped(data.ground_truth, left, right), e1, e2,
                             files.ground_truth);
    return;
  }
  // dirty-batch: D50K at scale 0.5 (25K entities); serve-mixed: D10K.
  const gsmb::GeneratedDirty data = gsmb::DirtyGenerator().Generate(
      workload == Workload::kServeMixed ? gsmb::PaperDirtySpecs(1.0)[0]
                                        : gsmb::PaperDirtySpecs(0.5)[1]);
  const gsmb::EntityCollection entities = Shuffled(data.entities, &rng, &left);
  const gsmb::GroundTruth matches = Remapped(data.ground_truth, left, left);
  if (workload != Workload::kServeMixed) {
    gsmb::SaveCollectionCsv(entities, files.e1);
    gsmb::SaveGroundTruthCsv(matches, entities, entities, files.ground_truth);
    return;
  }
  // serve-mixed: every tenth profile of the seeded order arrives late; the
  // session opens on the others and the matches among them.
  constexpr gsmb::EntityId kNotResident = ~gsmb::EntityId{0};
  gsmb::EntityCollection resident(entities.name());
  gsmb::EntityCollection late(entities.name());
  std::vector<gsmb::EntityId> resident_id(entities.size(), kNotResident);
  for (gsmb::EntityId id = 0; id < entities.size(); ++id) {
    if (id % kServeResidentOutOf == kServeResidentOutOf - 1) {
      late.Add(entities[id]);
    } else {
      resident_id[id] = static_cast<gsmb::EntityId>(resident.size());
      resident.Add(entities[id]);
    }
  }
  gsmb::GroundTruth resident_matches(/*dirty=*/true);
  for (const gsmb::MatchPair& match : matches.pairs()) {
    if (resident_id[match.left] != kNotResident &&
        resident_id[match.right] != kNotResident) {
      resident_matches.AddMatch(resident_id[match.left],
                                resident_id[match.right]);
    }
  }
  gsmb::SaveCollectionCsv(resident, files.e1);
  gsmb::SaveCollectionCsv(late, files.late);
  gsmb::SaveGroundTruthCsv(resident_matches, resident, resident,
                           files.ground_truth);
  gsmb::SaveGroundTruthCsv(matches, entities, entities,
                           files.all_ground_truth);
}

gsmb::JobSpec CsvJobSpec(const InputFiles& files) {
  gsmb::JobSpec spec;
  spec.dataset.source = gsmb::DatasetSource::kCsv;
  spec.dataset.e1 = files.e1;
  spec.dataset.e2 = files.e2;
  spec.dataset.ground_truth = files.ground_truth;
  spec.execution.options.num_threads = BenchThreads();
  return spec;
}

gsmb::JobSpec StreamingJobSpec(const InputFiles& files) {
  gsmb::JobSpec spec = CsvJobSpec(files);
  spec.execution.mode = gsmb::ExecutionMode::kStreaming;
  spec.execution.memory_budget_mb = 64;
  return spec;
}

gsmb::JobSpec ServingJobSpec(const InputFiles& files, size_t resident) {
  gsmb::JobSpec spec = CsvJobSpec(files);
  spec.execution.mode = gsmb::ExecutionMode::kServing;
  spec.execution.shards = kServeShards;
  spec.blocking.filter_ratio = 1.0;
  // Batch purging drops |b| > fraction * |E| and the session cap is
  // floor(fraction * |E|): half a profile above the cap gives both 100.
  spec.blocking.purge_size_fraction =
      (static_cast<double>(kServeMaxBlockSize) + 0.5) /
      static_cast<double>(resident);
  return spec;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool HonestPercentile(std::vector<double> values, double p, double* out) {
  const size_t n = values.size();
  if (n == 0) return false;
  // Nearest rank: the smallest value with at least p of the samples at or
  // below it.
  const size_t rank =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(p * n)));
  if (n - rank < 10) return false;
  std::sort(values.begin(), values.end());
  *out = values[rank - 1];
  return true;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Attempt(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Report::Print() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.12g", metrics_[i].second.first);
    out << (i == 0 ? "" : ", ") << Quoted(metrics_[i].first)
        << ": {\"value\": " << value
        << ", \"unit\": " << Quoted(metrics_[i].second.second) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

double Tracer::Time(const std::string& phase, const std::string& call,
                    const std::function<void()>& body, double items) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({phase, call, 0.0, 0.0,
                    open_.empty() ? -1 : open_.back(), items});
  open_.push_back(id);
  const double begin = gsmb::obs::detail::NowMicros();
  body();
  const double end = gsmb::obs::detail::NowMicros();
  open_.pop_back();
  spans_[id].begin_us = begin;
  spans_[id].end_us = end;
  return (end - begin) * 1e-6;
}

double Timed(Tracer* tracer, const std::string& phase, const std::string& call,
             const std::function<void()>& body, double items) {
  if (tracer != nullptr) return tracer->Time(phase, call, body, items);
  gsmb::Stopwatch watch;
  body();
  return watch.ElapsedSeconds();
}

void Tracer::AddLibrarySpans(const std::vector<gsmb::obs::SpanEvent>& spans) {
  library_spans_.insert(library_spans_.end(), spans.begin(), spans.end());
}

bool Tracer::Write(const std::string& path) const {
  // Chrome trace: complete ("X") events; pid 1 holds the benchmark's spans
  // around public calls, pid 2 the library's own phase spans.
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char times[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                  span.begin_us, span.end_us - span.begin_us);
    out << (first ? "" : ",\n") << "{\"name\": " << Quoted(span.name)
        << ", \"ph\": \"X\", " << times
        << ", \"pid\": 1, \"tid\": 0, \"args\": {\"call\": "
        << Quoted(span.call) << ", \"id\": " << i
        << ", \"parent\": " << span.parent;
    if (span.items >= 0.0) out << ", \"items\": " << span.items;
    out << "}}";
    first = false;
  }
  for (const gsmb::obs::SpanEvent& span : library_spans_) {
    std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                  span.ts_us, span.dur_us);
    out << (first ? "" : ",\n") << "{\"name\": " << Quoted(span.name)
        << ", \"ph\": \"X\", " << times << ", \"pid\": 2, \"tid\": "
        << span.tid << ", \"args\": {\"depth\": " << span.depth << "}}";
    first = false;
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
