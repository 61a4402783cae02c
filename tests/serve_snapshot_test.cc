// Snapshot round-trip tests: a restored session must serve (retained set,
// queries) and evolve (further AddProfiles/Refresh) exactly like the
// original.

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/dirty_generator.h"
#include "schemes/scheme_registry.h"
#include "serve/session.h"
#include "serve/serving_model.h"

namespace gsmb {
namespace {

DirtySpec TestSpec(size_t num_entities, uint64_t seed) {
  DirtySpec spec;
  spec.name = "snapshot-test";
  spec.num_entities = num_entities;
  spec.seed = seed;
  return spec;
}

const GeneratedDirty& TestData() {
  static const GeneratedDirty data =
      DirtyGenerator().Generate(TestSpec(400, 31));
  return data;
}

const ServingModel& TestModel() {
  static const ServingModel model = [] {
    GeneratedDirty labelled = DirtyGenerator().Generate(TestSpec(300, 5));
    JobInputs inputs;
    inputs.e1 = std::move(labelled.entities);
    inputs.dirty = true;
    inputs.ground_truth = std::move(labelled.ground_truth);
    ServingModelTraining training;
    training.train_per_class = 30;
    return TrainServingModelFromPrepared(
        schemes::PrepareInputs(inputs, BlockingSpec{}, 1, "bootstrap"),
        FeatureSet::RcnpOptimal(), training);
  }();
  return model;
}

SessionOptions TestOptions() {
  SessionOptions options;
  options.num_shards = 8;
  options.execution.num_threads = 2;
  return options;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSameQueries(const MetaBlockingSession& a,
                       const MetaBlockingSession& b) {
  for (EntityId id : {EntityId{3}, EntityId{77}, EntityId{200}}) {
    const auto qa = a.QueryCandidates(TestData().entities[id], 8);
    const auto qb = b.QueryCandidates(TestData().entities[id], 8);
    ASSERT_EQ(qa.size(), qb.size()) << "probe " << id;
    for (size_t i = 0; i < qa.size(); ++i) {
      EXPECT_EQ(qa[i].id, qb[i].id) << "probe " << id;
      EXPECT_EQ(qa[i].probability, qb[i].probability) << "probe " << id;
    }
  }
}

TEST(ServeSnapshot, RoundTripPreservesServingState) {
  MetaBlockingSession session(TestOptions(), TestModel());
  session.AddProfiles(TestData().entities.profiles());
  session.Refresh();

  const std::string path = TempPath("session_roundtrip.snap");
  session.Save(path);
  MetaBlockingSession restored = MetaBlockingSession::Load(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.profiles().size(), session.profiles().size());
  EXPECT_EQ(restored.DirtyShardCount(), 0u);
  EXPECT_EQ(restored.RetainedPairs(), session.RetainedPairs());
  EXPECT_EQ(restored.options().pruning, session.options().pruning);
  EXPECT_EQ(restored.model().weights, session.model().weights);
  ExpectSameQueries(session, restored);
}

TEST(ServeSnapshot, MidStreamSnapshotKeepsDirtyMarksAndEquivalence) {
  const auto& profiles = TestData().entities.profiles();
  const size_t n = profiles.size();

  // Snapshot with ingested-but-unrefreshed profiles: dirty marks must
  // survive, and finishing the stream after a restore must land on the
  // same retained set as a cold one-shot build.
  MetaBlockingSession session(TestOptions(), TestModel());
  session.AddProfiles({profiles.begin(), profiles.begin() + n / 2});
  session.Refresh();
  session.AddProfiles({profiles.begin() + n / 2,
                       profiles.begin() + 2 * n / 3});
  const size_t dirty_at_save = session.DirtyShardCount();
  ASSERT_GT(dirty_at_save, 0u);

  const std::string path = TempPath("session_midstream.snap");
  session.Save(path);
  MetaBlockingSession restored = MetaBlockingSession::Load(path);
  std::remove(path.c_str());
  EXPECT_EQ(restored.DirtyShardCount(), dirty_at_save);

  restored.AddProfiles({profiles.begin() + 2 * n / 3, profiles.end()});
  restored.Refresh();

  MetaBlockingSession cold(TestOptions(), TestModel());
  cold.AddProfiles(profiles);
  cold.Refresh();
  EXPECT_EQ(restored.RetainedPairs(), cold.RetainedPairs());
}

TEST(ServeSnapshot, MissingFileThrows) {
  EXPECT_THROW(MetaBlockingSession::Load(TempPath("does_not_exist.snap")),
               std::runtime_error);
}

TEST(ServeSnapshot, RejectsForeignAndTruncatedFiles) {
  const std::string foreign = TempPath("foreign.snap");
  {
    std::ofstream out(foreign, std::ios::binary);
    out << "this is not a session snapshot at all";
  }
  EXPECT_THROW(MetaBlockingSession::Load(foreign), std::runtime_error);
  std::remove(foreign.c_str());

  MetaBlockingSession session(TestOptions(), TestModel());
  session.AddProfiles(
      {TestData().entities.profiles().begin(),
       TestData().entities.profiles().begin() + 50});
  session.Refresh();
  const std::string path = TempPath("truncated.snap");
  session.Save(path);
  // Chop the file roughly in half: Load must fail cleanly, not crash.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(MetaBlockingSession::Load(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gsmb
