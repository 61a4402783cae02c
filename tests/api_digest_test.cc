// Provenance digests: PairSetDigest algebra (order independence, merge,
// single-pair sensitivity), the hex serialization, and the acceptance
// invariant — the retained-set digest is bit-identical across every
// backend, thread count and shard count that retains the same pairs.

#include "gsmb/digest.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "gsmb/engine.h"
#include "gsmb/job_spec.h"

namespace gsmb {
namespace {

// `side` followed by `i`, appended rather than built with operator+ onto
// a temporary, which trips a GCC 12 -Wrestrict false positive at -O3
// (GCC bug 105651).
std::string SideId(char side, int i) {
  std::string id(1, side);
  id += std::to_string(i);
  return id;
}

TEST(PairSetDigest, OrderIndependent) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"a1", "b9"}, {"a2", "b8"}, {"a3", "b7"}, {"a4", "b6"}, {"a5", "b5"},
  };
  obs::PairSetDigest forward;
  for (const auto& [l, r] : pairs) forward.AddPair(l, r);
  obs::PairSetDigest reverse;
  for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
    reverse.AddPair(it->first, it->second);
  }
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward.Value(), reverse.Value());
  EXPECT_EQ(forward.Hex(), reverse.Hex());
}

TEST(PairSetDigest, MergeEqualsSingleAccumulator) {
  obs::PairSetDigest whole;
  obs::PairSetDigest shard_a, shard_b;
  for (int i = 0; i < 10; ++i) {
    const std::string left = SideId('l', i);
    const std::string right = SideId('r', i);
    whole.AddPair(left, right);
    (i % 2 == 0 ? shard_a : shard_b).AddPair(left, right);
  }
  obs::PairSetDigest merged = shard_a;
  merged.MergeFrom(shard_b);
  EXPECT_EQ(merged, whole);
}

TEST(PairSetDigest, SingleFlippedPairChangesTheDigest) {
  obs::PairSetDigest base, flipped, dropped, duplicated;
  for (int i = 0; i < 100; ++i) {
    const std::string left = SideId('l', i);
    const std::string right = SideId('r', i);
    base.AddPair(left, right);
    if (i == 57) {
      flipped.AddPair(right, left);  // swap sides of one pair
    } else {
      flipped.AddPair(left, right);
      dropped.AddPair(left, right);
    }
    duplicated.AddPair(left, right);
  }
  duplicated.AddPair("l57", "r57");
  EXPECT_NE(base.Value(), flipped.Value());
  EXPECT_NE(base.Value(), dropped.Value());
  EXPECT_NE(base.Value(), duplicated.Value());
}

TEST(PairSetDigest, PairBoundaryMatters) {
  // ("ab", "c") and ("a", "bc") concatenate identically; the separator
  // byte must keep them distinct.
  obs::PairSetDigest ab_c, a_bc;
  ab_c.AddPair("ab", "c");
  a_bc.AddPair("a", "bc");
  EXPECT_NE(ab_c.Value(), a_bc.Value());
}

TEST(DigestHex, SixteenLowercaseZeroPaddedDigits) {
  EXPECT_EQ(obs::DigestHex(0), "0000000000000000");
  EXPECT_EQ(obs::DigestHex(0xffffffffffffffffull), "ffffffffffffffff");
  EXPECT_EQ(obs::DigestHex(0x00ab00cd00ef0012ull), "00ab00cd00ef0012");
  const std::string hex = obs::DigestHex(obs::Mix64(1));
  ASSERT_EQ(hex.size(), 16u);
  for (const char c : hex) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                !std::isupper(static_cast<unsigned char>(c)))
        << "bad hex digit '" << c << "'";
  }
}

// ---------------------------------------------------------------------------
// End-to-end invariance: the digest a run reports must depend only on
// WHAT was retained, never on which backend, how many threads, or how
// many shards computed it.
// ---------------------------------------------------------------------------

JobSpec ServingCompatibleSpec() {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = 0.03;
  spec.blocking.filter_ratio = 1.0;  // serving cannot filter
  spec.training.labels_per_class = 15;
  spec.training.seed = 3;
  spec.execution.shards = 1;
  return spec;
}

JobResult MustRun(const JobSpec& spec) {
  Engine engine;
  Result<JobResult> result = engine.Run(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : JobResult{};
}

TEST(DigestInvariance, AcrossBackendsThreadsAndShards) {
  const JobResult reference = MustRun(ServingCompatibleSpec());
  ASSERT_NE(reference.retained_digest, 0u);
  ASSERT_GT(reference.retained_count, 0u);

  struct Variant {
    const char* label;
    ExecutionMode mode;
    size_t threads;
    size_t shards;
  };
  const Variant variants[] = {
      {"batch x8", ExecutionMode::kBatch, 8, 1},
      {"streaming t1 s1", ExecutionMode::kStreaming, 1, 1},
      {"streaming t8 s1", ExecutionMode::kStreaming, 8, 1},
      {"streaming t8 s6", ExecutionMode::kStreaming, 8, 6},
      {"serving t1 s1", ExecutionMode::kServing, 1, 1},
      {"serving t8 s1", ExecutionMode::kServing, 8, 1},
  };
  for (const Variant& variant : variants) {
    JobSpec spec = ServingCompatibleSpec();
    spec.execution.mode = variant.mode;
    spec.execution.options.num_threads = variant.threads;
    spec.execution.shards = variant.shards;
    const JobResult run = MustRun(spec);
    EXPECT_EQ(run.retained_digest, reference.retained_digest)
        << variant.label << ": retained digest diverged";
    EXPECT_EQ(run.retained_count, reference.retained_count)
        << variant.label << ": retained count diverged";
    EXPECT_EQ(run.dataset_fingerprint, reference.dataset_fingerprint)
        << variant.label << ": dataset fingerprint diverged";
    // Every backend — serving included, since its cold build trains from
    // the prepared handle — reports the same preparation digest.
    EXPECT_EQ(run.prepared_digest, reference.prepared_digest)
        << variant.label << ": prepared digest diverged";
  }
}

TEST(DigestInvariance, DifferentSpecMeansDifferentDigest) {
  const JobResult base = MustRun(ServingCompatibleSpec());
  JobSpec stricter = ServingCompatibleSpec();
  stricter.pruning.validity_threshold = 0.95;
  const JobResult other = MustRun(stricter);
  // Same dataset, stricter probability floor: the inputs fingerprint
  // matches while the retained set (and so its digest) moves.
  EXPECT_EQ(base.dataset_fingerprint, other.dataset_fingerprint);
  EXPECT_NE(base.retained_digest, other.retained_digest);
  EXPECT_NE(base.retained_count, other.retained_count);
}

}  // namespace
}  // namespace gsmb
