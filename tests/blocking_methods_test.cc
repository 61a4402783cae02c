#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "test_support.h"

namespace gsmb {
namespace {

// The token, qgram and suffix schemes, reached through the scheme
// registry (testing::SchemeBlocks builds a scheme's raw blocks).
using testing::MakeTinyCleanClean;
using testing::Scheme;
using testing::SchemeBlocks;
using testing::TinyCleanClean;

const Block* FindBlock(const BlockCollection& bc, const std::string& key) {
  for (const Block& b : bc.blocks()) {
    if (b.key == key) return &b;
  }
  return nullptr;
}

TEST(TokenBlocking, CleanCleanKeepsSharedKeysOnly) {
  TinyCleanClean t = MakeTinyCleanClean();
  BlockCollection bc = SchemeBlocks(t.e1, t.e2);
  EXPECT_TRUE(bc.clean_clean());
  EXPECT_EQ(bc.num_left_entities(), 3u);
  EXPECT_EQ(bc.num_right_entities(), 3u);
  // Shared tokens: alpha (a0, a2 | b0), beta (a0 | b0), gamma (a1 | b1).
  EXPECT_NE(FindBlock(bc, "alpha"), nullptr);
  EXPECT_NE(FindBlock(bc, "beta"), nullptr);
  EXPECT_NE(FindBlock(bc, "gamma"), nullptr);
  // Single-source tokens are dropped.
  EXPECT_EQ(FindBlock(bc, "delta"), nullptr);
  EXPECT_EQ(FindBlock(bc, "unique1"), nullptr);
  EXPECT_EQ(FindBlock(bc, "zeta"), nullptr);
  EXPECT_EQ(bc.size(), 3u);
}

TEST(TokenBlocking, BlockMembersAreCorrect) {
  TinyCleanClean t = MakeTinyCleanClean();
  BlockCollection bc = SchemeBlocks(t.e1, t.e2);
  const Block* alpha = FindBlock(bc, "alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->left, (std::vector<EntityId>{0, 2}));
  EXPECT_EQ(alpha->right, (std::vector<EntityId>{0}));
  EXPECT_EQ(alpha->Size(), 3u);
  EXPECT_DOUBLE_EQ(alpha->Comparisons(true), 2.0);
}

TEST(TokenBlocking, BlocksInLexicographicKeyOrder) {
  TinyCleanClean t = MakeTinyCleanClean();
  BlockCollection bc = SchemeBlocks(t.e1, t.e2);
  std::vector<std::string> keys;
  for (const Block& b : bc.blocks()) keys.push_back(b.key);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(TokenBlocking, DirtyRequiresTwoMembers) {
  EntityCollection c;
  EntityProfile p1("1");
  p1.AddAttribute("t", "shared only1");
  EntityProfile p2("2");
  p2.AddAttribute("t", "shared only2");
  c.Add(std::move(p1));
  c.Add(std::move(p2));
  BlockCollection bc = SchemeBlocks(c);
  EXPECT_FALSE(bc.clean_clean());
  ASSERT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc[0].key, "shared");
  EXPECT_EQ(bc[0].left, (std::vector<EntityId>{0, 1}));
  EXPECT_DOUBLE_EQ(bc[0].Comparisons(false), 1.0);
}

TEST(TokenBlocking, MinTokenLengthFilters) {
  EntityCollection c1;
  EntityProfile p("1");
  p.AddAttribute("t", "ab abcd");
  c1.Add(std::move(p));
  EntityCollection c2;
  EntityProfile q("2");
  q.AddAttribute("t", "ab abcd");
  c2.Add(std::move(q));
  BlockingSpec blocking;
  blocking.min_token_length = 3;
  BlockCollection bc = SchemeBlocks(c1, c2, blocking);
  EXPECT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc[0].key, "abcd");
}

TEST(TokenBlocking, PaperExampleReproduced) {
  // The Figure 1 profiles, as a Dirty collection.
  EntityCollection c;
  auto add = [&](const char* id, const char* text) {
    EntityProfile p(id);
    p.AddAttribute("text", text);
    c.Add(std::move(p));
  };
  add("e1", "Apple iPhone X Smartphone");
  add("e2", "Samsung S20 smartphone");
  add("e3", "iPhone 10 smartphone Apple");
  add("e4", "Samsung 20 smartphone");
  add("e5", "Huawei Mate 20 smartphone");
  add("e6", "Samsung Fold foldable phone");
  add("e7", "Samsung foldable Your perfect mate phone, today 20 % discount");

  BlockCollection bc = SchemeBlocks(c);
  const Block* samsung = FindBlock(bc, "samsung");
  ASSERT_NE(samsung, nullptr);
  EXPECT_EQ(samsung->left, (std::vector<EntityId>{1, 3, 5, 6}));
  const Block* smartphone = FindBlock(bc, "smartphone");
  ASSERT_NE(smartphone, nullptr);
  EXPECT_EQ(smartphone->left, (std::vector<EntityId>{0, 1, 2, 3, 4}));
  const Block* apple = FindBlock(bc, "apple");
  ASSERT_NE(apple, nullptr);
  EXPECT_EQ(apple->left, (std::vector<EntityId>{0, 2}));
}

TEST(QGramBlocking, ProducesGramBlocks) {
  TinyCleanClean t = MakeTinyCleanClean();
  BlockCollection bc = SchemeBlocks(t.e1, t.e2, Scheme("qgram"));
  // "alpha" trigrams: alp, lph, pha — present in both sources via a0/b0.
  EXPECT_NE(FindBlock(bc, "alp"), nullptr);
  EXPECT_NE(FindBlock(bc, "pha"), nullptr);
}

TEST(QGramBlocking, MoreRobustThanTokensToTypos) {
  EntityCollection c1;
  EntityProfile p("1");
  p.AddAttribute("t", "smartphone");
  c1.Add(std::move(p));
  EntityCollection c2;
  EntityProfile q("2");
  q.AddAttribute("t", "smartphome");  // typo
  c2.Add(std::move(q));
  // Token blocking yields no block; 3-gram blocking still links them.
  EXPECT_EQ(SchemeBlocks(c1, c2).size(), 0u);
  EXPECT_GT(SchemeBlocks(c1, c2, Scheme("qgram")).size(), 0u);
}

TEST(SuffixBlocking, EmitsSuffixKeys) {
  EntityCollection c1;
  EntityProfile p("1");
  p.AddAttribute("t", "phone");
  c1.Add(std::move(p));
  EntityCollection c2;
  EntityProfile q("2");
  q.AddAttribute("t", "iphone");
  c2.Add(std::move(q));
  BlockCollection bc = SchemeBlocks(c1, c2, Scheme("suffix"));
  // Shared suffixes of length >= 4: "hone", "phone".
  EXPECT_NE(FindBlock(bc, "hone"), nullptr);
  EXPECT_NE(FindBlock(bc, "phone"), nullptr);
}

TEST(SuffixBlocking, CapsBlockSize) {
  // 10 entities per source sharing the same token: block size 20 > cap 8.
  EntityCollection c1;
  EntityCollection c2;
  for (int i = 0; i < 10; ++i) {
    // std::string{} + avoids the operator+(const char*, string&&) overload,
    // which trips a GCC 12 -Wrestrict false positive at -O3 (GCC PR105651).
    EntityProfile p(std::string{"a"} + std::to_string(i));
    p.AddAttribute("t", "common");
    c1.Add(std::move(p));
    EntityProfile q(std::string{"b"} + std::to_string(i));
    q.AddAttribute("t", "common");
    c2.Add(std::move(q));
  }
  BlockingSpec blocking = Scheme("suffix");
  blocking.suffix_max_block_size = 8;
  BlockCollection bc = SchemeBlocks(c1, c2, blocking);
  EXPECT_EQ(bc.size(), 0u);
}

TEST(BlockCollection, DropEmptyBlocks) {
  BlockCollection bc(/*clean_clean=*/true, 2, 2);
  Block with_pairs;
  with_pairs.key = "good";
  with_pairs.left = {0};
  with_pairs.right = {0};
  bc.Add(with_pairs);
  Block one_sided;
  one_sided.key = "bad";
  one_sided.left = {0, 1};
  bc.Add(one_sided);
  EXPECT_EQ(bc.DropEmptyBlocks(), 1u);
  ASSERT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc[0].key, "good");
}

TEST(BlockCollection, Totals) {
  BlockCollection bc = testing::PaperExampleBlocks();
  // Sizes: 2+2+4+3+5+2+2+2 = 22; comparisons: 1+1+6+3+10+1+1+1 = 24.
  EXPECT_EQ(bc.TotalEntityOccurrences(), 22u);
  EXPECT_DOUBLE_EQ(bc.TotalComparisons(), 24.0);
}


// ---------------------------------------------------------------------------
// Parallel key extraction: chunk-and-merge must be bit-identical to the
// serial scan for every key-based blocking method and any thread count.
// ---------------------------------------------------------------------------

namespace {

void ExpectSameCollections(const BlockCollection& a,
                           const BlockCollection& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.clean_clean(), b.clean_clean());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].left, b[i].left);
    EXPECT_EQ(a[i].right, b[i].right);
  }
}

EntityCollection NoisyProfiles(const char* prefix, size_t count,
                               uint64_t salt) {
  EntityCollection collection;
  for (size_t i = 0; i < count; ++i) {
    EntityProfile p(prefix + std::to_string(i));
    p.AddAttribute("name", std::string{"entity shard"} +
                               std::to_string((i * salt) % 97) + " token" +
                               std::to_string(i % 13));
    p.AddAttribute("desc", std::string{"common word"} +
                               std::to_string((i + salt) % 29));
    collection.Add(std::move(p));
  }
  return collection;
}

}  // namespace

TEST(ParallelKeyExtraction, TokenBlockingDeterministicAcrossThreadCounts) {
  const EntityCollection e1 = NoisyProfiles("a", 700, 3);
  const EntityCollection e2 = NoisyProfiles("b", 650, 7);
  const BlockingSpec token = Scheme("token");
  const BlockCollection serial = SchemeBlocks(e1, e2, token, 1);
  for (size_t threads : {2u, 5u, 8u}) {
    ExpectSameCollections(serial, SchemeBlocks(e1, e2, token, threads));
  }
  const BlockCollection dirty_serial = SchemeBlocks(e1, token, 1);
  ExpectSameCollections(dirty_serial, SchemeBlocks(e1, token, 8));
}

TEST(ParallelKeyExtraction, QGramBlockingDeterministicAcrossThreadCounts) {
  const EntityCollection e1 = NoisyProfiles("a", 400, 5);
  const EntityCollection e2 = NoisyProfiles("b", 380, 11);
  const BlockingSpec qgram = Scheme("qgram");
  ExpectSameCollections(SchemeBlocks(e1, e2, qgram, 1),
                        SchemeBlocks(e1, e2, qgram, 8));
  ExpectSameCollections(SchemeBlocks(e1, qgram, 1),
                        SchemeBlocks(e1, qgram, 6));
}

TEST(ParallelKeyExtraction, SuffixBlockingDeterministicAcrossThreadCounts) {
  const EntityCollection e1 = NoisyProfiles("a", 400, 13);
  const EntityCollection e2 = NoisyProfiles("b", 420, 17);
  const BlockingSpec suffix = Scheme("suffix");
  ExpectSameCollections(SchemeBlocks(e1, e2, suffix, 1),
                        SchemeBlocks(e1, e2, suffix, 8));
  ExpectSameCollections(SchemeBlocks(e1, suffix, 1),
                        SchemeBlocks(e1, suffix, 3));
}


}  // namespace
}  // namespace gsmb
