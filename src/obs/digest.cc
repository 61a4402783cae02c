// Digest implementation: platform-stable hashing of datasets, blocked
// preparations and retained-pair sets. See gsmb/digest.h for the
// stability contract (no std::hash anywhere — golden reports are
// compared across machines).

#include "gsmb/digest.h"

#include <cstdio>

#include "blocking/block_collection.h"
#include "core/pipeline.h"
#include "er/ground_truth.h"
#include "gsmb/prepared.h"

namespace gsmb {
namespace obs {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Out-of-band separators: attribute values are arbitrary text, so field
// boundaries are marked with bytes hashing loops also feed through FNV.
constexpr unsigned char kFieldSep = 0x1f;   // unit separator
constexpr unsigned char kRecordSep = 0x1e;  // record separator

uint64_t FnvByte(uint64_t h, unsigned char byte) {
  return (h ^ byte) * kFnvPrime;
}

uint64_t FnvBytes(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) h = FnvByte(h, c);
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h = FnvByte(h, static_cast<unsigned char>(value & 0xff));
    value >>= 8;
  }
  return h;
}

uint64_t FnvDouble(uint64_t h, double value) {
  // Bit pattern, not text: exact, locale-free, and -0.0 != 0.0 never
  // arises from the counting code that produces these.
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return FnvU64(h, bits);
}

uint64_t FingerprintCollection(uint64_t h, const EntityCollection& entities) {
  h = FnvU64(h, entities.size());
  for (EntityId id = 0; id < entities.size(); ++id) {
    const EntityProfile& profile = entities[id];
    h = FnvBytes(h, profile.external_id());
    h = FnvByte(h, kFieldSep);
    for (const Attribute& attribute : profile.attributes()) {
      h = FnvBytes(h, attribute.name);
      h = FnvByte(h, kFieldSep);
      h = FnvBytes(h, attribute.value);
      h = FnvByte(h, kFieldSep);
    }
    h = FnvByte(h, kRecordSep);
  }
  return h;
}

}  // namespace

uint64_t HashBytes(std::string_view bytes, uint64_t seed) {
  return Mix64(FnvBytes(kFnvOffset ^ Mix64(seed), bytes));
}

uint64_t HashPair(std::string_view left, std::string_view right) {
  uint64_t h = kFnvOffset;
  h = FnvBytes(h, left);
  h = FnvByte(h, kFieldSep);
  h = FnvBytes(h, right);
  return Mix64(h);
}

std::string DigestHex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buffer, 16);
}

uint64_t DatasetFingerprint(const JobInputs& inputs) {
  uint64_t h = kFnvOffset;
  h = FnvByte(h, inputs.dirty ? 1 : 0);
  h = FingerprintCollection(h, inputs.e1);
  h = FingerprintCollection(h, inputs.e2);
  h = FnvU64(h, inputs.ground_truth.size());
  for (const MatchPair& match : inputs.ground_truth.pairs()) {
    h = FnvU64(h, match.left);
    h = FnvU64(h, match.right);
  }
  return Mix64(h);
}

uint64_t PreparedStreamDigest(const PreparedDataset& dataset) {
  uint64_t h = kFnvOffset;
  const BlockCollection& blocks = dataset.blocks;
  h = FnvByte(h, blocks.clean_clean() ? 1 : 0);
  h = FnvU64(h, blocks.num_left_entities());
  h = FnvU64(h, blocks.num_right_entities());
  h = FnvU64(h, blocks.size());
  for (const Block& block : blocks.blocks()) {
    h = FnvBytes(h, block.key);
    h = FnvByte(h, kFieldSep);
    for (EntityId id : block.left) h = FnvU64(h, id);
    h = FnvByte(h, kFieldSep);
    for (EntityId id : block.right) h = FnvU64(h, id);
    h = FnvByte(h, kRecordSep);
  }
  h = FnvU64(h, dataset.num_candidates());
  h = FnvDouble(h, dataset.stats.total_comparisons);
  h = FnvU64(h, dataset.stats.total_occurrences);
  return Mix64(h);
}

}  // namespace obs
}  // namespace gsmb
