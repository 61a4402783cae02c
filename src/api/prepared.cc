#include "gsmb/prepared.h"

#include "blocking/entity_index.h"
#include "gsmb/telemetry.h"
#include "util/stopwatch.h"

namespace gsmb {

const std::vector<CandidatePair>& PreparedInputs::Pairs(
    size_t num_threads, double* materialize_seconds) const {
  // call_once makes the lazy materialisation safe under concurrent Execute
  // calls against one shared handle: every caller gets the same pairs,
  // built exactly once. The winner's thread count shapes only the build's
  // wall clock — GenerateCandidatePairs is bit-identical for any value.
  std::call_once(pairs_once_, [&] {
    // The batch backend's pair-generation phase happens here, inside the
    // handle — span it so a batch trace shows the same canonical phases
    // as a streaming one.
    GSMB_SPAN("pairs");
    Stopwatch watch;
    pairs_ = GenerateCandidatePairs(*dataset.index, num_threads);
    if (materialize_seconds != nullptr) {
      *materialize_seconds = watch.ElapsedSeconds();
    }
    pairs_ready_.store(true, std::memory_order_release);
  });
  return pairs_;
}

namespace {

size_t ProfileBytes(const EntityCollection& collection) {
  size_t bytes = collection.size() * sizeof(EntityProfile);
  for (const EntityProfile& profile : collection.profiles()) {
    bytes += profile.external_id().size();
    for (const Attribute& attribute : profile.attributes()) {
      bytes += sizeof(Attribute) + attribute.name.size() +
               attribute.value.size();
    }
  }
  return bytes;
}

size_t GroundTruthBytes(const GroundTruth& gt) {
  // Pair vector plus the hash-set index (bucket + node overhead estimate).
  return gt.size() * (sizeof(MatchPair) + 4 * sizeof(uint64_t));
}

size_t BlockBytes(const BlockCollection& blocks) {
  size_t bytes = blocks.size() * sizeof(Block);
  for (const Block& block : blocks.blocks()) {
    bytes += block.key.size() +
             (block.left.size() + block.right.size()) * sizeof(EntityId);
  }
  return bytes;
}

size_t IndexBytes(const EntityIndex& index) {
  // Both CSR directions carry Σ|b| uint32 entries plus per-entity offsets
  // and four per-entity aggregate arrays.
  return index.TotalEntityOccurrences() * 2 * sizeof(uint32_t) +
         index.num_entities() * (2 * sizeof(size_t) + 4 * sizeof(double)) +
         index.num_blocks() * (sizeof(uint32_t) + sizeof(double));
}

}  // namespace

size_t PreparedInputs::ApproxBytes() const {
  size_t bytes = sizeof(PreparedInputs) + cache_key.size();
  bytes += ProfileBytes(inputs.e1) + ProfileBytes(inputs.e2);
  // The ground truth is held twice (inputs + the counting preparation).
  bytes += 2 * GroundTruthBytes(inputs.ground_truth);
  bytes += BlockBytes(dataset.blocks);
  if (dataset.index != nullptr) bytes += IndexBytes(*dataset.index);
  bytes += dataset.pivot_offsets.size() * sizeof(uint64_t);
  bytes += dataset.positive_indices.size() * sizeof(uint64_t);
  if (pairs_materialized()) bytes += pairs_.size() * sizeof(CandidatePair);
  return bytes;
}

}  // namespace gsmb
