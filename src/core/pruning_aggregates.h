// Chunk-decomposed pruning: the shared accumulation machinery behind both
// the in-memory PruningAlgorithm that MakePruningAlgorithm returns
// (core/pruning.cc) and the bounded-memory StreamingExecutor
// (stream/streaming_executor.cc).
//
// Every pruning algorithm decomposes into three phases over the global
// candidate space [0, num_candidates):
//
//   1. Accumulate — per-chunk partial aggregates (probability sums, per-node
//      contributions, local top-k selections). Chunks are the fixed-grain
//      table of DeterministicChunks(num_candidates), so chunk boundaries
//      depend only on the candidate count — never on the thread count or on
//      how the candidate space is sliced into shards.
//   2. Fold — partial aggregates merge into global state in ascending chunk
//      order. Floating-point addition is not associative, so this fixed fold
//      order is what makes the batch path, the streaming path, and every
//      thread/shard count produce bit-identical aggregates.
//   3. Decide — either a stateless per-pair predicate (weight-based kinds;
//      needs a second sweep over the candidates) or a drain of the
//      accumulated top-k structures (cardinality kinds; no second sweep).
//
// PruneWithAggregator runs both sweeps over one in-memory candidate set;
// the streaming executor runs the same two loops (AccumulateChunks,
// KeepChunks) over one shard-sized slice of chunks at a time, folding after
// each shard, which is the identical fold sequence. That shared code path —
// not a parallel reimplementation — is the bit-identity guarantee.

#ifndef GSMB_CORE_PRUNING_AGGREGATES_H_
#define GSMB_CORE_PRUNING_AGGREGATES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "blocking/candidate_pairs.h"
#include "core/pruning.h"
#include "util/thread_pool.h"

namespace gsmb {

/// One deterministic chunk of the candidate space. `first_index` is the
/// GLOBAL candidate index of `pairs[0]`; over a whole in-memory candidate
/// set it equals the offset into the full arrays, over a streaming shard
/// the arrays are shard-local slices and only `first_index` carries the
/// global position.
struct PairChunkView {
  size_t chunk_index = 0;  ///< position in the global chunk table
  size_t first_index = 0;  ///< global candidate index of pairs[0]
  const CandidatePair* pairs = nullptr;
  const double* probabilities = nullptr;
  size_t count = 0;
};

/// A retained candidate with the probability that retained it, so
/// cardinality algorithms can emit without re-scoring the pair.
struct RetainedCandidate {
  uint32_t index = 0;
  double probability = 0.0;
};

/// Per-worker scratch reused across the chunks one worker accumulates
/// (epoch-marked dense arrays, offer buffers). Opaque to callers.
class AggregatorScratch {
 public:
  virtual ~AggregatorScratch() = default;
};

class PruningAggregator {
 public:
  virtual ~PruningAggregator() = default;

  /// False for BCl: the keep decision is stateless, no aggregation pass is
  /// needed at all.
  virtual bool needs_accumulation() const { return true; }

  /// True for CEP/CNP/RCNP: the retained set is drained from the folded
  /// top-k structures via TakeRetained(); Keep() is unused and no second
  /// sweep over the candidates is required.
  virtual bool emits_from_aggregates() const { return false; }

  virtual std::unique_ptr<AggregatorScratch> MakeScratch() const {
    return nullptr;
  }

  /// Accumulates one chunk's partial aggregates. Thread-safe across
  /// DISTINCT chunks (each chunk owns its output slot). Within a chunk the
  /// sweep runs in ascending candidate order.
  virtual void AccumulateChunk(const PairChunkView& chunk,
                               AggregatorScratch* scratch) = 0;

  /// Folds the partial aggregates of chunks [chunk_begin, chunk_end) into
  /// the global state and releases them. Calls must be sequential, with
  /// ascending non-overlapping ranges that jointly cover every chunk.
  virtual void FoldChunks(size_t chunk_begin, size_t chunk_end) = 0;

  /// Called once, after the last FoldChunks().
  virtual void Finalize() {}

  /// Weight-based decision for candidate `global_index` (valid only after
  /// Finalize()). Pure and thread-safe.
  virtual bool Keep(size_t global_index, const CandidatePair& pair,
                    double probability) const = 0;

  /// Cardinality kinds: drains the retained set, ascending by index.
  virtual std::vector<RetainedCandidate> TakeRetained() { return {}; }
};

/// The candidates of chunks [chunk_begin, chunk_end) of the global chunk
/// table, resident in memory: `pairs[i]` and `probabilities[i]` describe
/// global candidate chunks[chunk_begin].begin + i.
struct ResidentChunks {
  const std::vector<ChunkRange>* chunks = nullptr;
  size_t chunk_begin = 0;
  size_t chunk_end = 0;
  const CandidatePair* pairs = nullptr;
  const double* probabilities = nullptr;
};

/// The accumulate sweep over one resident slice: accumulates its chunks in
/// parallel, then folds them. Slices must arrive in ascending chunk order.
void AccumulateChunks(const ResidentChunks& slice, size_t num_threads,
                      PruningAggregator* aggregator);

/// The keep sweep over one resident slice (weight-based kinds, after
/// Finalize()): the ascending global indices of the candidates Keep()
/// retains, bit-identical for any `num_threads`.
std::vector<uint32_t> KeepChunks(const ResidentChunks& slice,
                                 size_t num_threads,
                                 const PruningAggregator& aggregator);

/// `num_chunks` must equal DeterministicChunks(num_candidates).size(). The
/// context is captured by value (num_nodes, thresholds, budgets, ratio).
std::unique_ptr<PruningAggregator> MakePruningAggregator(
    PruningKind kind, size_t num_chunks, const PruningContext& context);

/// The fully in-memory driver every PruningAlgorithm::Prune delegates to:
/// AccumulateChunks over every chunk, then KeepChunks or the cardinality
/// drain. Bit-identical for any `context.execution.num_threads`.
std::vector<uint32_t> PruneWithAggregator(
    PruningKind kind, const std::vector<CandidatePair>& pairs,
    const std::vector<double>& probabilities, const PruningContext& context);

}  // namespace gsmb

#endif  // GSMB_CORE_PRUNING_AGGREGATES_H_
