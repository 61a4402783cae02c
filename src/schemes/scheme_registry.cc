#include "schemes/scheme_registry.h"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "gsmb/job_spec.h"
#include "gsmb/telemetry.h"
#include "schemes/attribute_clustering.h"
#include "schemes/minhash_lsh.h"
#include "schemes/sorted_neighborhood.h"
#include "util/string_utils.h"

namespace gsmb::schemes {

namespace {

// -- The key-rule schemes ----------------------------------------------------
// token, qgram and suffix: one key rule each (blocking/key_blocking.h) over
// the shared BuildKeyBlocks* functions.

class TokenBlocker : public Blocker {
 public:
  const char* name() const override { return kSchemeToken; }
  const char* description() const override {
    return "one block per distinct value token (schema-agnostic, the "
           "paper's scheme; blocking.min_token_length)";
  }
  Status ValidateParams(const BlockingSpec&) const override {
    // min_token_length >= 1 is a cross-scheme global, checked by
    // JobSpec::Validate.
    return Status::Ok();
  }
  BlockCollection Build(const JobInputs& inputs, const BlockingSpec& blocking,
                        size_t num_threads) const override {
    const size_t min_length = blocking.min_token_length;
    return BuildKeyBlocks(
        inputs,
        [min_length](const EntityProfile& p) {
          return TokenKeys(p, min_length);
        },
        num_threads);
  }
};

class QGramBlocker : public Blocker {
 public:
  const char* name() const override { return kSchemeQGram; }
  const char* description() const override {
    return "one block per overlapping character q-gram (blocking.qgram); "
           "robust to typos";
  }
  Status ValidateParams(const BlockingSpec& blocking) const override {
    if (blocking.qgram < 1) {
      return Status::InvalidArgument("blocking.qgram must be >= 1");
    }
    return Status::Ok();
  }
  BlockCollection Build(const JobInputs& inputs, const BlockingSpec& blocking,
                        size_t num_threads) const override {
    const size_t q = blocking.qgram;
    return BuildKeyBlocks(
        inputs, [q](const EntityProfile& p) { return QGramKeys(p, q); },
        num_threads);
  }
};

class SuffixBlocker : public Blocker {
 public:
  const char* name() const override { return kSchemeSuffix; }
  const char* description() const override {
    return "one block per token suffix (blocking.suffix_min_length), "
           "capped at blocking.suffix_max_block_size per source";
  }
  Status ValidateParams(const BlockingSpec& blocking) const override {
    if (blocking.suffix_min_length < 1) {
      return Status::InvalidArgument(
          "blocking.suffix_min_length must be >= 1");
    }
    if (blocking.suffix_max_block_size < 2) {
      return Status::InvalidArgument(
          "blocking.suffix_max_block_size must be >= 2 (a block needs two "
          "members to imply a comparison)");
    }
    return Status::Ok();
  }
  // The classic frequency cap of Suffix Arrays blocking: blocks larger
  // than suffix_max_block_size are dropped, pruning uninformative short
  // suffixes.
  BlockCollection Build(const JobInputs& inputs, const BlockingSpec& blocking,
                        size_t num_threads) const override {
    const size_t min_length = blocking.suffix_min_length;
    BlockCollection raw = BuildKeyBlocks(
        inputs,
        [min_length](const EntityProfile& p) {
          return SuffixKeys(p, min_length);
        },
        num_threads);
    BlockCollection capped(raw.clean_clean(), raw.num_left_entities(),
                           raw.num_right_entities());
    for (Block& block : raw.mutable_blocks()) {
      if (block.Size() <= blocking.suffix_max_block_size) {
        capped.Add(std::move(block));
      }
    }
    return capped;
  }
};

// -- The registry ------------------------------------------------------------

using Registry = std::map<std::string, std::unique_ptr<Blocker>>;

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

Registry& MutableRegistry() {
  static Registry registry;
  return registry;
}

Status RegisterLocked(std::unique_ptr<Blocker> blocker) {
  Registry& registry = MutableRegistry();
  const std::string name = blocker->name();
  if (registry.count(name) != 0) {
    return Status::InvalidArgument("blocking scheme '" + name +
                                   "' is already registered");
  }
  registry[name] = std::move(blocker);
  return Status::Ok();
}

/// Built-ins register on first registry access, so lookups work without an
/// init call and user registrations can never be shadowed by a late
/// built-in (AlreadyExists fires either way).
void EnsureBuiltins() {
  static const bool once = [] {
    (void)RegisterLocked(std::make_unique<TokenBlocker>());
    (void)RegisterLocked(std::make_unique<QGramBlocker>());
    (void)RegisterLocked(std::make_unique<SuffixBlocker>());
    (void)RegisterLocked(std::make_unique<SortedNeighborhoodBlocker>());
    (void)RegisterLocked(
        std::make_unique<DynamicSortedNeighborhoodBlocker>());
    (void)RegisterLocked(std::make_unique<AttributeClusteringBlocker>());
    (void)RegisterLocked(std::make_unique<MinHashLshBlocker>());
    return true;
  }();
  (void)once;
}

}  // namespace

Status RegisterBlocker(std::unique_ptr<Blocker> blocker) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  EnsureBuiltins();
  return RegisterLocked(std::move(blocker));
}

const Blocker* FindBlocker(const std::string& name) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  EnsureBuiltins();
  const Registry& registry = MutableRegistry();
  const auto it = registry.find(name);
  return it == registry.end() ? nullptr : it->second.get();
}

std::vector<std::string> BlockerNames() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  EnsureBuiltins();
  std::vector<std::string> names;
  names.reserve(MutableRegistry().size());
  for (const auto& [name, blocker] : MutableRegistry()) {
    names.push_back(name);
  }
  return names;  // std::map order: sorted.
}

std::string BlockerNamesJoined() { return Join(BlockerNames(), " | "); }

BlockCollection BuildKeyBlocks(const JobInputs& inputs, const KeyFunction& keys,
                               size_t num_threads) {
  return inputs.dirty
             ? BuildKeyBlocksDirty(inputs.e1, keys, num_threads)
             : BuildKeyBlocksCleanClean(inputs.e1, inputs.e2, keys,
                                        num_threads);
}

PreparedDataset PrepareInputs(const JobInputs& inputs,
                              const BlockingSpec& blocking, size_t num_threads,
                              const std::string& name) {
  if (inputs.ground_truth.dirty() != inputs.dirty) {
    throw std::invalid_argument(
        inputs.dirty
            ? "PrepareInputs: ground truth has Clean-Clean semantics"
            : "PrepareInputs: ground truth has Dirty-ER semantics");
  }
  const Blocker* blocker = FindBlocker(blocking.scheme);
  if (blocker == nullptr) {
    throw std::invalid_argument("blocking scheme '" + blocking.scheme +
                                "' is not registered (expected one of " +
                                BlockerNamesJoined() + ")");
  }
  BlockCollection blocks = [&] {
    GSMB_SPAN("blocking");
    return PreprocessBlocks(blocker->Build(inputs, blocking, num_threads),
                            blocking.purge_size_fraction,
                            blocking.filter_ratio);
  }();
  return PrepareFromBlocks(name, std::move(blocks), inputs.ground_truth,
                           num_threads);
}

}  // namespace gsmb::schemes
