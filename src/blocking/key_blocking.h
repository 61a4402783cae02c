// Key-based, redundancy-positive blocking: one way to build blocks,
// parameterised by a key function.
//
// Token Blocking (the paper's scheme, Section 5.1), Q-Grams Blocking and
// Suffix Arrays Blocking all follow the same recipe: derive a set of keys
// per profile, then create one block per key. They differ only in the key
// rule, so each is a plain function below (TokenKeys, QGramKeys,
// SuffixKeys) and they share the BuildKeyBlocks* functions. The blocking
// schemes themselves are registered in schemes/scheme_registry.h, which is
// also where datasets are prepared (schemes::PrepareInputs); the serving
// session tokenizes its ingests with TokenKeys, so both block alike.

#ifndef GSMB_BLOCKING_KEY_BLOCKING_H_
#define GSMB_BLOCKING_KEY_BLOCKING_H_

#include <functional>
#include <string>
#include <vector>

#include "blocking/block_collection.h"
#include "er/entity_collection.h"

namespace gsmb {

/// Token Blocking's key rule: the profile's distinct value tokens (from any
/// attribute — schema-agnostic) of at least `min_token_length` characters.
std::vector<std::string> TokenKeys(const EntityProfile& profile,
                                   size_t min_token_length);

/// Q-Grams Blocking's key rule: the distinct overlapping character q-grams
/// of every value token, sorted. Robust to typos (one edit perturbs at most
/// q grams) at the price of more, larger blocks.
std::vector<std::string> QGramKeys(const EntityProfile& profile, size_t q);

/// Suffix Arrays Blocking's key rule: the distinct suffixes of length >=
/// `min_length` of every value token, sorted. The scheme's per-block size
/// cap is applied by its registered Blocker, not here.
std::vector<std::string> SuffixKeys(const EntityProfile& profile,
                                    size_t min_length);

/// Derives the blocking keys of one profile (distinct, order irrelevant).
/// Must be safe to call concurrently on distinct profiles: key extraction
/// parallelises over entity chunks.
using KeyFunction =
    std::function<std::vector<std::string>(const EntityProfile&)>;

/// Builds a Clean-Clean block collection: one block per key that appears in
/// *both* sources (keys confined to one source imply no comparison and are
/// dropped eagerly). Blocks are emitted in lexicographic key order so the
/// output is deterministic. `num_threads` > 1 parallelises key extraction
/// over fixed-grain entity chunks whose outputs fold in chunk order — the
/// collection is bit-identical for any thread count.
BlockCollection BuildKeyBlocksCleanClean(const EntityCollection& e1,
                                         const EntityCollection& e2,
                                         const KeyFunction& keys,
                                         size_t num_threads = 1);

/// As above, with a distinct key function per source. Attribute-clustering
/// blocking needs this: the cluster of an attribute name depends on which
/// collection it comes from.
BlockCollection BuildKeyBlocksCleanClean(const EntityCollection& e1,
                                         const EntityCollection& e2,
                                         const KeyFunction& keys1,
                                         const KeyFunction& keys2,
                                         size_t num_threads = 1);

/// Builds a Dirty block collection: one block per key shared by at least two
/// profiles of the single input collection.
BlockCollection BuildKeyBlocksDirty(const EntityCollection& e,
                                    const KeyFunction& keys,
                                    size_t num_threads = 1);

}  // namespace gsmb

#endif  // GSMB_BLOCKING_KEY_BLOCKING_H_
