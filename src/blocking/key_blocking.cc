#include "blocking/key_blocking.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

// Key extraction (tokenising every attribute value) dominates the cost of
// building the table, so profiles chunk finely enough to load-balance.
constexpr size_t kExtractChunkGrain = 256;

// Accumulates key -> (E1 members, E2 members). std::map keeps keys in
// lexicographic order, which makes block ids deterministic across runs and
// platforms.
using KeyTable =
    std::map<std::string, std::pair<std::vector<EntityId>,
                                    std::vector<EntityId>>>;

// Chunk-and-merge extraction: each fixed-grain entity chunk extracts its
// (key, id) rows in scan order, then the chunk outputs fold into the table
// in ascending chunk order — member ids therefore arrive ascending exactly
// as the serial scan produced them, for any thread count. Only the fold
// (cheap map inserts and pushes) stays serial.
void Accumulate(const EntityCollection& collection, bool into_left,
                const KeyFunction& keys, size_t num_threads,
                KeyTable* table) {
  const std::vector<ChunkRange> chunks =
      DeterministicChunks(collection.size(), kExtractChunkGrain);
  std::vector<std::vector<std::pair<std::string, EntityId>>> parts(
      chunks.size());
  ParallelFor(chunks.size(), num_threads,
              [&](size_t chunks_begin, size_t chunks_end) {
                for (size_t c = chunks_begin; c < chunks_end; ++c) {
                  std::vector<std::pair<std::string, EntityId>>& out =
                      parts[c];
                  for (size_t e = chunks[c].begin; e < chunks[c].end; ++e) {
                    const auto id = static_cast<EntityId>(e);
                    for (std::string& key : keys(collection[id])) {
                      out.emplace_back(std::move(key), id);
                    }
                  }
                }
              });

  for (std::vector<std::pair<std::string, EntityId>>& part : parts) {
    for (auto& [key, id] : part) {
      auto& entry = (*table)[std::move(key)];
      if (into_left) {
        entry.first.push_back(id);
      } else {
        entry.second.push_back(id);
      }
    }
    std::vector<std::pair<std::string, EntityId>>().swap(part);
  }
}

// The distinct, sorted union of `derive(token)` over the value tokens.
template <typename Derive>
std::vector<std::string> TokenDerivedKeys(const EntityProfile& profile,
                                          Derive derive) {
  std::vector<std::string> keys;
  for (const std::string& token : profile.DistinctValueTokens()) {
    std::vector<std::string> derived = derive(token);
    keys.insert(keys.end(), std::make_move_iterator(derived.begin()),
                std::make_move_iterator(derived.end()));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace

std::vector<std::string> TokenKeys(const EntityProfile& profile,
                                   size_t min_token_length) {
  std::vector<std::string> tokens = profile.DistinctValueTokens();
  if (min_token_length > 1) {
    std::erase_if(tokens, [min_token_length](const std::string& t) {
      return t.size() < min_token_length;
    });
  }
  return tokens;
}

std::vector<std::string> QGramKeys(const EntityProfile& profile, size_t q) {
  return TokenDerivedKeys(
      profile, [q](const std::string& token) { return QGrams(token, q); });
}

std::vector<std::string> SuffixKeys(const EntityProfile& profile,
                                    size_t min_length) {
  return TokenDerivedKeys(profile, [min_length](const std::string& token) {
    return Suffixes(token, min_length);
  });
}

BlockCollection BuildKeyBlocksCleanClean(const EntityCollection& e1,
                                         const EntityCollection& e2,
                                         const KeyFunction& keys,
                                         size_t num_threads) {
  return BuildKeyBlocksCleanClean(e1, e2, keys, keys, num_threads);
}

BlockCollection BuildKeyBlocksCleanClean(const EntityCollection& e1,
                                         const EntityCollection& e2,
                                         const KeyFunction& keys1,
                                         const KeyFunction& keys2,
                                         size_t num_threads) {
  KeyTable table;
  Accumulate(e1, /*into_left=*/true, keys1, num_threads, &table);
  Accumulate(e2, /*into_left=*/false, keys2, num_threads, &table);

  BlockCollection out(/*clean_clean=*/true, e1.size(), e2.size());
  for (auto& [key, members] : table) {
    if (members.first.empty() || members.second.empty()) continue;
    Block b;
    b.key = key;
    b.left = std::move(members.first);
    b.right = std::move(members.second);
    out.Add(std::move(b));
  }
  return out;
}

BlockCollection BuildKeyBlocksDirty(const EntityCollection& e,
                                    const KeyFunction& keys,
                                    size_t num_threads) {
  KeyTable table;
  Accumulate(e, /*into_left=*/true, keys, num_threads, &table);

  BlockCollection out(/*clean_clean=*/false, e.size(), 0);
  for (auto& [key, members] : table) {
    if (members.first.size() < 2) continue;
    Block b;
    b.key = key;
    b.left = std::move(members.first);
    out.Add(std::move(b));
  }
  return out;
}

}  // namespace gsmb
