// CSV persistence for entity collections and ground truths.
//
// Formats:
//   Entity collection:  id,attribute,value   (one row per attribute;
//                       entities appear in contiguous runs of rows)
//   Ground truth:       left_id,right_id     (external ids)
//
// This is both how the synthetic datasets are exported for inspection and
// how downstream users feed their own data into the library (see
// examples/product_linkage.cc).

#ifndef GSMB_DATASETS_IO_H_
#define GSMB_DATASETS_IO_H_

#include <string>

#include "er/entity_collection.h"
#include "er/ground_truth.h"

namespace gsmb {

/// Writes a collection as id,attribute,value rows with a header.
void SaveCollectionCsv(const EntityCollection& collection,
                       const std::string& path);

/// Reads a collection; rows with the same id (consecutive or not) merge
/// into one profile. A file without rows, like a header-only one, reads as
/// an empty collection. Throws std::runtime_error on malformed input.
EntityCollection LoadCollectionCsv(const std::string& path,
                                   const std::string& collection_name = "");

/// Writes ground truth as left_id,right_id rows (external ids).
void SaveGroundTruthCsv(const GroundTruth& gt, const EntityCollection& left,
                        const EntityCollection& right,
                        const std::string& path);

/// Reads ground truth given the two collections (resolves external ids to
/// dense ids; for Dirty ER pass the same collection twice and dirty=true).
GroundTruth LoadGroundTruthCsv(const std::string& path,
                               const EntityCollection& left,
                               const EntityCollection& right,
                               bool dirty = false);

}  // namespace gsmb

#endif  // GSMB_DATASETS_IO_H_
