#include "datasets/io.h"

#include <stdexcept>
#include <unordered_map>

#include "util/csv.h"

namespace gsmb {

void SaveCollectionCsv(const EntityCollection& collection,
                       const std::string& path) {
  std::vector<CsvRow> rows;
  rows.push_back({"id", "attribute", "value"});
  for (const EntityProfile& p : collection.profiles()) {
    for (const Attribute& a : p.attributes()) {
      rows.push_back({p.external_id(), a.name, a.value});
    }
    if (p.attributes().empty()) {
      rows.push_back({p.external_id(), "", ""});
    }
  }
  WriteCsvFile(path, rows);
}

EntityCollection LoadCollectionCsv(const std::string& path,
                                   const std::string& collection_name) {
  std::vector<CsvRow> rows = ReadCsvFile(path);
  EntityCollection collection(collection_name);
  std::unordered_map<std::string, EntityId> by_external;
  // Skip the header row (a zero-byte file has none, and no profiles).
  for (size_t r = 1; r < rows.size(); ++r) {
    const CsvRow& row = rows[r];
    if (row.size() < 3) {
      throw std::runtime_error("LoadCollectionCsv: row " + std::to_string(r) +
                               " has fewer than 3 fields in " + path);
    }
    const std::string& id = row[0];
    auto it = by_external.find(id);
    EntityId eid;
    if (it == by_external.end()) {
      eid = collection.Add(EntityProfile(id));
      by_external.emplace(id, eid);
    } else {
      eid = it->second;
    }
    if (!row[1].empty() || !row[2].empty()) {
      collection[eid].AddAttribute(row[1], row[2]);
    }
  }
  return collection;
}

void SaveGroundTruthCsv(const GroundTruth& gt, const EntityCollection& left,
                        const EntityCollection& right,
                        const std::string& path) {
  std::vector<CsvRow> rows;
  rows.push_back({"left_id", "right_id"});
  for (const MatchPair& m : gt.pairs()) {
    rows.push_back(
        {left[m.left].external_id(), right[m.right].external_id()});
  }
  WriteCsvFile(path, rows);
}

GroundTruth LoadGroundTruthCsv(const std::string& path,
                               const EntityCollection& left,
                               const EntityCollection& right, bool dirty) {
  std::vector<CsvRow> rows = ReadCsvFile(path);
  if (rows.empty()) {
    throw std::runtime_error("LoadGroundTruthCsv: empty file " + path);
  }
  std::unordered_map<std::string, EntityId> left_ids;
  for (EntityId i = 0; i < left.size(); ++i) {
    left_ids.emplace(left[i].external_id(), i);
  }
  std::unordered_map<std::string, EntityId> right_ids;
  for (EntityId i = 0; i < right.size(); ++i) {
    right_ids.emplace(right[i].external_id(), i);
  }

  GroundTruth gt(dirty);
  for (size_t r = 1; r < rows.size(); ++r) {
    const CsvRow& row = rows[r];
    if (row.size() < 2) {
      throw std::runtime_error("LoadGroundTruthCsv: row " +
                               std::to_string(r) + " has fewer than 2 fields");
    }
    auto lit = left_ids.find(row[0]);
    auto rit = right_ids.find(row[1]);
    if (lit == left_ids.end() || rit == right_ids.end()) {
      throw std::runtime_error("LoadGroundTruthCsv: unknown external id in " +
                               path + " at row " + std::to_string(r));
    }
    gt.AddMatch(lit->second, rit->second);
  }
  return gt;
}

}  // namespace gsmb
