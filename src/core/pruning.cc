#include "core/pruning.h"

#include "core/pruning_aggregates.h"

namespace gsmb {

namespace {

class AggregatorPruning : public PruningAlgorithm {
 public:
  explicit AggregatorPruning(PruningKind kind) : kind_(kind) {}

  std::vector<uint32_t> Prune(const std::vector<CandidatePair>& pairs,
                              const std::vector<double>& probabilities,
                              const PruningContext& context) const override {
    return PruneWithAggregator(kind_, pairs, probabilities, context);
  }
  PruningKind kind() const override { return kind_; }

 private:
  PruningKind kind_;
};

}  // namespace

const char* PruningKindName(PruningKind kind) {
  switch (kind) {
    case PruningKind::kBCl:
      return "BCl";
    case PruningKind::kWep:
      return "WEP";
    case PruningKind::kWnp:
      return "WNP";
    case PruningKind::kRwnp:
      return "RWNP";
    case PruningKind::kBlast:
      return "BLAST";
    case PruningKind::kCep:
      return "CEP";
    case PruningKind::kCnp:
      return "CNP";
    case PruningKind::kRcnp:
      return "RCNP";
  }
  return "unknown";
}

bool IsWeightBased(PruningKind kind) {
  switch (kind) {
    case PruningKind::kBCl:
    case PruningKind::kWep:
    case PruningKind::kWnp:
    case PruningKind::kRwnp:
    case PruningKind::kBlast:
      return true;
    case PruningKind::kCep:
    case PruningKind::kCnp:
    case PruningKind::kRcnp:
      return false;
  }
  return false;
}

PruningContext PruningContext::FromIndex(const EntityIndex& index,
                                         const BlockCollectionStats& stats) {
  PruningContext ctx;
  ctx.num_nodes = index.num_entities();
  ctx.right_offset = index.clean_clean() ? index.num_left() : 0;
  ctx.cep_k = stats.cep_k;
  ctx.cnp_k = stats.cnp_k;
  return ctx;
}

std::unique_ptr<PruningAlgorithm> MakePruningAlgorithm(PruningKind kind) {
  return std::make_unique<AggregatorPruning>(kind);
}

std::vector<PruningKind> AllPruningKinds() {
  return {PruningKind::kBCl, PruningKind::kWep,  PruningKind::kWnp,
          PruningKind::kRwnp, PruningKind::kBlast, PruningKind::kCep,
          PruningKind::kCnp,  PruningKind::kRcnp};
}

}  // namespace gsmb
