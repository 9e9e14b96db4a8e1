#include "strategy/io.h"

#include <memory>

#include "serialize/artifact.h"

namespace dpmm {
namespace strategy_io {

Status SaveStrategy(const Strategy& strategy, const std::string& path) {
  // A standalone strategy file is a store artifact without a (workload,
  // domain) identity: the signature records only the origin, and the
  // domain is the flat cell count (the matrix fixes the true shape).
  serialize::StrategyArtifact artifact;
  artifact.signature = "strategy-file:" +
                       (strategy.name().empty() ? "-" : strategy.name()) +
                       "@" + std::to_string(strategy.num_cells());
  artifact.domain_sizes = {strategy.num_cells()};
  artifact.strategy = std::make_shared<Strategy>(strategy);
  return serialize::SaveStrategyArtifact(artifact, path);
}

Result<Strategy> LoadStrategy(const std::string& path) {
  auto artifact = serialize::LoadStrategyArtifact(path);
  if (!artifact.ok()) return artifact.status();
  return artifact.ValueOrDie().strategy->Materialize();
}

}  // namespace strategy_io
}  // namespace dpmm
