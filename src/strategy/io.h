// Strategy persistence. Strategy selection is the expensive step and is
// database-independent (Sec. 1: "it only needs to be performed once for any
// workload, and need not be recomputed to re-run the mechanism on a new
// database instance") — so designed strategies are worth saving and
// shipping alongside the data pipeline.
//
// Standalone strategy files are the same versioned, checksummed binary
// dense strategy artifacts the store uses (serialize/artifact.h), so one
// format covers `design --out` files and `design --save` store entries.
#ifndef DPMM_STRATEGY_IO_H_
#define DPMM_STRATEGY_IO_H_

#include <string>

#include "strategy/strategy.h"
#include "util/status.h"

namespace dpmm {
namespace strategy_io {

/// Writes the strategy as a dense strategy artifact (binary, exact).
[[nodiscard]] Status SaveStrategy(const Strategy& strategy, const std::string& path);

/// Reads a strategy file: a strategy artifact of either engine (implicit
/// strategies are materialized). Anything else is an IoError.
[[nodiscard]] Result<Strategy> LoadStrategy(const std::string& path);

}  // namespace strategy_io
}  // namespace dpmm

#endif  // DPMM_STRATEGY_IO_H_
