#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nvcim/nvm/faults.hpp"

namespace nvcim::cim {

/// One injected column fault, addressed in accelerator coordinates: the
/// column-tile subarray index and the key column within it.
struct ColumnFault {
  std::size_t subarray = 0;  ///< column-tile index
  std::size_t column = 0;    ///< column within the subarray, [0, cols)
  nvm::FaultKind kind = nvm::FaultKind::StuckAtOn;
  std::size_t n_cells = 1;  ///< stuck cells per (row tile, column) segment
};

/// Seed-driven description of a fault storm. The same seed and geometry
/// always generate the same fault set, so tests and benches can replay
/// identical storms against different builds.
struct FaultStormConfig {
  std::uint64_t seed = 0x5EEDFA17ull;
  double column_frac = 0.05;   ///< fraction of (subarray, column) pairs hit
  double stuck_on_frac = 0.5;  ///< of faulted columns, share that stick ON
  std::size_t cells_per_column = 2;
};

/// Result of probing one column's analog cells against their recorded
/// fault-free (pristine) levels.
struct ColumnProbe {
  std::size_t cells = 0;    ///< cells probed
  std::size_t deviant = 0;  ///< cells deviating from pristine beyond round-off
  double max_deviation = 0.0;

  ColumnProbe& operator+=(const ColumnProbe& o) {
    cells += o.cells;
    deviant += o.deviant;
    if (o.max_deviation > max_deviation) max_deviation = o.max_deviation;
    return *this;
  }
};

/// Deterministically sample a fault storm over an n_subarrays × n_columns
/// column grid: ⌊column_frac · total⌋ distinct (subarray, column) pairs,
/// each stuck ON with probability stuck_on_frac (drawn from the same seeded
/// stream). Identical inputs ⇒ identical storms, independent of platform.
std::vector<ColumnFault> generate_fault_storm(const FaultStormConfig& cfg,
                                              std::size_t n_subarrays,
                                              std::size_t n_columns);

}  // namespace nvcim::cim
