// Reference measurements of the host and of single layers that the
// workloads read their per-layer numbers against.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

struct BandwidthProbe {
  /// Last-level cache size reported by the OS (bytes).
  double llcBytes = 0.0;
  /// Bytes the probe streams through per sweep (>= 4x the LLC).
  double arrayBytes = 0.0;
  /// Best sustained read bandwidth over the sweeps (GB/s).
  double gbPerSec = 0.0;
};

/// Host memory read bandwidth with `threads` threads over one array at
/// least four times the last-level cache (capped at 2 GiB).
BandwidthProbe memoryBandwidth(int threads);

/// Median microseconds of one CP-ALS mode update's dense part -- Gram
/// Hadamard, pinvSym, the multiply and normalizeColumns, then the new
/// Gram -- over every mode of a `dims` x `rank` model.
double laModeUpdateMicros(const std::vector<cstf::Index>& dims,
                          std::size_t rank);

}  // namespace perfbench
