#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"

namespace hawkeye::workload {

/// Empirical long-tailed RoCEv2 flow-size distribution (paper §4.1, after
/// the Facebook datacenter study [Roy et al.]): ~80% of flows below 10 MB,
/// ~10% between 10 and 100 MB, ~10% between 100 and 300 MB. Within each
/// band, sizes are log-uniform, which reproduces the heavy mice-flow
/// population the paper calls out (§2.2).
class FlowSizeDistribution {
 public:
  struct Band {
    double cum_prob;       // upper cumulative probability of the band
    std::int64_t lo_bytes;
    std::int64_t hi_bytes;
  };

  /// The paper's distribution.
  static FlowSizeDistribution roce_longtail();

  /// A mice-heavy variant for stress tests (all flows < 1 MB).
  static FlowSizeDistribution mice_only();

  explicit FlowSizeDistribution(std::vector<Band> bands);

  std::int64_t sample(sim::Rng& rng) const;

 private:
  std::vector<Band> bands_;
};

}  // namespace hawkeye::workload
