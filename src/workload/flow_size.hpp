#pragma once

#include <cstdint>

#include "sim/random.hpp"

namespace hawkeye::workload {

/// One draw from the empirical long-tailed RoCEv2 flow-size distribution
/// (paper §4.1, after the Facebook datacenter study [Roy et al.]): ~80% of
/// flows below 10 MB, ~10% between 10 and 100 MB, ~10% between 100 and
/// 300 MB. Within each band, sizes are log-uniform, which reproduces the
/// heavy mice-flow population the paper calls out (§2.2).
std::int64_t sample_flow_size(sim::Rng& rng);

}  // namespace hawkeye::workload
