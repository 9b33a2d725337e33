#include "workload/flow_size.hpp"

#include <cmath>
#include <stdexcept>

namespace hawkeye::workload {

FlowSizeDistribution FlowSizeDistribution::roce_longtail() {
  return FlowSizeDistribution({
      // 60% mice below 100 KB, 20% up to 10 MB (=> 80% < 10 MB),
      // 10% in 10–100 MB, 10% in 100–300 MB.
      {0.60, 1'000, 100'000},
      {0.80, 100'000, 10'000'000},
      {0.90, 10'000'000, 100'000'000},
      {1.00, 100'000'000, 300'000'000},
  });
}

FlowSizeDistribution FlowSizeDistribution::mice_only() {
  return FlowSizeDistribution({
      {0.80, 1'000, 64'000},
      {1.00, 64'000, 1'000'000},
  });
}

FlowSizeDistribution::FlowSizeDistribution(std::vector<Band> bands)
    : bands_(std::move(bands)) {
  if (bands_.empty() || bands_.back().cum_prob != 1.0) {
    throw std::invalid_argument("flow-size bands must end at cum_prob 1.0");
  }
  double prev = 0;
  for (const Band& b : bands_) {
    if (b.cum_prob <= prev || b.lo_bytes <= 0 || b.hi_bytes < b.lo_bytes) {
      throw std::invalid_argument("malformed flow-size band");
    }
    prev = b.cum_prob;
  }
}

std::int64_t FlowSizeDistribution::sample(sim::Rng& rng) const {
  const double u = rng.uniform_real(0.0, 1.0);
  for (const Band& b : bands_) {
    if (u <= b.cum_prob) {
      const double lo = std::log(static_cast<double>(b.lo_bytes));
      const double hi = std::log(static_cast<double>(b.hi_bytes));
      const double v = std::exp(rng.uniform_real(lo, hi));
      return static_cast<std::int64_t>(v);
    }
  }
  return bands_.back().hi_bytes;
}

}  // namespace hawkeye::workload
