#include "workload/flow_size.hpp"

#include <cmath>
#include <iterator>

namespace hawkeye::workload {

namespace {

struct Band {
  double cum_prob;  // upper cumulative probability of the band
  std::int64_t lo_bytes;
  std::int64_t hi_bytes;
};

constexpr Band kBands[] = {
    // 60% mice below 100 KB, 20% up to 10 MB (=> 80% < 10 MB),
    // 10% in 10–100 MB, 10% in 100–300 MB.
    {0.60, 1'000, 100'000},
    {0.80, 100'000, 10'000'000},
    {0.90, 10'000'000, 100'000'000},
    {1.00, 100'000'000, 300'000'000},
};

/// Cumulative probabilities rise strictly and end at 1.0; every band is a
/// non-empty range of positive sizes.
constexpr bool well_formed() {
  double prev = 0;
  for (const Band& b : kBands) {
    if (b.cum_prob <= prev || b.lo_bytes <= 0 || b.hi_bytes < b.lo_bytes) {
      return false;
    }
    prev = b.cum_prob;
  }
  return prev == 1.0;
}
static_assert(well_formed(), "malformed flow-size bands");

}  // namespace

std::int64_t sample_flow_size(sim::Rng& rng) {
  const double u = rng.uniform_real(0.0, 1.0);
  for (const Band& b : kBands) {
    if (u <= b.cum_prob) {
      const double lo = std::log(static_cast<double>(b.lo_bytes));
      const double hi = std::log(static_cast<double>(b.hi_bytes));
      const double v = std::exp(rng.uniform_real(lo, hi));
      return static_cast<std::int64_t>(v);
    }
  }
  return kBands[std::size(kBands) - 1].hi_bytes;
}

}  // namespace hawkeye::workload
