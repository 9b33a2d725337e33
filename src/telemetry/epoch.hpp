#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace hawkeye::telemetry {

/// Epoch demarcation by timestamp bit selection (paper §3.3, Figure 4).
///
/// Programmable switches stamp each enqueued packet with a 48-bit
/// nanosecond timestamp. Hawkeye picks `index_bits` bits starting at
/// `epoch_shift` to index the epoch ring buffer, and the `kIdBits` bits
/// above those as the epoch ID used to detect ring wrap-around. An epoch
/// therefore spans 2^epoch_shift ns; the paper's "1 ms" epoch is
/// 2^20 ns ≈ 1.05 ms, and the evaluated range 100 µs – 2 ms maps to
/// shifts 17..21.
struct EpochConfig {
  // Defaults favour fine-grained epochs (131 µs x 8): transient bursts
  // dominate their own epoch, which is what makes contributor attribution
  // accurate (§4.2 — precision falls as the epoch grows).
  int epoch_shift = 17;  // epoch size = 2^epoch_shift ns (~131 us)
  int index_bits = 3;    // ring of 2^index_bits epochs
  static constexpr int kIdBits = 8;  // wrap-around discriminator

  sim::Time epoch_ns() const { return sim::Time{1} << epoch_shift; }
  int epoch_count() const { return 1 << index_bits; }

  /// Ring-buffer slot for a timestamp: timestamp[shift+index_bits-1 : shift].
  int index_of(sim::Time ts) const {
    return static_cast<int>((static_cast<std::uint64_t>(ts) >> epoch_shift) &
                            ((1u << index_bits) - 1));
  }

  /// Epoch ID: the `kIdBits` bits above the index bits.
  std::uint64_t id_of(sim::Time ts) const {
    return (static_cast<std::uint64_t>(ts) >> (epoch_shift + index_bits)) &
           ((1ull << kIdBits) - 1);
  }

  /// Start time of the epoch containing `ts`.
  sim::Time epoch_start(sim::Time ts) const {
    return ts & ~((sim::Time{1} << epoch_shift) - 1);
  }
};

/// An epoch shift approximating a human-friendly duration; used by the
/// parameter-sweep benches so "100us" selects 2^17 ns etc.
int epoch_shift_for(sim::Time approx_epoch_ns);

}  // namespace hawkeye::telemetry
