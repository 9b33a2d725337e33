#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "collect/episode.hpp"
#include "device/switch.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"

namespace hawkeye::collect {

/// Controller-assisted telemetry collection (paper §3.4). One logical
/// object models every per-switch CPU: when a switch mirrors a polling
/// packet, the controller snapshots the telemetry registers (BF_Runtime
/// REGISTER_SYNC DMA in the paper), filters zero-value slots, batches
/// records into MTU-sized report packets and attributes the data to the
/// triggering episode. Collections on one switch are rate-limited so
/// concurrent polling packets do not duplicate data.
class Collector {
 public:
  struct Config {
    std::int32_t report_mtu_bytes = net::kReportMtuBytes;
    /// Data-plane export alternative is bounded by PHV capacity (~200 B
    /// per generated packet) — the Fig 14(b) comparison.
    std::int32_t dataplane_phv_bytes = 192;
    /// The registers keep counting while the CPU sets up the DMA read; the
    /// exported snapshot therefore reflects the switch state a little
    /// *after* the mirror, not the instant of the polling packet. This
    /// grace window lets a just-detected anomaly finish developing in the
    /// telemetry before the analyzer reads it.
    sim::Time snapshot_delay = sim::us(150);
  };

  /// Measured CPU poll cost (§4.5): ~40 ms per epoch of 64 ports x 4096
  /// flows (80 ms for 2 epochs, 120 ms for 4). bench_fig14's latency model
  /// reads it; the simulated snapshot is not delayed by it.
  static constexpr sim::Time kDmaPerEpoch = sim::ms(40);

  /// Register snapshots run on `simu`, `config().snapshot_delay` after the
  /// mirror (the switch CPU's asynchronous DMA read).
  explicit Collector(sim::Simulator& simu) : Collector(simu, Config{}) {}
  Collector(sim::Simulator& simu, const Config& cfg)
      : cfg_(cfg), simu_(simu) {}

  /// Install the fault-injection substrate (nullptr => fault-free). DMA
  /// snapshot failures and stale reads are decided here, at the point the
  /// paper's BF_Runtime REGISTER_SYNC would run.
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }

  const Config& config() const { return cfg_; }

  /// Wire a switch in: remember the pointer for full-network polling and
  /// size its snapshot cache. Flow entries the switch's tables evicted
  /// reach the controller inside the epoch they left (`snapshot()`).
  void register_switch(device::Switch& sw);

  /// Begin an episode (called by the detection agent on trigger).
  Episode& open_episode(std::uint64_t probe_id, const net::FiveTuple& victim,
                        sim::Time now);

  /// Switch `sw` mirrored a polling packet of `probe_id`: snapshot its
  /// telemetry into the episode unless collected recently.
  void collect_from(device::Switch& sw, std::uint64_t probe_id, sim::Time now);

  /// Full-polling baseline: snapshot every registered switch.
  void collect_all(std::uint64_t probe_id, sim::Time now);

  /// Self-healing repair path: snapshot ONLY the expected switches the
  /// episode has not heard from yet. Strictly targeted — an episode with
  /// no expectation has, by definition, nothing missing, so the re-poll
  /// round is a no-op instead of degenerating into a full-fabric dump
  /// (which would wreck the Fig 9 re-poll byte accounting).
  void collect_missing(std::uint64_t probe_id, sim::Time now);

  /// Polling-packet accounting (invoked by agents when they emit one).
  void count_polling_packet(std::uint64_t probe_id, std::int32_t bytes);

  Episode* episode(std::uint64_t probe_id);
  const std::vector<std::uint64_t>& episode_order() const { return order_; }

  /// The victim's episodes merged into the one view an operator diagnoses
  /// for the complaint; nullopt when `victim` never triggered. A persistent
  /// anomaly re-triggers once per dedup interval, so every episode
  /// triggered at or after `onset` merges: the earliest snapshot of each
  /// switch wins (it is the densest view of the anomaly — ring epochs age
  /// out under background churn), later episodes only widen coverage, and
  /// the coverage contracts are unioned. Only when no post-onset episode
  /// exists does the first pre-onset one (noise during buildup, whose
  /// delayed snapshot usually still covers the onset) stand in. Report
  /// accounting is recomputed over the merged reports.
  std::optional<Episode> merged_episode(const net::FiveTuple& victim,
                                        sim::Time onset) const;

  /// Switch-CPU snapshot attempts issued (before dedup/fault filtering) —
  /// the "how many DMA reads did healing really cost" observable the
  /// targeted-re-poll tests assert on.
  std::uint64_t snapshot_requests() const { return snapshot_requests_; }

 private:
  /// `mirror` is when the polling packet was mirrored to the CPU; the
  /// snapshot runs later (`now`). Epoch records that *started* after
  /// `mirror` + grace can only exist because the ring recycled a slot while
  /// the DMA was in flight — they are rejected as stale.
  void do_collect(device::Switch& sw, std::uint64_t probe_id, sim::Time now,
                  sim::Time mirror);

  /// Add one switch report's bytes to `e`'s overhead accounting: `filtered`
  /// batched into MTU-sized CPU report packets, `raw` into PHV-sized
  /// data-plane export packets.
  void account_report(Episode& e, std::int64_t filtered,
                      std::int64_t raw) const;

  Config cfg_;
  sim::Simulator& simu_;
  fault::FaultInjector* faults_ = nullptr;
  std::unordered_map<std::uint64_t, Episode> episodes_;
  std::vector<std::uint64_t> order_;
  std::vector<device::Switch*> switches_;
  std::uint64_t snapshot_requests_ = 0;
  // Per-switch snapshot cache, NodeId-indexed. last_collect_ uses -1 as the
  // "never collected" sentinel.
  std::vector<sim::Time> last_collect_;
  std::vector<telemetry::SwitchTelemetryReport> last_report_;
};

}  // namespace hawkeye::collect
