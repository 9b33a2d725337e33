#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "telemetry/epoch.hpp"
#include "telemetry/report.hpp"

namespace hawkeye::telemetry {

/// Which parts of the telemetry a switch records. `kFull` is Hawkeye;
/// the reduced modes implement the Fig 10 ablation baselines
/// ("port-level only" and "flow-level only" telemetry systems).
enum class TelemetryMode : std::uint8_t {
  kFull,      // flow tables + port tables + causality meter (Hawkeye)
  kPortOnly,  // port tables + causality meter, no flow tables
  kFlowOnly,  // flow tables only, no port tables / meter
};

struct TelemetryConfig {
  EpochConfig epoch;
  std::uint32_t flow_slots = 4096;  // per-epoch flow table size (paper §4.5)
  TelemetryMode mode = TelemetryMode::kFull;
  /// Model ITSY's 1-bit port-pair presence instead of a byte meter
  /// (ablation of the Figure 3 design choice).
  bool one_bit_meter = false;
};

/// Per-switch Hawkeye telemetry engine (paper §3.3) — the software twin of
/// the Tofino egress-pipeline registers.
///
/// The owning switch invokes:
///  * `on_enqueue` for every data packet admitted to an egress queue,
///    passing the queue depth seen at enqueue and whether the egress port
///    was PFC-paused at that instant ("paused packet" classification);
///  * `on_pfc_frame` when a PAUSE/RESUME arrives for one of its egress
///    ports (updates the PFC status register, Figure 6 red path);
///  * `on_transmit` when a packet leaves, to feed the port byte counters.
///
/// All state lives in an epoch ring buffer indexed by timestamp bits; an
/// epoch is lazily reset when a packet with a newer epoch ID lands in its
/// slot (wrap-around rule from §3.3).
class TelemetryEngine {
 public:
  TelemetryEngine(net::NodeId sw, std::int32_t port_count,
                  TelemetryConfig cfg);

  const TelemetryConfig& config() const { return cfg_; }

  void on_enqueue(const net::Packet& pkt, net::PortId in_port,
                  net::PortId out_port, std::int64_t qlen_pkts,
                  bool port_paused, sim::Time now);

  void on_transmit(const net::Packet& pkt, net::PortId out_port,
                   sim::Time now);

  /// PFC frame received on `port` (i.e. our egress toward that peer is
  /// being paused/resumed). Records the remaining pause deadline.
  void on_pfc_frame(net::PortId port, std::uint32_t quanta,
                    sim::Time pause_until, sim::Time now);

  /// PFC status register: is the egress port paused right now?
  bool port_paused(net::PortId port, sim::Time now) const;
  sim::Time pause_deadline(net::PortId port) const;

  /// Paused-packet count for `port` summed over every live epoch in the
  /// ring — the line-rate check the polling pipeline performs ("checks the
  /// number of paused packets on the egress pipeline").
  std::uint64_t recent_paused_count(net::PortId port) const;

  /// Same check narrowed to one flow (victim-path PFC detection).
  std::uint64_t recent_flow_paused_count(const net::FiveTuple& flow) const;

  /// Egress ports with causal traffic from `in_port` (meter[in][out] > 0
  /// in any live epoch of the ring): the Figure 3 lookup driving polling
  /// multicast pruning.
  std::vector<net::PortId> causal_out_ports(net::PortId in_port) const;

  /// Export every live epoch: its occupied flow slots in ascending slot
  /// order (empty slots skipped), then the entries its XOR mismatches
  /// evicted, in eviction order (raw sizes are derived by the controller
  /// from `config()` for the Fig 14 accounting).
  /// `queue_pkts(port)` supplies the instantaneous egress occupancy for the
  /// port-status records (frozen deadlock queues are invisible to the
  /// enqueue-time depth averages); pass nullptr to skip.
  SwitchTelemetryReport snapshot(
      sim::Time now,
      const std::function<std::int64_t(net::PortId)>& queue_pkts = {}) const;

  /// Raw (unfiltered) register footprint in bytes, for the "data-plane
  /// packet generation" comparison of Fig 14. Counts the full `flow_slots`
  /// hardware table, not just the occupied slots the twin stores.
  std::int64_t raw_dump_bytes() const;

 private:
  /// One occupied flow-table slot.
  struct FlowSlot {
    net::FiveTuple flow;
    std::uint32_t pkt_cnt = 0;
    std::uint32_t paused_cnt = 0;
    std::uint64_t qdepth_pkts_sum = 0;
    net::PortId egress_port = net::kInvalidPort;
    std::uint32_t slot = 0;  // index into the hardware table (`pos`)
  };

  /// The flow table stores only its occupied slots: `pos` maps each of the
  /// `flow_slots` hardware slots to 1 + its index in `flows` (0 = empty),
  /// so a switch holds 4 B per slot per epoch and an epoch reset touches
  /// only the slots that epoch used. An entry displaced by an XOR mismatch
  /// goes to the controller (paper §3.3); the twin keeps it in `evicted`,
  /// with the epoch it left, where the data-plane lookups never read it.
  struct Epoch {
    std::uint64_t id = ~0ull;
    sim::Time start = 0;
    bool live = false;
    std::vector<std::uint32_t> pos;  // [flow_slots] 0 or 1 + flows index
    std::vector<FlowSlot> flows;     // occupants, in first-use order
    std::vector<FlowSlot> evicted;   // displaced entries, in eviction order
    std::vector<PortRecord> ports;
    std::vector<std::uint64_t> meter;  // [in * port_count + out] bytes
  };

  Epoch& locate_epoch(sim::Time ts);
  void reset_epoch(Epoch& e, std::uint64_t id, sim::Time start);

  net::NodeId sw_;
  std::int32_t port_count_;
  TelemetryConfig cfg_;
  std::vector<Epoch> ring_;
  std::vector<sim::Time> pause_until_;  // PFC status register per port
};

}  // namespace hawkeye::telemetry
