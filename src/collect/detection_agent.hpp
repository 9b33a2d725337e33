#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "collect/collector.hpp"
#include "device/host.hpp"
#include "net/routing.hpp"

namespace hawkeye::collect {

/// Host-based anomaly-driven detection agent (paper §3.4; BlueField-3 PCC
/// prototype in §3.6). Monitors per-flow RTT samples from the host RNIC;
/// when a sample exceeds `threshold_factor` x the flow's unloaded baseline
/// RTT — or when an active flow stops receiving ACKs entirely (the deadlock
/// case, where no RTT sample can exist) — it emits a polling packet
/// carrying the victim 5-tuple and opens a diagnosis episode.
///
/// One logical agent object models the per-host agents; probe ids are
/// allocated per source host — (node+1) << 32 | per-host counter — as
/// each host's agent would number its own probes.
class DetectionAgent {
 public:
  struct Config {
    /// Detection threshold as a multiple of baseline RTT (the paper sweeps
    /// 200%–500%, i.e. factors 2.0–5.0).
    double threshold_factor = 3.0;
    /// Re-trigger suppression per victim flow.
    sim::Time flow_dedup_interval = sim::us(400);
    /// Period of the ACK-stall scan (deadlock/storm detection).
    sim::Time stall_scan_period = sim::us(50);
    /// A flow is stalled when unACKed for threshold_factor x baseline RTT,
    /// but at least this long (guards tiny-RTT flows).
    sim::Time min_stall = sim::us(40);
    /// Fabric-scale trigger calibration: benign-congestion allowance per
    /// route hop (ns), ADDED to the factor x baseline test. The baseline is
    /// pure propagation + serialization, so on a large fabric — long paths,
    /// many flows per core link — transient background queueing alone
    /// inflates RTT past a small multiple of it: each extra hop is another
    /// independent chance of landing behind a benign burst, and the noise
    /// floor grows with hop count while the baseline's multiple does not.
    /// A genuine anomaly still clears the calibrated threshold by an order
    /// of magnitude (a paused or incast-saturated port holds packets for
    /// hundreds of microseconds). 0 (the default) disables calibration:
    /// the test is exactly the paper's factor x baseline and fault-free
    /// traces stay byte-identical.
    sim::Time hop_noise_headroom = 0;
    /// true => full-polling baseline: no polling packets; the controller
    /// snapshots every switch on trigger.
    bool full_polling = false;

    /// Retransmission-counter trigger (fleet-ops detection): during the
    /// stall scan, a flow whose RNIC retransmit counter grew by at least
    /// this many packets since the previous scan opens an episode. NACK
    /// -driven go-back-N recovers a corrupting link within ~1 RTT, so a
    /// degraded cable often shows neither an RTT spike nor an ACK stall —
    /// the retransmit counter is the only host-visible symptom. 0 (the
    /// default) disables the check entirely: no cache is touched and
    /// fault-free traces stay byte-identical.
    std::uint32_t retx_trigger_pkts = 0;

    /// Self-healing collection: after a trigger, check expected-hop
    /// coverage `repoll_timeout` later; while incomplete, re-poll with the
    /// timeout doubling per round (capped), up to `max_repolls` rounds.
    /// Each re-poll injects the probe at the first uncovered hop, so the
    /// covered prefix is not re-traversed and re-poll bytes scale with the
    /// gap, not the path (Fig 9 metric). An episode still short of full
    /// coverage when the budget runs out is marked `degraded`. 0 disables
    /// the check entirely — no extra events are scheduled, keeping
    /// fault-free runs byte-identical.
    std::uint32_t max_repolls = 0;
    /// First coverage-check delay. Must exceed the switch agents'
    /// poll_dedup_interval, or the re-poll is dedup-dropped at the covered
    /// prefix of the path before it can reach the gap.
    sim::Time repoll_timeout = sim::us(600);
    sim::Time repoll_backoff_cap = sim::ms(2);
  };

  DetectionAgent(device::Network& net, const net::Routing& routing,
                 Collector& collector, Config cfg);

  /// Attach to a host: subscribes to its RTT samples and includes its flows
  /// in the stall scan. (One logical agent object models the per-host
  /// agents; state is keyed per flow.)
  void attach(device::Host& host);

  /// Start the periodic stall scan (idempotent). The scan reads every
  /// host's flow table.
  void start();

  /// Install the fault-injection substrate (nullptr => fault-free). The
  /// agent only consumes RTT jitter; everything else acts on the fabric.
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }

  /// Unloaded baseline RTT of a flow: propagation + store-and-forward
  /// serialization along its route, both directions.
  sim::Time baseline_rtt(const net::FiveTuple& flow) const;

  /// The calibrated trigger threshold for a flow: threshold_factor x
  /// baseline RTT plus the fabric-scale noise headroom (hop_noise_headroom
  /// x one-way hop count). With headroom 0 this is exactly the paper's
  /// factor x baseline test. Exposed for calibration unit tests.
  sim::Time trigger_threshold(const net::FiveTuple& flow) const;

 private:
  /// Memoized unloaded-RTT baseline plus the one-way hop count it was
  /// derived from (the hop count scales the noise-headroom calibration).
  struct Baseline {
    sim::Time rtt = 0;
    std::uint32_t hops = 0;
  };

  Baseline baseline(const net::FiveTuple& flow) const;
  void on_rtt(const net::FiveTuple& flow, sim::Time rtt, sim::Time now);
  void stall_scan();
  void trigger(const net::FiveTuple& victim, sim::Time now);
  /// Probe id: (src host node + 1) << 32 | per-host sequence number. `src` may be kInvalidNode (unit tests); those draws
  /// use the overflow slot past the last real node.
  std::uint64_t alloc_probe_id(net::NodeId src);
  void emit_poll(const net::FiveTuple& victim, std::uint64_t probe_id);
  void emit_targeted_poll(const Episode& ep, std::uint64_t probe_id);
  void schedule_coverage_check(std::uint64_t probe_id, std::uint32_t attempt,
                               sim::Time timeout);
  void coverage_check(std::uint64_t probe_id, std::uint32_t attempt,
                      sim::Time timeout);

  device::Network& net_;
  const net::Routing& routing_;
  Collector& collector_;
  Config cfg_;
  std::vector<device::Host*> hosts_;
  std::unordered_map<net::FiveTuple, sim::Time> last_trigger_;
  mutable std::unordered_map<net::FiveTuple, Baseline> baseline_cache_;
  /// Routing epoch the baseline cache was filled under; a mismatch with
  /// routing_.epoch() (reconvergence happened) flushes the cache.
  mutable std::uint64_t baseline_epoch_ = 0;
  /// Last-seen per-flow retransmit counters (retx_trigger_pkts > 0 only),
  /// read and written by the stall scan.
  std::unordered_map<net::FiveTuple, std::uint32_t> retx_seen_;
  std::vector<std::uint64_t> probe_seq_;  // per source host, +1 overflow slot
  fault::FaultInjector* faults_ = nullptr;
  bool scanning_ = false;
};

}  // namespace hawkeye::collect
