#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "device/network.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace hawkeye::device {

/// Which end-to-end congestion control the RNIC runs. The paper's point
/// (§1/§2): whatever the CC, PFC cannot be fully eliminated — the
/// bench_cc_ablation experiment quantifies that on this substrate.
enum class CcAlgorithm {
  kNone,   // fixed-rate senders (crafted bursts behave like this anyway)
  kDcqcn,  // ECN/CNP driven (Zhu et al., SIGCOMM'15) — the default
  kTimely, // RTT-gradient driven (Mittal et al., SIGCOMM'15)
};

struct FlowSpec {
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 4791;
  std::int64_t bytes = 0;
  sim::Time start = 0;
  bool cc_enabled = true;  // false => constant-rate (crafted bursts)
  /// 0 => NIC line rate. Crafted scenario flows use this to model
  /// application-limited senders (e.g. loop flows kept below link capacity).
  double rate_cap_gbps = 0;
};

/// The 5-tuple a FlowSpec will materialize as (deterministic, usable for
/// ground truth before any Host object exists).
net::FiveTuple tuple_of(const FlowSpec& spec);

struct FlowStats {
  net::FiveTuple tuple;
  std::uint64_t flow_id = 0;
  std::int64_t bytes = 0;
  sim::Time start = 0;
  sim::Time finish = -1;  // -1 while running
  std::uint32_t pkts_sent = 0;
  std::uint32_t pkts_acked = 0;
  std::uint32_t retx_pkts = 0;  // go-back-N rewound segments (RNIC counter)
  sim::Time min_rtt = 0;
  sim::Time max_rtt = 0;
  sim::Time last_ack = -1;  // for stall (deadlock) detection
  bool complete() const { return finish >= 0; }
  sim::Time fct() const { return complete() ? finish - start : -1; }
};

/// Host + RNIC model: paces each QP/flow at its DCQCN rate through a single
/// uplink serializer, honours PFC PAUSE on the uplink, acknowledges every
/// received segment (echoing the tx timestamp so senders measure RTT), and
/// emits CNPs for CE-marked arrivals. Can also *inject* PFC frames to model
/// the malfunctioning-NIC / slow-receiver storms of §2.1.
class Host : public Device {
 public:
  using RttCallback = std::function<void(
      const net::FiveTuple& flow, sim::Time rtt, sim::Time now)>;

  Host(Network& net, net::NodeId id, CcAlgorithm cc = CcAlgorithm::kDcqcn);

  void receive(net::Packet pkt, net::PortId in_port) override;

  /// Register a flow; transmission begins at spec.start. Returns flow id.
  std::uint64_t add_flow(const FlowSpec& spec);

  /// Called with every RTT sample measured from returning ACKs — the hook
  /// the Hawkeye detection agent (paper §3.4) attaches to.
  void set_rtt_callback(RttCallback cb) { rtt_cb_ = std::move(cb); }

  /// Install the fault-injection substrate (nullptr => fault-free). Hosts
  /// consume two fleet-ops fault classes: the PCIe ingress drain cap
  /// (HostPcieBottleneckSpec — arriving data queues behind a capped DMA
  /// engine and ACKs leave only on completion) and per-link rate overrides
  /// on the uplink (a speed-mismatched or oversubscribed ToR down-link is
  /// negotiated slow on the host side too). Without an injector both paths
  /// cost one null check and draw no randomness.
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }

  /// Continuously emit PAUSE frames on the uplink between [start, stop)
  /// every `period` ns — the host PFC injection behind PFC storms and
  /// initiator-out-of-loop deadlocks.
  void inject_pfc(sim::Time start, sim::Time stop, sim::Time period,
                  std::uint32_t quanta);

  const std::vector<FlowStats>& flow_stats() const { return stats_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t pfc_frames_injected() const { return pfc_injected_; }

 private:
  struct FlowState {
    net::FiveTuple tuple;
    std::uint64_t id = 0;
    std::int64_t total_bytes = 0;
    std::int64_t sent_bytes = 0;
    std::uint32_t next_seq = 0;
    std::uint32_t total_pkts = 0;
    bool cc_enabled = true;
    bool started = false;
    bool done_sending = false;
    double limit_gbps = 0;  // per-flow ceiling (<= NIC line rate)
    // congestion-control state
    double rate_gbps = 0;
    sim::Time prev_rtt = 0;  // TIMELY gradient reference
    double target_gbps = 0;
    double alpha = 1.0;
    int recovery_stage = 0;
    bool timer_armed = false;
    bool cnp_seen_this_period = false;
    sim::Time next_allowed = 0;  // pacing gate for the next segment
    bool rto_armed = false;      // tail-loss retransmit timer pending
  };

  void start_flow(std::size_t idx);
  void try_send();
  void schedule_wake(sim::Time at);
  void send_segment(std::size_t idx);
  void on_ack(const net::Packet& ack);
  void on_cnp(const net::Packet& cnp);
  void on_data(const net::Packet& data);
  void on_nack(const net::Packet& nack);
  void rewind_flow(FlowState& f, std::uint32_t to_seq);
  void arm_rto(std::uint64_t flow_id);
  void dcqcn_timer(std::uint64_t flow_id);
  void timely_update(FlowState& f, sim::Time rtt);
  FlowState* flow_by_id(std::uint64_t id);
  /// The stats of `f`, which sits at the same index in flows_.
  FlowStats& stats_of(const FlowState& f) {
    return stats_[static_cast<std::size_t>(&f - flows_.data())];
  }
  /// Negotiated uplink rate at `now` (rate override when one covers the
  /// host's access link, the nominal speed otherwise).
  double effective_line_gbps(sim::Time now) const;

  Network& net_;
  CcAlgorithm cc_;
  double line_gbps_;
  net::NodeId uplink_peer_ = net::kInvalidNode;
  fault::FaultInjector* faults_ = nullptr;
  /// PCIe drain FIFO: the simulated time the capped DMA engine becomes
  /// idle. Only advances while a HostPcieBottleneckSpec covers this host.
  sim::Time drain_busy_until_ = 0;
  std::vector<FlowState> flows_;
  std::vector<FlowStats> stats_;
  std::unordered_map<std::uint64_t, std::size_t> flow_index_;
  std::size_t rr_cursor_ = 0;

  bool tx_busy_ = false;
  sim::Time paused_until_ = 0;  // uplink PAUSE deadline
  sim::Time next_wake_ = -1;

  std::unordered_map<std::uint64_t, sim::Time> last_cnp_;   // per remote flow
  std::unordered_map<std::uint64_t, std::uint32_t> rx_expected_;  // receiver GBN
  std::unordered_map<std::uint64_t, sim::Time> last_nack_;
  RttCallback rtt_cb_;
  std::uint64_t pfc_injected_ = 0;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace hawkeye::device
