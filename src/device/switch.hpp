#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "device/network.hpp"
#include "fault/fault.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "sim/random.hpp"
#include "telemetry/engine.hpp"

namespace hawkeye::device {

class Switch;

/// Installed by the collect module: receives Hawkeye polling packets so the
/// in-data-plane causality analysis (paper §3.4, Figure 6) can decide where
/// to forward them and mirror them to the switch CPU. Switches without a
/// handler drop polling packets (non-Hawkeye switch).
class PollingHandler {
 public:
  virtual ~PollingHandler() = default;
  virtual void on_polling(Switch& sw, const net::Packet& pkt,
                          net::PortId in_port) = 0;
};

struct SwitchConfig {
  /// Per-ingress-port PFC thresholds, bytes.
  std::int64_t pfc_xoff_bytes = 64 * 1024;
  std::int64_t pfc_xon_bytes = 32 * 1024;

  /// Shared buffer capacity; generous so PFC (not drops) bounds occupancy.
  std::int64_t buffer_bytes = 32ll * 1024 * 1024;

  telemetry::TelemetryConfig telemetry;
};

/// Output-queued lossless switch with per-ingress-port PFC accounting —
/// the same abstraction level as the HPCC/NS-3 switch model the paper
/// simulates on.
///
/// Two egress FIFOs per port: a control class (ACK/CNP/polling — never
/// paused) with strict priority over the lossless data class. PFC PAUSE is
/// generated toward an upstream port when the bytes buffered from that
/// ingress exceed Xoff, and RESUME when they fall below Xon; PAUSE state
/// received from a downstream peer freezes the data FIFO of that egress
/// port. Every enqueue/transmit feeds the Hawkeye TelemetryEngine.
class Switch : public Device {
 public:
  Switch(Network& net, const net::Routing& routing, net::NodeId id,
         SwitchConfig cfg);

  void receive(net::Packet pkt, net::PortId in_port) override;

  /// Reconvergence flush: drop everything queued on the withdrawn egress as
  /// link-down losses and rewind the buffer/ingress accounting, sending
  /// RESUME where an ingress falls back below Xon. Without this the dead
  /// port's frozen FIFO keeps the PFC cascade pinned and rerouted traffic
  /// upstream never un-pauses.
  void on_port_withdrawn(net::PortId port) override;

  void set_polling_handler(PollingHandler* h) { polling_handler_ = h; }

  /// Install the fault-injection substrate (nullptr => fault-free; the
  /// polling receive path then costs a single null check and draws no
  /// randomness, keeping fault-off runs byte-identical).
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }

  telemetry::TelemetryEngine& telemetry() { return *telemetry_; }
  const telemetry::TelemetryEngine& telemetry() const { return *telemetry_; }

  const net::Routing& routing() const { return routing_; }
  Network& network() { return net_; }
  const SwitchConfig& config() const { return cfg_; }
  std::int32_t port_count() const { return port_count_; }

  /// Inject a control-class packet (a forwarded polling packet) out `port`.
  void send_control(net::PortId port, net::Packet pkt);

  /// True if the data FIFO of egress `port` is PAUSEd by the peer.
  bool egress_paused(net::PortId port) const {
    return port_at(port).paused_until > net_.simu().now();
  }

  /// Bytes buffered that arrived via `in_port`.
  std::int64_t ingress_bytes(net::PortId in_port) const {
    return port_at(in_port).ingress_bytes;
  }

  /// Bytes and packets in the data FIFO of egress `port`.
  std::int64_t queue_bytes(net::PortId port) const {
    return port_at(port).data_bytes;
  }
  std::int64_t queue_pkts(net::PortId port) const {
    return static_cast<std::int64_t>(port_at(port).data.size());
  }
  std::uint64_t pause_frames_sent() const { return pause_frames_sent_; }

 private:
  struct Queued {
    net::Packet pkt;
    net::PortId in_port = net::kInvalidPort;
  };
  struct Port {
    std::deque<Queued> control;
    std::deque<Queued> data;
    std::int64_t data_bytes = 0;
    sim::Time paused_until = 0;      // set by received PAUSE frames
    bool pausing_upstream = false;   // (as ingress) we PAUSEd our peer
    std::int64_t ingress_bytes = 0;  // buffered bytes that arrived here
    bool tx_busy = false;
    /// A wake-up is armed for the end of the current injected link outage
    /// (keeps one event per outage per port, not one per blocked attempt).
    bool down_wake_armed = false;
  };

  const Port& port_at(net::PortId port) const {
    return ports_[static_cast<size_t>(port)];
  }
  /// Pop the head of `port`'s data FIFO, releasing its buffer and ingress
  /// accounting (and RESUMEing the ingress if it falls back below Xon).
  Queued pop_data(Port& port);
  void handle_polling(net::Packet pkt, net::PortId in_port);
  void enqueue(net::Packet pkt, net::PortId in_port, net::PortId out_port);
  void try_transmit(net::PortId port);
  void finish_transmit(net::PortId port, Queued&& q, sim::Time ser);
  void handle_pfc_frame(const net::Packet& pkt, net::PortId in_port);
  void send_pause(net::PortId in_port, std::uint32_t quanta);
  void refresh_pause(net::PortId in_port);
  void maybe_resume(net::PortId in_port);
  bool ecn_mark(std::int64_t qbytes);
  /// Negotiated rate of the link on `wire` (one of this switch's ports):
  /// the injected per-link rate override (speed mismatch /
  /// oversubscription) when one covers it, the nominal topology speed
  /// otherwise. One branch in fault-free runs.
  double effective_gbps(const Wire& wire, sim::Time now) const;

  Network& net_;
  const net::Routing& routing_;
  SwitchConfig cfg_;
  std::int32_t port_count_;
  std::vector<Port> ports_;
  std::int64_t buffered_bytes_ = 0;
  std::uint64_t pause_frames_sent_ = 0;
  std::unique_ptr<telemetry::TelemetryEngine> telemetry_;
  PollingHandler* polling_handler_ = nullptr;
  fault::FaultInjector* faults_ = nullptr;
  sim::Rng rng_;
};

}  // namespace hawkeye::device
