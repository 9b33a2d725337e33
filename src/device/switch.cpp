#include "device/switch.hpp"

#include <algorithm>
#include <cassert>

namespace hawkeye::device {

using net::Packet;
using net::PacketKind;
using net::PortId;
using sim::Time;

namespace {

/// Pause duration advertised in PAUSE frames (802.1Qbb quanta).
constexpr std::uint32_t kPauseQuanta = 65535;
/// Re-advertise PAUSE while still above Xon (fraction of pause time).
constexpr double kPauseRefreshFraction = 0.5;

/// DCQCN-style ECN marking thresholds on egress data queues, bytes.
constexpr std::int64_t kEcnKminBytes = 64 * 1024;
constexpr std::int64_t kEcnKmaxBytes = 256 * 1024;
constexpr double kEcnPmax = 0.2;
static_assert(kEcnKminBytes < kEcnKmaxBytes,
              "ecn_mark divides by the marking ramp's width");

}  // namespace

Switch::Switch(Network& net, const net::Routing& routing, net::NodeId id,
               SwitchConfig cfg)
    : Device(id),
      net_(net),
      routing_(routing),
      cfg_(cfg),
      port_count_(net.topo().port_count(id)),
      ports_(static_cast<size_t>(port_count_)),
      telemetry_(std::make_unique<telemetry::TelemetryEngine>(
          id, port_count_, cfg.telemetry)),
      rng_(static_cast<std::uint64_t>(id) * 7919 + 13) {
  net_.attach(this);
}

void Switch::receive(Packet pkt, PortId in_port) {
  switch (pkt.kind) {
    case PacketKind::kPfc:
      handle_pfc_frame(pkt, in_port);
      return;
    case PacketKind::kPolling:
      if (faults_ != nullptr) {
        const fault::PollVerdict v =
            faults_->on_polling(id(), pkt.victim, net_.simu().now());
        switch (v.action) {
          case fault::PollAction::kDrop:
            net_.count_drop(DropReason::kPolling);
            return;
          case fault::PollAction::kDelay: {
            // Re-inject into the agent path after the injected latency.
            // The closure captures the whole packet, so it takes
            // InlineAction's heap fallback — acceptable off the hot path.
            net_.simu().schedule(
                v.delay_ns, [this, p = std::move(pkt), in_port]() mutable {
                  handle_polling(std::move(p), in_port);
                });
            return;
          }
          case fault::PollAction::kDuplicate:
            net_.simu().schedule(v.delay_ns,
                                 [this, p = pkt, in_port]() mutable {
                                   handle_polling(std::move(p), in_port);
                                 });
            break;  // the original is still delivered below
          case fault::PollAction::kDeliver:
            break;
        }
      }
      handle_polling(std::move(pkt), in_port);
      return;
    case PacketKind::kData:
      net_.count_data_hop();
      [[fallthrough]];
    case PacketKind::kAck:
    case PacketKind::kCnp:
    case PacketKind::kNack: {
      const PortId out = routing_.egress_port(
          id(), net::Topology::node_of_ip(pkt.flow().dst_ip), pkt.flow_hash());
      if (out == net::kInvalidPort) {
        net_.count_drop(DropReason::kData);
        return;
      }
      enqueue(std::move(pkt), in_port, out);
      return;
    }
  }
}

void Switch::on_port_withdrawn(PortId port_id) {
  if (port_id < 0 || port_id >= port_count_) return;
  Port& port = ports_[static_cast<size_t>(port_id)];
  const Time now = net_.simu().now();
  const net::PortRef peer = net_.wire(id(), port_id).peer;
  const auto drop = [&](const Queued& q) {
    net_.count_drop(DropReason::kLinkDown);
    if (faults_ != nullptr && peer.valid()) {
      faults_->note_link_drop(id(), peer.node, q.pkt, now);
    }
  };
  for (const Queued& q : port.control) drop(q);
  port.control.clear();
  while (!port.data.empty()) drop(pop_data(port));
}

Switch::Queued Switch::pop_data(Port& port) {
  Queued q = std::move(port.data.front());
  port.data.pop_front();
  port.data_bytes -= q.pkt.size_bytes;
  buffered_bytes_ -= q.pkt.size_bytes;
  if (q.in_port >= 0) {
    ports_[static_cast<size_t>(q.in_port)].ingress_bytes -= q.pkt.size_bytes;
    maybe_resume(q.in_port);
  }
  return q;
}

void Switch::handle_polling(Packet pkt, PortId in_port) {
  if (faults_ != nullptr && faults_->agent_down(id(), net_.simu().now())) {
    // Agent blackout: the switch behaves like a non-Hawkeye switch.
    faults_->note_blackout_drop(pkt.victim);
    net_.count_drop(DropReason::kPolling);
    return;
  }
  if (polling_handler_ != nullptr) {
    polling_handler_->on_polling(*this, pkt, in_port);
  } else {
    net_.count_drop(DropReason::kPolling);  // non-Hawkeye switch
  }
}

double Switch::effective_gbps(const Wire& wire, sim::Time now) const {
  assert(wire.link != nullptr && "a switch port is always wired");
  const double gbps = wire.link->gbps;
  if (faults_ == nullptr || !faults_->has_rate_overrides()) return gbps;
  return faults_->link_gbps(id(), wire.peer.node, gbps, now);
}

bool Switch::ecn_mark(std::int64_t qbytes) {
  if (qbytes <= kEcnKminBytes) return false;
  if (qbytes >= kEcnKmaxBytes) return true;
  const double p = kEcnPmax *
                   static_cast<double>(qbytes - kEcnKminBytes) /
                   static_cast<double>(kEcnKmaxBytes - kEcnKminBytes);
  return rng_.chance(p);
}

void Switch::enqueue(Packet pkt, PortId in_port, PortId out_port) {
  Port& port = ports_[static_cast<size_t>(out_port)];
  const Time now = net_.simu().now();

  if (pkt.kind == PacketKind::kData) {
    if (buffered_bytes_ + pkt.size_bytes > cfg_.buffer_bytes) {
      // Shared buffer exhausted. With an injector that ate one of OUR
      // PAUSE frames the upstream legitimately kept transmitting into the
      // full ingress — attribute the overflow to the injected signal loss
      // so losslessness assertions still catch genuine headroom bugs.
      const bool injected_pfc_loss =
          faults_ != nullptr && faults_->pause_frames_lost(id()) > 0;
      net_.count_drop(injected_pfc_loss ? DropReason::kPfcLoss
                                        : DropReason::kHeadroom);
      return;
    }
    const bool paused = port.paused_until > now;
    if (ecn_mark(port.data_bytes)) pkt.ecn_ce = true;

    telemetry_->on_enqueue(pkt, in_port, out_port,
                           static_cast<std::int64_t>(port.data.size()), paused,
                           now);

    port.data.push_back({std::move(pkt), in_port});
    const std::int32_t size = port.data.back().pkt.size_bytes;
    port.data_bytes += size;
    buffered_bytes_ += size;
    if (in_port >= 0) {
      Port& ing = ports_[static_cast<size_t>(in_port)];
      ing.ingress_bytes += size;
      if (!ing.pausing_upstream && ing.ingress_bytes >= cfg_.pfc_xoff_bytes) {
        ing.pausing_upstream = true;
        send_pause(in_port, kPauseQuanta);
      }
    }
  } else {
    port.control.push_back({std::move(pkt), in_port});
  }
  try_transmit(out_port);
}

void Switch::send_control(PortId port, Packet pkt) {
  if (port < 0 || port >= port_count_) return;
  enqueue(std::move(pkt), net::kInvalidPort, port);
}

void Switch::try_transmit(PortId port_id) {
  Port& port = ports_[static_cast<size_t>(port_id)];
  if (port.tx_busy) return;
  const Time now = net_.simu().now();

  if (faults_ != nullptr && faults_->has_link_faults()) {
    // Injected link outage: the PHY is dead, so the transmitter stalls and
    // the queue builds — the head packet is NOT popped and dropped, because
    // a real MAC holds its FIFO while the link renegotiates. Backpressure
    // (PFC toward our ingresses) follows from the growing queue as usual.
    const net::PortRef peer = net_.wire(id(), port_id).peer;
    if (faults_->link_down(id(), peer.node, now)) {
      if (!port.down_wake_armed) {
        port.down_wake_armed = true;
        faults_->note_link_stall(id(), peer.node, now);
        const Time up_at = faults_->link_down_until(id(), peer.node, now);
        auto wake = [this, port_id]() {
          ports_[static_cast<size_t>(port_id)].down_wake_armed = false;
          try_transmit(port_id);
        };
        static_assert(sim::InlineAction::fits_inline<decltype(wake)>());
        net_.simu().schedule_at(up_at, std::move(wake));
      }
      return;
    }
  }

  // Control first (never paused), then the data FIFO unless PFC-paused.
  Queued q;
  if (!port.control.empty()) {
    q = std::move(port.control.front());
    port.control.pop_front();
  } else if (!port.data.empty() && port.paused_until <= now) {
    q = pop_data(port);
  } else {
    return;  // nothing eligible (empty, or the data FIFO is paused)
  }

  const Wire& wire = net_.wire(id(), port_id);
  const double gbps = effective_gbps(wire, now);
  if (gbps < wire.link->gbps) {
    // Injected speed mismatch / oversubscription actually bit: this frame
    // serializes below the fabric's nominal rate.
    faults_->note_rate_limited(id(), wire.peer.node, now);
  }
  const Time ser = sim::serialization_ns(q.pkt.size_bytes, gbps);
  port.tx_busy = true;
  telemetry_->on_transmit(q.pkt, port_id, now);
  finish_transmit(port_id, std::move(q), ser);
}

void Switch::finish_transmit(PortId port_id, Queued&& q, Time ser) {
  net_.deliver(id(), port_id, std::move(q.pkt), ser);
  auto wake = [this, port_id]() {
    Port& port = ports_[static_cast<size_t>(port_id)];
    port.tx_busy = false;
    try_transmit(port_id);
  };
  static_assert(sim::InlineAction::fits_inline<decltype(wake)>());
  net_.simu().schedule(ser, std::move(wake));
}

void Switch::handle_pfc_frame(const Packet& pkt, PortId in_port) {
  // A PAUSE from the peer on `in_port` freezes OUR data FIFO toward it.
  Port& port = ports_[static_cast<size_t>(in_port)];
  const Time now = net_.simu().now();
  if (pkt.pause_quanta == 0) {
    port.paused_until = 0;  // RESUME
  } else {
    // Pause quanta are defined in units of the link's *negotiated* speed
    // (802.3x: one quantum = 512 bit times), so a rate override stretches
    // the pause duration too.
    const double quantum_ns =
        net::kPauseQuantumBits / effective_gbps(net_.wire(id(), in_port), now);
    port.paused_until = now + static_cast<Time>(quantum_ns * pkt.pause_quanta);
    // Wake the transmitter when the pause ages out (RESUME also wakes it).
    net_.simu().schedule_at(port.paused_until,
                            [this, in_port]() { try_transmit(in_port); });
  }
  // The paper's per-port PFC status register.
  telemetry_->on_pfc_frame(in_port, pkt.pause_quanta, port.paused_until, now);
  if (pkt.pause_quanta == 0) try_transmit(in_port);
}

void Switch::send_pause(PortId in_port, std::uint32_t quanta) {
  // PFC frames are MAC-level control traffic: modelled as bypassing the
  // egress serializer (highest priority, 64 B) so backpressure still
  // propagates when the data path is saturated or wedged (deadlock).
  const Wire& wire = net_.wire(id(), in_port);
  const Time ser = sim::serialization_ns(
      net::kPfcFrameBytes, effective_gbps(wire, net_.simu().now()));
  ++pause_frames_sent_;
  net_.log_pfc({net_.simu().now(), id(), in_port, quanta});
  net_.deliver(id(), in_port, net::make_pfc(quanta), ser);
  if (quanta > 0) {
    const double quantum_ns =
        net::kPauseQuantumBits / effective_gbps(wire, net_.simu().now());
    const Time refresh = static_cast<Time>(
        quantum_ns * quanta * kPauseRefreshFraction);
    net_.simu().schedule(std::max<Time>(refresh, 1000),
                         [this, in_port]() { refresh_pause(in_port); });
  }
}

void Switch::refresh_pause(PortId in_port) {
  Port& ing = ports_[static_cast<size_t>(in_port)];
  if (!ing.pausing_upstream) return;
  // Still above Xon? Keep the upstream paused (802.1Qbb re-advertisement).
  if (ing.ingress_bytes > cfg_.pfc_xon_bytes) {
    send_pause(in_port, kPauseQuanta);
  } else {
    ing.pausing_upstream = false;
    send_pause(in_port, 0);
  }
}

void Switch::maybe_resume(PortId in_port) {
  Port& ing = ports_[static_cast<size_t>(in_port)];
  if (ing.pausing_upstream && ing.ingress_bytes <= cfg_.pfc_xon_bytes) {
    ing.pausing_upstream = false;
    send_pause(in_port, 0);  // RESUME
  }
}

}  // namespace hawkeye::device
