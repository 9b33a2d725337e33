#include "device/host.hpp"

#include <algorithm>
#include <cmath>

#include "fault/fault.hpp"
#include "net/topology.hpp"

namespace hawkeye::device {

using net::Packet;
using net::PacketKind;
using sim::Time;

namespace {

// Rate control, simplified to the behaviours that matter for PFC studies:
// line-rate start, multiplicative decrease on congestion feedback,
// timer/gradient-driven recovery.

// --- DCQCN ---
constexpr double kDcqcnG = 1.0 / 256.0;  // alpha EWMA gain
constexpr Time kDcqcnTimerNs = 55'000;   // rate-increase / alpha-decay period
constexpr int kFastRecoveryRounds = 5;
constexpr double kAdditiveIncreaseGbps = 5.0;
constexpr Time kCnpPacingNs = 50'000;  // receiver-side min CNP spacing

// --- loss recovery (go-back-N; RoCEv2 RC semantics) ---
constexpr Time kNackPacingNs = 30'000;          // receiver-side min NACK spacing
constexpr Time kRetransmitTimeoutNs = 500'000;  // tail-loss RTO

// --- TIMELY ---
constexpr Time kTimelyTLow = 40'000;    // below: additive increase
constexpr Time kTimelyTHigh = 150'000;  // above: multiplicative decrease
constexpr double kTimelyBeta = 0.8;
constexpr double kTimelyAddGbps = 10.0;

}  // namespace

net::FiveTuple tuple_of(const FlowSpec& spec) {
  net::FiveTuple t;
  t.src_ip = net::Topology::ip_of(spec.src);
  t.dst_ip = net::Topology::ip_of(spec.dst);
  t.src_port = spec.src_port;
  t.dst_port = spec.dst_port;
  return t;
}

Host::Host(Network& net, net::NodeId id, CcAlgorithm cc)
    : Device(id), net_(net), cc_(cc) {
  line_gbps_ = net.link_at(id, 0).gbps;
  uplink_peer_ = net.wire(id, 0).peer.node;
  net_.attach(this);
}

double Host::effective_line_gbps(Time now) const {
  if (faults_ == nullptr || !faults_->has_rate_overrides() ||
      uplink_peer_ == net::kInvalidNode) {
    return line_gbps_;
  }
  return faults_->link_gbps(id(), uplink_peer_, line_gbps_, now);
}

std::uint64_t Host::add_flow(const FlowSpec& spec) {
  FlowState f;
  f.tuple.src_ip = net::Topology::ip_of(spec.src);
  f.tuple.dst_ip = net::Topology::ip_of(spec.dst);
  f.tuple.src_port = spec.src_port;
  f.tuple.dst_port = spec.dst_port;
  // Flow ids are allocated per Network so independent runs (e.g. parallel
  // sweep workers) never touch shared state.
  f.id = net_.alloc_flow_id();
  f.total_bytes = spec.bytes;
  f.total_pkts = static_cast<std::uint32_t>(
      (spec.bytes + net::kMtuBytes - 1) / net::kMtuBytes);
  f.cc_enabled = spec.cc_enabled;
  f.limit_gbps = spec.rate_cap_gbps > 0
                     ? std::min(spec.rate_cap_gbps, line_gbps_)
                     : line_gbps_;
  f.rate_gbps = f.limit_gbps;  // RDMA transports start at line rate
  f.target_gbps = f.limit_gbps;
  f.next_allowed = spec.start;

  FlowStats st;
  st.tuple = f.tuple;
  st.flow_id = f.id;
  st.bytes = spec.bytes;
  st.start = spec.start;

  const std::size_t idx = flows_.size();
  flows_.push_back(f);
  stats_.push_back(st);
  flow_index_[f.id] = idx;

  net_.simu().schedule_at(spec.start, [this, idx]() { start_flow(idx); });
  return f.id;
}

void Host::start_flow(std::size_t idx) {
  flows_[idx].started = true;
  try_send();
}

void Host::schedule_wake(Time at) {
  const Time now = net_.simu().now();
  if (at <= now) at = now;
  if (next_wake_ >= now && next_wake_ <= at) return;  // earlier wake pending
  next_wake_ = at;
  net_.simu().schedule_at(at, [this, at]() {
    if (next_wake_ == at) next_wake_ = -1;
    try_send();
  });
}

void Host::try_send() {
  if (tx_busy_) return;
  const Time now = net_.simu().now();

  // Round-robin over flows that are started, unfinished and pace-eligible,
  // while the uplink is not PAUSEd.
  const std::size_t n = flows_.size();
  std::size_t chosen = n;
  Time earliest = -1;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (rr_cursor_ + k) % n;
    FlowState& f = flows_[i];
    if (!f.started || f.done_sending) continue;
    const Time gate = std::max(f.next_allowed, paused_until_);
    if (gate <= now) {
      chosen = i;
      break;
    }
    if (earliest < 0 || gate < earliest) earliest = gate;
  }
  if (chosen == n) {
    if (earliest >= 0) schedule_wake(earliest);
    return;
  }
  rr_cursor_ = (chosen + 1) % n;
  send_segment(chosen);
}

void Host::send_segment(std::size_t idx) {
  FlowState& f = flows_[idx];
  const Time now = net_.simu().now();
  const std::int64_t remaining = f.total_bytes - f.sent_bytes;
  const std::int32_t payload = static_cast<std::int32_t>(
      std::min<std::int64_t>(remaining, net::kMtuBytes));
  const bool last = remaining <= net::kMtuBytes;

  Packet pkt = net::make_data_packet(f.tuple, f.id, f.next_seq, payload, last, now);
  f.next_seq += 1;
  f.sent_bytes += payload;
  if (last) {
    f.done_sending = true;
    arm_rto(f.id);  // recover if the tail of the flow gets dropped
  }
  FlowStats& st = stats_[idx];
  st.pkts_sent += 1;

  // Serialization runs at the uplink's *negotiated* rate (a rate override
  // slows the wire); pacing below still thinks in nominal terms — the NIC
  // configuration believes the fabric speed, which is the misconfiguration.
  const Time ser = sim::serialization_ns(pkt.size_bytes,
                                         effective_line_gbps(now));
  // Pacing: the next segment of this flow may start once the current one
  // would have been serialized at the flow's DCQCN rate.
  const double rate = std::max(f.rate_gbps, 0.05);  // floor: 50 Mbps
  f.next_allowed = now + static_cast<Time>(
                             static_cast<double>(pkt.size_bytes) * 8.0 / rate);

  tx_busy_ = true;
  net_.deliver(id(), 0, std::move(pkt), ser);
  net_.simu().schedule(ser, [this]() {
    tx_busy_ = false;
    try_send();
  });
}

void Host::receive(Packet pkt, net::PortId in_port) {
  (void)in_port;
  const Time now = net_.simu().now();
  switch (pkt.kind) {
    case PacketKind::kPfc: {
      if (pkt.pause_quanta == 0) {
        paused_until_ = 0;
        try_send();
      } else {
        const double quantum_ns =
            net::kPauseQuantumBits / effective_line_gbps(now);
        paused_until_ = now + static_cast<Time>(quantum_ns * pkt.pause_quanta);
        schedule_wake(paused_until_);
      }
      return;
    }
    case PacketKind::kData:
      on_data(pkt);
      return;
    case PacketKind::kAck:
      on_ack(pkt);
      return;
    case PacketKind::kCnp:
      on_cnp(pkt);
      return;
    case PacketKind::kNack:
      on_nack(pkt);
      return;
    case PacketKind::kPolling:
      return;  // sink: analyzers model these out-of-band
  }
}

void Host::on_data(const Packet& data) {
  const Time now = net_.simu().now();

  // Go-back-N receiver: deliver only the in-order prefix. A gap means an
  // upstream drop (only possible when PFC headroom was misconfigured) —
  // discard the out-of-order segment and NACK the expected sequence.
  std::uint32_t& expected = rx_expected_[data.flow_id];
  if (data.seq > expected) {
    Time& last = last_nack_[data.flow_id];
    if (last == 0 || now - last >= kNackPacingNs) {
      last = now;
      Packet nack = net::make_nack(data, expected);
      net_.deliver(id(), 0, std::move(nack),
                   sim::serialization_ns(net::kNackBytes, line_gbps_));
    }
    return;
  }
  if (data.seq < expected) return;  // duplicate of a delivered segment
  expected = data.seq + 1;

  // Injected PCIe bottleneck: the segment must clear the capped DMA drain
  // before its ACK (the RDMA completion) can leave. The drain FIFO serves
  // at drain_gbps, so under sustained line-rate arrival the backlog — and
  // with it the sender-visible RTT — grows without any switch pausing:
  // the host becomes a pure victim with no paused upstream.
  Time drain_wait = 0;
  if (faults_ != nullptr && faults_->has_host_faults()) {
    const double drain = faults_->host_drain_gbps(id(), now);
    if (drain > 0) {
      const Time service = static_cast<Time>(
          static_cast<double>(data.size_bytes) * 8.0 / drain);
      const Time backlog = std::max<Time>(drain_busy_until_ - now, 0);
      drain_busy_until_ = now + backlog + service;
      drain_wait = backlog + service;
      faults_->note_host_drain_delay(id(), backlog, now);
    }
  }

  // Per-segment acknowledgement, echoing the tx timestamp.
  Packet ack = net::make_ack(data, now);
  const Time ser = sim::serialization_ns(ack.size_bytes, line_gbps_);
  // control class skips pacing; drain_wait defers the ACK to DMA completion
  net_.deliver(id(), 0, std::move(ack), ser + drain_wait);

  if (data.ecn_ce) {
    Time& last = last_cnp_[data.flow_id];
    if (last == 0 || now - last >= kCnpPacingNs) {
      last = now;
      Packet cnp = net::make_cnp(data);
      const Time cser = sim::serialization_ns(cnp.size_bytes, line_gbps_);
      net_.deliver(id(), 0, std::move(cnp), cser);
    }
  }
}

void Host::on_ack(const Packet& ack) {
  FlowState* f = flow_by_id(ack.flow_id);
  if (f == nullptr) return;
  const Time now = net_.simu().now();
  const Time rtt = now - ack.tx_time;

  FlowStats& st = stats_of(*f);
  st.pkts_acked += 1;
  st.last_ack = now;
  if (st.min_rtt == 0 || rtt < st.min_rtt) st.min_rtt = rtt;
  st.max_rtt = std::max(st.max_rtt, rtt);
  if (ack.last_of_flow && st.finish < 0) st.finish = now;

  if (f->cc_enabled && cc_ == CcAlgorithm::kTimely) {
    timely_update(*f, rtt);
  }
  if (rtt_cb_) rtt_cb_(f->tuple, rtt, now);
}

void Host::timely_update(FlowState& f, Time rtt) {
  // Simplified TIMELY: outside the [t_low, t_high] band the absolute RTT
  // decides; inside it the normalized gradient does.
  const Time prev = f.prev_rtt == 0 ? rtt : f.prev_rtt;
  f.prev_rtt = rtt;
  if (rtt < kTimelyTLow) {
    f.rate_gbps = std::min(f.limit_gbps, f.rate_gbps + kTimelyAddGbps);
    return;
  }
  if (rtt > kTimelyTHigh) {
    f.rate_gbps = std::max(
        0.05, f.rate_gbps *
                  (1.0 - kTimelyBeta *
                             (1.0 - static_cast<double>(kTimelyTHigh) /
                                        static_cast<double>(rtt))));
    return;
  }
  const double gradient =
      static_cast<double>(rtt - prev) / static_cast<double>(kTimelyTLow);
  if (gradient <= 0) {
    f.rate_gbps = std::min(f.limit_gbps, f.rate_gbps + kTimelyAddGbps);
  } else {
    f.rate_gbps =
        std::max(0.05, f.rate_gbps * (1.0 - kTimelyBeta *
                                                std::min(1.0, gradient)));
  }
}

void Host::on_nack(const Packet& nack) {
  FlowState* f = flow_by_id(nack.flow_id);
  if (f == nullptr) return;
  // Go-back-N: resume transmission from the receiver's expected sequence
  // (ignore stale NACKs for data we already rewound past).
  if (nack.seq < f->next_seq) rewind_flow(*f, nack.seq);
}

void Host::rewind_flow(FlowState& f, std::uint32_t to_seq) {
  FlowStats& st = stats_of(f);
  to_seq = std::max(to_seq, st.pkts_acked);  // never re-send delivered prefix
  if (to_seq >= f.next_seq) return;
  retransmissions_ += f.next_seq - to_seq;
  st.retx_pkts += f.next_seq - to_seq;
  f.next_seq = to_seq;
  f.sent_bytes = static_cast<std::int64_t>(to_seq) * net::kMtuBytes;
  if (f.sent_bytes > f.total_bytes) f.sent_bytes = f.total_bytes;
  f.done_sending = false;
  try_send();
}

void Host::arm_rto(std::uint64_t flow_id) {
  FlowState* f = flow_by_id(flow_id);
  if (f == nullptr || f->rto_armed) return;
  f->rto_armed = true;
  net_.simu().schedule(kRetransmitTimeoutNs, [this, flow_id]() {
    FlowState* fs = flow_by_id(flow_id);
    if (fs == nullptr) return;
    fs->rto_armed = false;
    const FlowStats& st = stats_of(*fs);
    if (st.complete()) return;
    if (fs->done_sending && st.pkts_acked < fs->total_pkts) {
      // Tail loss: the final segments (or their ACKs) vanished.
      rewind_flow(*fs, st.pkts_acked);
    }
    if (!st.complete()) arm_rto(flow_id);
  });
}

void Host::on_cnp(const Packet& cnp) {
  FlowState* f = flow_by_id(cnp.flow_id);
  if (f == nullptr || !f->cc_enabled) return;
  if (cc_ != CcAlgorithm::kDcqcn) return;  // CNPs drive DCQCN only
  // DCQCN multiplicative decrease.
  f->target_gbps = f->rate_gbps;
  f->alpha = (1 - kDcqcnG) * f->alpha + kDcqcnG;
  f->rate_gbps = std::max(0.05, f->rate_gbps * (1 - f->alpha / 2));
  f->recovery_stage = 0;
  f->cnp_seen_this_period = true;
  if (!f->timer_armed) {
    f->timer_armed = true;
    const std::uint64_t fid = f->id;
    net_.simu().schedule(kDcqcnTimerNs, [this, fid]() { dcqcn_timer(fid); });
  }
}

void Host::dcqcn_timer(std::uint64_t flow_id) {
  FlowState* f = flow_by_id(flow_id);
  if (f == nullptr || f->done_sending) return;
  if (!f->cnp_seen_this_period) {
    f->alpha *= (1 - kDcqcnG);
    if (f->recovery_stage < kFastRecoveryRounds) {
      f->recovery_stage += 1;  // fast recovery toward target
    } else {
      f->target_gbps =
          std::min(f->limit_gbps, f->target_gbps + kAdditiveIncreaseGbps);
    }
    f->rate_gbps = std::min(f->limit_gbps, (f->rate_gbps + f->target_gbps) / 2);
  }
  f->cnp_seen_this_period = false;
  if (f->rate_gbps < f->limit_gbps * 0.999) {
    net_.simu().schedule(kDcqcnTimerNs,
                         [this, flow_id]() { dcqcn_timer(flow_id); });
  } else {
    f->timer_armed = false;
  }
}

void Host::inject_pfc(Time start, Time stop, Time period,
                      std::uint32_t quanta) {
  auto tick = [this, start, stop, period, quanta]() {
    if (start >= stop) return;
    ++pfc_injected_;
    net_.log_pfc({net_.simu().now(), id(), 0, quanta});
    const Time ser = sim::serialization_ns(net::kPfcFrameBytes, line_gbps_);
    net_.deliver(id(), 0, net::make_pfc(quanta), ser);
    inject_pfc(start + period, stop, period, quanta);
  };
  // Widest capture list a device schedules (40 bytes) — must stay inline.
  static_assert(sim::InlineAction::fits_inline<decltype(tick)>());
  net_.simu().schedule_at(start, std::move(tick));
}

Host::FlowState* Host::flow_by_id(std::uint64_t id) {
  const auto it = flow_index_.find(id);
  return it == flow_index_.end() ? nullptr : &flows_[it->second];
}

}  // namespace hawkeye::device
