#include "telemetry/engine.hpp"

#include <algorithm>

namespace hawkeye::telemetry {

int epoch_shift_for(sim::Time approx_epoch_ns) {
  int shift = 10;
  while ((sim::Time{1} << (shift + 1)) <= approx_epoch_ns && shift < 30) {
    ++shift;
  }
  // Pick the closer of 2^shift and 2^(shift+1).
  const sim::Time lo = sim::Time{1} << shift;
  const sim::Time hi = sim::Time{1} << (shift + 1);
  return (approx_epoch_ns - lo <= hi - approx_epoch_ns) ? shift : shift + 1;
}

TelemetryEngine::TelemetryEngine(net::NodeId sw, std::int32_t port_count,
                                 TelemetryConfig cfg)
    : sw_(sw), port_count_(port_count), cfg_(cfg) {
  ring_.resize(static_cast<size_t>(cfg_.epoch.epoch_count()));
  for (auto& e : ring_) {
    e.pos.assign(cfg_.mode == TelemetryMode::kPortOnly ? 0 : cfg_.flow_slots,
                 0);
    e.ports.resize(static_cast<size_t>(port_count_));
    e.meter.assign(static_cast<size_t>(port_count_) *
                       static_cast<size_t>(port_count_),
                   0);
  }
  pause_until_.assign(static_cast<size_t>(port_count_), 0);
}

void TelemetryEngine::reset_epoch(Epoch& e, std::uint64_t id,
                                  sim::Time start) {
  e.id = id;
  e.start = start;
  e.live = true;
  for (const FlowSlot& s : e.flows) e.pos[s.slot] = 0;
  e.flows.clear();
  e.evicted.clear();
  for (auto& p : e.ports) {
    const auto port = p.port;
    p = PortRecord{};
    p.port = port;
  }
  std::fill(e.meter.begin(), e.meter.end(), 0);
}

TelemetryEngine::Epoch& TelemetryEngine::locate_epoch(sim::Time ts) {
  const int idx = cfg_.epoch.index_of(ts);
  Epoch& e = ring_[static_cast<size_t>(idx)];
  const std::uint64_t id = cfg_.epoch.id_of(ts);
  if (!e.live || e.id != id) {
    reset_epoch(e, id, cfg_.epoch.epoch_start(ts));
    for (std::int32_t p = 0; p < port_count_; ++p) {
      e.ports[static_cast<size_t>(p)].port = p;
    }
  }
  return e;
}

void TelemetryEngine::on_enqueue(const net::Packet& pkt, net::PortId in_port,
                                 net::PortId out_port, std::int64_t qlen_pkts,
                                 bool port_paused, sim::Time now) {
  if (pkt.kind != net::PacketKind::kData) return;
  Epoch& e = locate_epoch(now);

  if (cfg_.mode != TelemetryMode::kFlowOnly) {
    // Port-level telemetry, updated per incoming packet like the flow data.
    PortRecord& pr = e.ports[static_cast<size_t>(out_port)];
    pr.pkt_cnt += 1;
    pr.qdepth_pkts_sum += static_cast<std::uint64_t>(qlen_pkts);
    if (port_paused) pr.paused_cnt += 1;
    // Causality meter (Figure 3): traffic volume in_port -> out_port.
    if (in_port >= 0) {
      auto& m = e.meter[static_cast<size_t>(in_port) *
                            static_cast<size_t>(port_count_) +
                        static_cast<size_t>(out_port)];
      m = cfg_.one_bit_meter ? 1
                             : m + static_cast<std::uint64_t>(pkt.size_bytes);
    }
  }

  if (!e.pos.empty()) {
    // Flow table: hash-indexed slot, XOR 5-tuple match, evict on mismatch.
    const auto slot_idx =
        static_cast<std::uint32_t>(pkt.flow_hash() % cfg_.flow_slots);
    std::uint32_t& pos = e.pos[slot_idx];
    if (pos == 0) {
      e.flows.push_back(FlowSlot{pkt.flow(), 0, 0, 0, out_port, slot_idx});
      pos = static_cast<std::uint32_t>(e.flows.size());
    }
    FlowSlot& slot = e.flows[pos - 1];
    if (!(slot.flow == pkt.flow())) {
      e.evicted.push_back(slot);
      slot = FlowSlot{pkt.flow(), 0, 0, 0, out_port, slot_idx};
    }
    slot.pkt_cnt += 1;
    if (port_paused) {
      slot.paused_cnt += 1;
    } else {
      // Contention replay (Algorithm 1) excludes paused packets, so the
      // queue-depth accumulator only integrates non-paused enqueues.
      slot.qdepth_pkts_sum += static_cast<std::uint64_t>(qlen_pkts);
    }
  }
}

void TelemetryEngine::on_transmit(const net::Packet& pkt, net::PortId out_port,
                                  sim::Time now) {
  if (cfg_.mode == TelemetryMode::kFlowOnly) return;
  if (pkt.kind != net::PacketKind::kData) return;
  Epoch& e = locate_epoch(now);
  e.ports[static_cast<size_t>(out_port)].tx_bytes +=
      static_cast<std::uint64_t>(pkt.size_bytes);
}

void TelemetryEngine::on_pfc_frame(net::PortId port, std::uint32_t quanta,
                                   sim::Time pause_until, sim::Time now) {
  (void)now;
  if (port < 0 || port >= port_count_) return;
  pause_until_[static_cast<size_t>(port)] = quanta == 0 ? 0 : pause_until;
}

bool TelemetryEngine::port_paused(net::PortId port, sim::Time now) const {
  if (port < 0 || port >= port_count_) return false;
  return pause_until_[static_cast<size_t>(port)] > now;
}

sim::Time TelemetryEngine::pause_deadline(net::PortId port) const {
  if (port < 0 || port >= port_count_) return 0;
  return pause_until_[static_cast<size_t>(port)];
}

// The line-rate polling checks scan every live epoch in the ring, exactly
// like the hardware reads its register arrays: a frozen deadlock stops all
// data traffic, so the evidence lives in older epochs that are never
// overwritten (epochs reset lazily, on the first enqueue of a new period).

std::uint64_t TelemetryEngine::recent_paused_count(net::PortId port) const {
  if (cfg_.mode == TelemetryMode::kFlowOnly) return 0;
  std::uint64_t total = 0;
  for (const Epoch& e : ring_) {
    if (e.live) total += e.ports[static_cast<size_t>(port)].paused_cnt;
  }
  return total;
}

std::uint64_t TelemetryEngine::recent_flow_paused_count(
    const net::FiveTuple& flow) const {
  if (cfg_.mode == TelemetryMode::kPortOnly || cfg_.flow_slots == 0) return 0;
  const auto slot_idx = static_cast<size_t>(flow.hash() % cfg_.flow_slots);
  std::uint64_t total = 0;
  for (const Epoch& e : ring_) {
    if (!e.live || e.pos[slot_idx] == 0) continue;
    const FlowSlot& slot = e.flows[e.pos[slot_idx] - 1];
    if (slot.flow == flow) total += slot.paused_cnt;
  }
  return total;
}

std::vector<net::PortId> TelemetryEngine::causal_out_ports(
    net::PortId in_port) const {
  std::vector<net::PortId> out;
  if (cfg_.mode == TelemetryMode::kFlowOnly || in_port < 0) return out;
  for (net::PortId p = 0; p < port_count_; ++p) {
    std::uint64_t bytes = 0;
    for (const Epoch& e : ring_) {
      if (!e.live) continue;
      bytes += e.meter[static_cast<size_t>(in_port) *
                           static_cast<size_t>(port_count_) +
                       static_cast<size_t>(p)];
    }
    if (bytes > 0) out.push_back(p);
  }
  return out;
}

SwitchTelemetryReport TelemetryEngine::snapshot(
    sim::Time now,
    const std::function<std::int64_t(net::PortId)>& queue_pkts) const {
  SwitchTelemetryReport rep;
  rep.sw = sw_;
  rep.collected_at = now;
  for (const Epoch& e : ring_) {
    if (!e.live) continue;
    EpochRecord er;
    er.epoch_id = e.id;
    er.start = e.start;
    const auto export_flow = [&er](const FlowSlot& s) {
      er.flows.push_back(
          {s.flow, s.pkt_cnt, s.paused_cnt, s.qdepth_pkts_sum, s.egress_port});
    };
    for (const std::uint32_t pos : e.pos) {
      if (pos != 0) export_flow(e.flows[pos - 1]);
    }
    for (const FlowSlot& s : e.evicted) export_flow(s);
    for (const PortRecord& p : e.ports) {
      if (!p.zero()) er.ports.push_back(p);
    }
    for (net::PortId i = 0; i < port_count_; ++i) {
      for (net::PortId o = 0; o < port_count_; ++o) {
        const std::uint64_t b = e.meter[static_cast<size_t>(i) *
                                            static_cast<size_t>(port_count_) +
                                        static_cast<size_t>(o)];
        if (b > 0) er.meters.push_back({i, o, b});
      }
    }
    rep.epochs.push_back(std::move(er));
  }
  for (net::PortId p = 0; p < port_count_; ++p) {
    const std::int64_t qlen = queue_pkts ? queue_pkts(p) : 0;
    if (port_paused(p, now) || qlen > 0) {
      rep.port_status.push_back(
          {p, port_paused(p, now), pause_until_[static_cast<size_t>(p)], qlen});
    }
  }
  std::sort(rep.epochs.begin(), rep.epochs.end(),
            [](const EpochRecord& a, const EpochRecord& b) {
              return a.start < b.start;
            });
  return rep;
}

std::int64_t TelemetryEngine::raw_dump_bytes() const {
  std::int64_t per_epoch =
      static_cast<std::int64_t>(cfg_.mode == TelemetryMode::kPortOnly
                                    ? 0
                                    : cfg_.flow_slots) *
          kFlowRecordBytes +
      (cfg_.mode == TelemetryMode::kFlowOnly
           ? 0
           : static_cast<std::int64_t>(port_count_) * kPortRecordBytes +
                 static_cast<std::int64_t>(port_count_) * port_count_ *
                     kMeterRecordBytes) +
      kEpochHeaderBytes;
  return kReportHeaderBytes + per_epoch * cfg_.epoch.epoch_count();
}

void merge_report(SwitchTelemetryReport& dst,
                  const SwitchTelemetryReport& src) {
  const bool src_newer = src.collected_at > dst.collected_at;
  for (const EpochRecord& se : src.epochs) {
    EpochRecord* match = nullptr;
    for (EpochRecord& de : dst.epochs) {
      if (de.start == se.start) {
        match = &de;
        break;
      }
    }
    if (match == nullptr) {
      dst.epochs.push_back(se);
    } else if (src_newer) {
      *match = se;  // later view of the same epoch supersedes
    }
  }
  std::sort(dst.epochs.begin(), dst.epochs.end(),
            [](const EpochRecord& a, const EpochRecord& b) {
              return a.start < b.start;
            });
  for (const PortStatusRecord& sp : src.port_status) {
    PortStatusRecord* match = nullptr;
    for (PortStatusRecord& dp : dst.port_status) {
      if (dp.port == sp.port) {
        match = &dp;
        break;
      }
    }
    if (match == nullptr) {
      dst.port_status.push_back(sp);
    } else {
      match->paused_now = match->paused_now || sp.paused_now;
      match->pause_deadline = std::max(match->pause_deadline, sp.pause_deadline);
      match->queue_pkts = std::max(match->queue_pkts, sp.queue_pkts);
    }
  }
  if (src_newer) dst.collected_at = src.collected_at;
}

std::int64_t serialized_bytes(const SwitchTelemetryReport& r) {
  std::int64_t bytes = kReportHeaderBytes;
  for (const auto& e : r.epochs) {
    bytes += kEpochHeaderBytes;
    bytes += static_cast<std::int64_t>(e.flows.size()) * kFlowRecordBytes;
    bytes += static_cast<std::int64_t>(e.ports.size()) * kPortRecordBytes;
    bytes += static_cast<std::int64_t>(e.meters.size()) * kMeterRecordBytes;
  }
  bytes += static_cast<std::int64_t>(r.port_status.size()) * kPortStatusBytes;
  return bytes;
}

}  // namespace hawkeye::telemetry
