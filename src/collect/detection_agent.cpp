#include "collect/detection_agent.hpp"

#include <algorithm>

#include "net/packet.hpp"

namespace hawkeye::collect {

using sim::Time;

DetectionAgent::DetectionAgent(device::Network& net,
                               const net::Routing& routing,
                               Collector& collector, Config cfg)
    : net_(net),
      routing_(routing),
      collector_(collector),
      cfg_(cfg),
      probe_seq_(net.topo().node_count() + 1, 0) {}

void DetectionAgent::attach(device::Host& host) {
  hosts_.push_back(&host);
  host.set_rtt_callback(
      [this](const net::FiveTuple& flow, Time rtt, Time now) {
        on_rtt(flow, rtt, now);
      });
}

void DetectionAgent::start() {
  if (scanning_) return;
  scanning_ = true;
  net_.simu().schedule(cfg_.stall_scan_period, [this]() { stall_scan(); });
}

std::uint64_t DetectionAgent::alloc_probe_id(net::NodeId src) {
  const std::size_t slot = src < 0 ? probe_seq_.size() - 1
                                   : static_cast<std::size_t>(src);
  const std::uint64_t seq = ++probe_seq_[slot];
  return (static_cast<std::uint64_t>(slot + 1) << 32) | seq;
}

DetectionAgent::Baseline DetectionAgent::baseline(
    const net::FiveTuple& flow) const {
  // Baselines are a function of the flow's current route; a routing epoch
  // bump (reconvergence after a link flap) invalidates every memoized
  // value. Epoch 0 runs never take this branch, so the fault-free event
  // stream is untouched.
  if (routing_.epoch() != baseline_epoch_) {
    baseline_cache_.clear();
    baseline_epoch_ = routing_.epoch();
  }
  if (const auto it = baseline_cache_.find(flow);
      it != baseline_cache_.end()) {
    return it->second;
  }
  Baseline b;
  Time one_way = 0;
  for (const net::PortRef& hop : routing_.path_of(flow)) {
    const std::int64_t lid = net_.topo().link_of(hop.node, hop.port);
    if (lid < 0) continue;
    const net::LinkSpec& link = net_.topo().link(static_cast<size_t>(lid));
    one_way += link.delay_ns +
               sim::serialization_ns(net::kMtuBytes + net::kHeaderBytes,
                                     link.gbps);
    ++b.hops;
  }
  b.rtt = std::max<Time>(2 * one_way, sim::us(1));
  baseline_cache_[flow] = b;
  return b;
}

Time DetectionAgent::baseline_rtt(const net::FiveTuple& flow) const {
  return baseline(flow).rtt;
}

Time DetectionAgent::trigger_threshold(const net::FiveTuple& flow) const {
  const Baseline b = baseline(flow);
  return static_cast<Time>(cfg_.threshold_factor *
                           static_cast<double>(b.rtt)) +
         cfg_.hop_noise_headroom * static_cast<Time>(b.hops);
}

void DetectionAgent::on_rtt(const net::FiveTuple& flow, Time rtt, Time now) {
  if (faults_ != nullptr) rtt = faults_->jitter_rtt(rtt, flow, now);
  if (rtt > trigger_threshold(flow)) trigger(flow, now);
}

void DetectionAgent::stall_scan() {
  const Time now = net_.simu().now();
  for (device::Host* host : hosts_) {
    for (const device::FlowStats& st : host->flow_stats()) {
      if (st.complete() || st.pkts_sent == 0) continue;
      if (st.pkts_acked >= st.pkts_sent) continue;
      const Time last_progress = std::max(st.last_ack, st.start);
      // Same calibrated threshold as the RTT path: with headroom 0 this is
      // exactly factor x baseline (the pre-calibration stall test).
      const Time stall_after =
          std::max<Time>(trigger_threshold(st.tuple), cfg_.min_stall);
      if (now - last_progress > stall_after) trigger(st.tuple, now);
      if (cfg_.retx_trigger_pkts > 0 && st.retx_pkts > 0) {
        std::uint32_t& seen = retx_seen_[st.tuple];
        if (st.retx_pkts >= seen + cfg_.retx_trigger_pkts) {
          trigger(st.tuple, now);
        }
        seen = st.retx_pkts;
      }
    }
  }
  net_.simu().schedule(cfg_.stall_scan_period, [this]() { stall_scan(); });
}

void DetectionAgent::trigger(const net::FiveTuple& victim, Time now) {
  if (const auto it = last_trigger_.find(victim);
      it != last_trigger_.end() &&
      now - it->second < cfg_.flow_dedup_interval) {
    return;
  }
  last_trigger_[victim] = now;

  const std::uint64_t probe_id =
      alloc_probe_id(net::Topology::node_of_ip(victim.src_ip));
  Episode& ep = collector_.open_episode(probe_id, victim, now);
  // The victim route is the coverage contract: these are the switches the
  // collection must hear from for the diagnosis to be trustworthy. The
  // routing epoch is stamped alongside so a mid-episode reconvergence is
  // detectable (the coverage check re-derives the contract on mismatch).
  ep.expected_switches = routing_.switches_on_path(victim);
  ep.routing_epoch = routing_.epoch();

  if (cfg_.max_repolls > 0) {
    schedule_coverage_check(probe_id, 0, cfg_.repoll_timeout);
  }

  if (cfg_.full_polling) {
    // Baseline: no in-band tracing; the controller dumps every switch.
    collector_.collect_all(probe_id, now);
    return;
  }
  emit_poll(victim, probe_id);
}

void DetectionAgent::emit_poll(const net::FiveTuple& victim,
                               std::uint64_t probe_id) {
  // Emit the polling packet from the victim's source host NIC, on the
  // control class so PFC cannot pause it.
  const net::NodeId src = net::Topology::node_of_ip(victim.src_ip);
  if (src < 0) return;
  net::Packet poll =
      net::make_polling(victim, probe_id, net::PollingFlag::kVictimPath);
  collector_.count_polling_packet(probe_id, poll.size_bytes);
  const net::LinkSpec& up = net_.link_at(src, 0);
  net_.deliver(src, 0, std::move(poll),
               sim::serialization_ns(net::kPollingBytes, up.gbps));
}

void DetectionAgent::emit_targeted_poll(const Episode& ep,
                                        std::uint64_t probe_id) {
  // Walk the coverage contract in path order: the probe is injected on the
  // link feeding the FIRST silent hop, from its (covered) upstream
  // neighbour — or the source host when the gap starts at hop one. From
  // there the normal victim-path forwarding covers the rest of the gap.
  // Entering via the real upstream link keeps the in_port (and thus the
  // switch's PFC-causality analysis) identical to a first-round probe.
  net::NodeId target = net::kInvalidNode;
  net::NodeId upstream = net::Topology::node_of_ip(ep.victim.src_ip);
  for (const net::NodeId sw : ep.expected_switches) {
    if (!ep.has_report(sw)) {
      target = sw;
      break;
    }
    upstream = sw;
  }
  if (target == net::kInvalidNode) return;  // fully covered — nothing to do
  const net::PortId out =
      upstream < 0 ? net::kInvalidPort : net_.topo().port_towards(upstream,
                                                                  target);
  if (out == net::kInvalidPort) {
    // No per-hop route information (expectation not path-adjacent): fall
    // back to the full victim-path probe rather than heal nothing.
    emit_poll(ep.victim, probe_id);
    return;
  }
  net::Packet poll =
      net::make_polling(ep.victim, probe_id, net::PollingFlag::kVictimPath);
  collector_.count_polling_packet(probe_id, poll.size_bytes);
  net_.deliver(upstream, out, std::move(poll),
               sim::serialization_ns(net::kPollingBytes,
                                     net_.link_at(upstream, out).gbps));
}

void DetectionAgent::schedule_coverage_check(std::uint64_t probe_id,
                                             std::uint32_t attempt,
                                             Time timeout) {
  net_.simu().schedule(timeout, [this, probe_id, attempt, timeout]() {
    coverage_check(probe_id, attempt, timeout);
  });
}

void DetectionAgent::coverage_check(std::uint64_t probe_id,
                                    std::uint32_t attempt, Time timeout) {
  Episode* ep = collector_.episode(probe_id);
  if (ep == nullptr) return;
  // Routing reconverged since the contract was derived: the victim now
  // takes (or may take) a different path, so coverage of the OLD hop set
  // is no longer what makes the diagnosis trustworthy. Re-derive against
  // the live table; reports already gathered from former hops are kept as
  // extra evidence, and the episode is flagged as path-churned.
  if (routing_.epoch() != ep->routing_epoch) {
    ep->expected_switches = routing_.switches_on_path(ep->victim);
    ep->routing_epoch = routing_.epoch();
    ep->path_churned = true;
  }
  if (ep->coverage_complete()) return;
  if (attempt >= cfg_.max_repolls) {
    // Retry budget exhausted with hops still silent: the diagnosis can
    // proceed, but only as an explicitly degraded best-effort verdict.
    ep->degraded = true;
    return;
  }
  ++ep->repolls;
  const Time now = net_.simu().now();
  if (cfg_.full_polling) {
    collector_.collect_missing(probe_id, now);
  } else {
    emit_targeted_poll(*ep, probe_id);
  }
  schedule_coverage_check(probe_id, attempt + 1,
                          std::min(timeout * 2, cfg_.repoll_backoff_cap));
}

}  // namespace hawkeye::collect
