#include "collect/collector.hpp"

#include <algorithm>

namespace hawkeye::collect {

void Collector::register_switch(device::Switch& sw) {
  switches_.push_back(&sw);
  const net::NodeId id = sw.id();
  const auto need = static_cast<std::size_t>(id) + 1;
  if (last_collect_.size() < need) {
    last_collect_.resize(need, sim::Time{-1});
    last_report_.resize(need);
    evicted_.resize(need);
  }
  sw.telemetry().set_evict_sink([this, id](const telemetry::FlowRecord& rec) {
    evicted_[static_cast<std::size_t>(id)].push_back(rec);
  });
}

Episode& Collector::open_episode(std::uint64_t probe_id,
                                 const net::FiveTuple& victim, sim::Time now) {
  Episode& ep = episodes_[probe_id];
  if (ep.probe_id == 0) {
    ep.probe_id = probe_id;
    ep.victim = victim;
    ep.triggered_at = now;
    order_.push_back(probe_id);
  }
  return ep;
}

void Collector::collect_from(device::Switch& sw, std::uint64_t probe_id,
                             sim::Time now) {
  snapshot_requests_.fetch_add(1, std::memory_order_relaxed);
  sim::Time delay = cfg_.snapshot_delay;
  if (faults_ != nullptr) {
    const fault::DmaVerdict v = faults_->on_dma(sw.id(), now);
    if (v.failed) {
      // The REGISTER_SYNC never completes; the episode will notice the
      // missing hop in its coverage check and re-poll.
      if (Episode* ep = episode(probe_id)) ++ep->failed_collections;
      return;
    }
    delay += v.extra_delay;  // stale read: snapshot lands late
  }
  if (simu_ != nullptr && delay > 0) {
    auto snapshot = [this, &sw, probe_id, mirror = now]() {
      do_collect(sw, probe_id, simu_->now(), mirror);
    };
    static_assert(sim::InlineAction::fits_inline<decltype(snapshot)>());
    simu_->schedule(delay, std::move(snapshot));
    return;
  }
  do_collect(sw, probe_id, now, now);
}

void Collector::do_collect(device::Switch& sw, std::uint64_t probe_id,
                           sim::Time now, sim::Time mirror) {
  Episode* ep = episode(probe_id);
  if (ep == nullptr) return;

  const net::NodeId id = sw.id();
  const auto idx = static_cast<std::size_t>(id);
  if (ep->has_report(id)) return;  // already in this episode

  telemetry::SwitchTelemetryReport rep;
  if (last_collect_[idx] >= 0 &&
      now - last_collect_[idx] < cfg_.switch_collect_interval) {
    // Duplicate-collection suppression (paper §3.4): a concurrent episode
    // already polled this switch — share its snapshot instead of issuing a
    // second CPU read.
    rep = last_report_[idx];
  } else {
    last_collect_[idx] = now;
    rep = sw.telemetry().snapshot(
        now, [&sw](net::PortId p) { return sw.queue_pkts(p); });
    if (!evicted_[idx].empty()) {
      rep.evicted = evicted_[idx];
    }
    last_report_[idx] = rep;
  }

  // Ring-overwrite rejection: an epoch that STARTED after the snapshot
  // could legitimately reflect the mirror instant means the data plane
  // recycled that ring slot while the (delayed) DMA was in flight. Its
  // counters describe post-anomaly traffic, so attributing them to this
  // episode would poison the diagnosis. The grace window admits the normal
  // asynchronous-snapshot skew plus one epoch of drift; in a fault-free run
  // nothing exceeds it.
  const sim::Time stale_limit = mirror + cfg_.snapshot_delay +
                                sw.config().telemetry.epoch.epoch_ns();
  std::uint32_t stale_rejected = 0;
  for (auto it = rep.epochs.begin(); it != rep.epochs.end();) {
    if (it->start > stale_limit) {
      ++stale_rejected;
      it = rep.epochs.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = rep.evicted.begin(); it != rep.evicted.end();) {
    if (it->epoch_start > stale_limit) {
      ++stale_rejected;
      it = rep.evicted.erase(it);
    } else {
      ++it;
    }
  }

  const std::int64_t filtered = telemetry::serialized_bytes(rep);
  const std::int64_t raw = sw.telemetry().raw_dump_bytes();
  const sim::Time dma_latency =
      cfg_.dma_per_epoch * static_cast<sim::Time>(std::max<std::size_t>(
                               rep.epochs.size(), 1));

  if (!ep->put_report(id, std::move(rep))) return;
  ep->stale_epochs_rejected += stale_rejected;
  account_report(*ep, filtered, raw);
  // Per-switch CPU polls run in parallel (asynchronous, triggered within an
  // end-to-end delay of each other), so episode latency is the max.
  ep->collection_latency = std::max(ep->collection_latency, dma_latency);
}

void Collector::account_report(Episode& e, std::int64_t filtered,
                               std::int64_t raw) const {
  e.telemetry_bytes += filtered;
  e.raw_telemetry_bytes += raw;
  e.report_packets += static_cast<std::uint64_t>(
      (filtered + cfg_.report_mtu_bytes - 1) / cfg_.report_mtu_bytes);
  e.dataplane_report_packets += static_cast<std::uint64_t>(
      (raw + cfg_.dataplane_phv_bytes - 1) / cfg_.dataplane_phv_bytes);
}

void Collector::collect_all(std::uint64_t probe_id, sim::Time now) {
  for (device::Switch* sw : switches_) collect_from(*sw, probe_id, now);
}

void Collector::collect_missing(std::uint64_t probe_id, sim::Time now) {
  Episode* ep = episode(probe_id);
  if (ep == nullptr) return;
  for (device::Switch* sw : switches_) {
    bool expected = false;
    for (const net::NodeId id : ep->expected_switches) {
      if (id == sw->id()) {
        expected = true;
        break;
      }
    }
    if (expected && !ep->has_report(sw->id())) {
      collect_from(*sw, probe_id, now);
    }
  }
}

void Collector::count_polling_packet(std::uint64_t probe_id,
                                     std::int32_t bytes) {
  if (Episode* ep = episode(probe_id)) {
    ep->polling_packets += 1;
    ep->polling_bytes += bytes;
  }
}

Episode* Collector::episode(std::uint64_t probe_id) {
  const auto it = episodes_.find(probe_id);
  return it == episodes_.end() ? nullptr : &it->second;
}

std::optional<Episode> Collector::merged_episode(const net::FiveTuple& victim,
                                                 sim::Time onset) const {
  std::vector<const Episode*> picked, pre_onset;
  for (const std::uint64_t id : order_) {
    const Episode& ep = episodes_.at(id);
    if (!(ep.victim == victim)) continue;
    (ep.triggered_at >= onset ? picked : pre_onset).push_back(&ep);
  }
  if (picked.empty() && !pre_onset.empty()) picked.push_back(pre_onset[0]);
  if (picked.empty()) return std::nullopt;

  Episode merged;
  merged.probe_id = picked.front()->probe_id;
  merged.victim = victim;
  merged.triggered_at = picked.front()->triggered_at;
  // The filtered bytes of a merged report are re-serialized below; the raw
  // register dump per switch does not depend on the report, so it is taken
  // from the first episode that has any.
  std::int64_t raw_per_switch = 0;
  for (const Episode* ep : picked) {
    if (raw_per_switch == 0 && !ep->reports.empty()) {
      raw_per_switch = ep->raw_telemetry_bytes /
                       static_cast<std::int64_t>(ep->reports.size());
    }
    merged.polling_packets += ep->polling_packets;
    merged.polling_bytes += ep->polling_bytes;
    merged.collection_latency =
        std::max(merged.collection_latency, ep->collection_latency);
    merged.repolls += ep->repolls;
    merged.failed_collections += ep->failed_collections;
    merged.stale_epochs_rejected += ep->stale_epochs_rejected;
    merged.degraded = merged.degraded || ep->degraded;
    merged.path_churned = merged.path_churned || ep->path_churned;
    merged.routing_epoch = std::max(merged.routing_epoch, ep->routing_epoch);
    // Stable union: episodes collected on different sides of a
    // reconvergence expect different hop sets, and the merged diagnosis
    // needs them all.
    for (const net::NodeId sw : ep->expected_switches) {
      if (std::find(merged.expected_switches.begin(),
                    merged.expected_switches.end(),
                    sw) == merged.expected_switches.end()) {
        merged.expected_switches.push_back(sw);
      }
    }
    for (const auto& [sw, rep] : ep->reports) {
      if (!merged.put_report(sw, rep)) {
        telemetry::merge_report(merged.report_ref(sw), rep);
      }
    }
  }
  for (const auto& [sw, rep] : merged.reports) {
    account_report(merged, telemetry::serialized_bytes(rep), raw_per_switch);
  }
  return merged;
}

}  // namespace hawkeye::collect
