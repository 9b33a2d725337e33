#include "baselines/local_contention.hpp"

#include <algorithm>
#include <map>

namespace hawkeye::baselines {

using collect::Episode;
using diagnosis::AnomalyType;
using diagnosis::DiagnosisResult;
using net::FiveTuple;
using net::PortRef;

DiagnosisResult diagnose_local_contention(const Episode& ep,
                                          const net::Topology& topo,
                                          const net::Routing& routing,
                                          const FiveTuple& victim) {
  (void)topo;
  DiagnosisResult res;

  // Most congested victim-path queue by observed average depth; PFC-paused
  // enqueues inflate the depth like any other (no PFC visibility).
  PortRef worst;
  double worst_depth = 0;
  std::map<PortRef, std::map<FiveTuple, std::uint64_t>> flows_at;
  std::map<PortRef, std::pair<double, std::uint64_t>> depth_at;  // sum, cnt

  for (const auto& [sw, rep] : ep.reports) {
    for (const auto& er : rep.epochs) {
      for (const auto& pr : er.ports) {
        auto& d = depth_at[{sw, pr.port}];
        d.first += static_cast<double>(pr.qdepth_pkts_sum);
        d.second += pr.pkt_cnt;
      }
      for (const auto& fr : er.flows) {
        flows_at[{sw, fr.egress_port}][fr.flow] += fr.pkt_cnt;
        // Flow-only view (no port records): approximate depth from flows.
        auto& d = depth_at[{sw, fr.egress_port}];
        if (d.second == 0) {
          d.first += static_cast<double>(fr.qdepth_pkts_sum);
          d.second += fr.pkt_cnt;
        }
      }
    }
  }

  for (const PortRef& hop : routing.path_of(victim)) {
    const auto it = depth_at.find(hop);
    if (it == depth_at.end() || it->second.second == 0) continue;
    const double avg = it->second.first / static_cast<double>(it->second.second);
    if (avg > worst_depth) {
      worst_depth = avg;
      worst = hop;
    }
  }
  if (!worst.valid() || worst_depth < 1.0) return res;  // nothing congested

  // Contributors: largest byte shares in the congested queue, excluding
  // the complaining victim itself.
  const auto fit = flows_at.find(worst);
  if (fit == flows_at.end()) return res;
  std::uint64_t max_cnt = 0;
  for (const auto& [flow, cnt] : fit->second) {
    if (flow == victim) continue;
    max_cnt = std::max(max_cnt, cnt);
  }
  if (max_cnt == 0) return res;
  std::vector<std::pair<std::uint64_t, FiveTuple>> ranked;
  for (const auto& [flow, cnt] : fit->second) {
    if (flow == victim) continue;
    if (static_cast<double>(cnt) >=
        diagnosis::kContentionShare * static_cast<double>(max_cnt)) {
      ranked.push_back({cnt, flow});
    }
  }
  std::sort(ranked.rbegin(), ranked.rend());

  res.type = AnomalyType::kNormalContention;  // the only case it knows
  res.initial_port = worst;
  for (const auto& [cnt, flow] : ranked) res.root_cause_flows.push_back(flow);
  res.narrative = "local flow interaction at " + net::to_string(worst);
  return res;
}

std::int64_t spidermon_telemetry_bytes(const Episode& ep) {
  std::int64_t flows = 0;
  for (const auto& [sw, rep] : ep.reports) {
    for (const auto& er : rep.epochs) {
      flows += static_cast<std::int64_t>(er.flows.size());
    }
  }
  return flows * kSpiderMonFlowRecordBytes;
}

std::int64_t netsight_telemetry_bytes(std::uint64_t data_packet_hops) {
  return static_cast<std::int64_t>(data_packet_hops) * kNetSightPostcardBytes;
}

}  // namespace hawkeye::baselines
