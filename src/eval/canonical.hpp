#pragma once

// Canonical textual form of a RunResult. One line per run, every field
// either integral or printed with %.17g (round-trip exact for IEEE
// doubles), so string equality here IS bit-equality of the underlying
// result. Shared by the golden-trace fixtures (tests/golden_test.cpp) and
// the shard-identity suite (tests/shard_identity_test.cpp): both pin the
// same serialization, so "N-shard output equals 1-shard output" and
// "output equals the committed fixture" are statements about the same
// bytes.

#include <cstdio>
#include <sstream>
#include <string>

#include "eval/runner.hpp"

namespace hawkeye::eval {

inline std::string canonical_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string canonical_cell_key(diagnosis::AnomalyType scenario,
                                      std::uint64_t seed) {
  std::ostringstream os;
  os << diagnosis::to_string(scenario) << "/s" << seed;
  return os.str();
}

inline std::string canonical_line(diagnosis::AnomalyType scenario,
                                  std::uint64_t seed, const RunResult& r) {
  std::ostringstream os;
  os << canonical_cell_key(scenario, seed)                        //
     << " verdict=" << diagnosis::to_string(r.dx.type)            //
     << " triggered=" << r.triggered                              //
     << " tp=" << r.tp << " fp=" << r.fp << " fn=" << r.fn        //
     << " confidence=" << canonical_double(r.confidence)          //
     << " coverage=" << canonical_double(r.collection_coverage)   //
     << " causal_coverage=" << canonical_double(r.causal_coverage)//
     << " degraded=" << r.degraded                                //
     << " drops=" << r.drops                                      //
     << " polling_drops=" << r.polling_drops                      //
     << " link_down_drops=" << r.link_down_drops                  //
     << " pfc_loss_drops=" << r.pfc_loss_drops                    //
     << " dataplane_fault=" << r.dataplane_fault_fired            //
     << " fault_on_victim_path=" << r.fault_on_victim_path        //
     << " first_fault_at=" << r.first_fault_at                    //
     << " last_fault_at=" << r.last_fault_at                      //
     << " routing_epochs=" << r.routing_epochs                    //
     << " path_churned=" << r.path_churned                        //
     << " detection_latency=" << r.detection_latency              //
     << " collected=" << r.collected_switches                     //
     << " telemetry_bytes=" << r.telemetry_bytes                  //
     << " report_packets=" << r.report_packets                    //
     << " sim_events=" << r.sim_events;
  return os.str();
}

/// canonical_line plus every other deterministic RunResult field: the
/// verdict's lists and narrative, the overhead and health counters, the
/// fleet evidence and the non-timing ShardStats counters. Only the shard
/// timings are left out. The golden suite's parity tier pins this record,
/// so a refactor that changes anything run_one reports fails there. The
/// narrative is last and quoted: it is the one free-text field.
inline std::string canonical_record(diagnosis::AnomalyType scenario,
                                    std::uint64_t seed, const RunResult& r) {
  const auto list = [](const auto& items, auto&& item_text) {
    std::string out = "[";
    for (const auto& x : items) {
      if (out.size() > 1) out += ',';
      out += item_text(x);
    }
    return out + "]";
  };
  const auto flows = [&list](const std::vector<net::FiveTuple>& v) {
    return list(v, [](const net::FiveTuple& t) { return t.to_string(); });
  };
  const auto ports = [&list](const std::vector<net::PortRef>& v) {
    return list(v, [](const net::PortRef& p) { return net::to_string(p); });
  };
  const diagnosis::DiagnosisResult& dx = r.dx;
  const sim::Simulator::ShardStats& ss = r.shard_stats;
  const fault::FleetEvidence& fe = r.fleet_evidence;
  std::ostringstream os;
  os << canonical_line(scenario, seed, r)                                 //
     << " name=" << r.scenario_name                                       //
     << " truth=" << diagnosis::to_string(r.truth_type)                   //
     << " roots=" << flows(dx.root_cause_flows)                           //
     << " injecting_peer=" << dx.injecting_peer                           //
     << " initial_port=" << net::to_string(dx.initial_port)               //
     << " loop=" << ports(dx.loop_ports)                                  //
     << " spreading_path=" << ports(dx.spreading_path)                    //
     << " spreading_flows=" << flows(dx.spreading_flows)                  //
     << " dx_confidence=" << canonical_double(dx.confidence)              //
     << " raw_telemetry_bytes=" << r.raw_telemetry_bytes                  //
     << " dataplane_report_packets=" << r.dataplane_report_packets        //
     << " polling_packets=" << r.polling_packets                          //
     << " monitor_bw_bytes=" << r.monitor_bw_bytes                        //
     << " causal_switches=" << r.causal_switches                          //
     << " collected_ids="
     << list(r.collected, [](net::NodeId n) { return std::to_string(n); })
     << " repolls=" << r.repolls                                          //
     << " failed_collections=" << r.failed_collections                    //
     << " stale_epochs=" << r.stale_epochs                                //
     << " pfc_pause_lost=" << r.pfc_pause_lost                            //
     << " pfc_resume_lost=" << r.pfc_resume_lost                          //
     << " pfc_frames_delayed=" << r.pfc_frames_delayed                    //
     << " crc_drops=" << r.crc_drops                                      //
     << " retransmissions=" << r.retransmissions                          //
     << " rate_limited_pkts=" << r.rate_limited_pkts                      //
     << " host_drain_delayed=" << r.host_drain_delayed                    //
     << " shard_rounds=" << ss.parallel_rounds << '/'                     //
     << ss.sequential_windows << '/' << ss.sequential_events << '/'       //
     << ss.merged_records << '/' << ss.deferred_schedules << '/'          //
     << ss.deferred_controls                                              //
     << " fleet_links="
     << list(fe.links,
             [](const fault::LinkCounterEvidence& l) {
               return std::to_string(l.node_a) + '-' +
                      std::to_string(l.node_b) + ':' +
                      std::to_string(l.crc_errors) + ':' +
                      canonical_double(l.nominal_gbps) + ':' +
                      canonical_double(l.actual_gbps) + ':' +
                      std::to_string(l.slow_serializations) + ':' +
                      std::to_string(l.oversub_tier);
             })
     << " fleet_hosts="
     << list(fe.hosts,
             [](const fault::HostCounterEvidence& h) {
               return std::to_string(h.host) + ':' +
                      std::to_string(h.drain_delayed_pkts) + ':' +
                      std::to_string(h.max_drain_backlog_ns);
             })
     << " fleet_retx=" << fe.sender_retransmissions                       //
     << " narrative=\"" << dx.narrative << '"';
  return os.str();
}

}  // namespace hawkeye::eval
