#pragma once

#include "collect/episode.hpp"
#include "diagnosis/diagnosis.hpp"
#include "net/routing.hpp"

namespace hawkeye::baselines {

/// The flow-interaction diagnosis paradigm of pre-RDMA systems (SpiderMon,
/// NetSight, Trumpet-style analyses, §2.3): find the most congested queue
/// on the victim flow's path and blame the flows sharing it. No PFC
/// vocabulary — paused packets are indistinguishable from contention, and
/// root causes hops away (or off the victim path) are structurally
/// unreachable. Used by the Fig 8 baseline comparison.
diagnosis::DiagnosisResult diagnose_local_contention(
    const collect::Episode& episode, const net::Topology& topo,
    const net::Routing& routing, const net::FiveTuple& victim);

/// --- Overhead models (Fig 9) ---

/// SpiderMon: 36 B per flow record, collected on victim-path switches.
inline constexpr std::int32_t kSpiderMonFlowRecordBytes = 36;
/// SpiderMon: 16-bit cumulative-delay header on every data packet.
inline constexpr std::int32_t kSpiderMonHeaderBytes = 2;
/// NetSight: ~15 B postcard per packet per switch hop.
inline constexpr std::int32_t kNetSightPostcardBytes = 15;

/// Telemetry bytes a SpiderMon collection would ship for this episode
/// (per-flow records on the collected switches).
std::int64_t spidermon_telemetry_bytes(const collect::Episode& episode);

/// NetSight processing bytes: every postcard of the monitored interval.
std::int64_t netsight_telemetry_bytes(std::uint64_t data_packet_hops);

}  // namespace hawkeye::baselines
