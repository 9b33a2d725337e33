#pragma once

#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace hawkeye::telemetry {

/// One flow-table entry as exported to the controller/analyzer: an
/// occupied slot, or an entry an XOR mismatch evicted from its epoch.
struct FlowRecord {
  net::FiveTuple flow;
  std::uint32_t pkt_cnt = 0;
  std::uint32_t paused_cnt = 0;        // packets enqueued while port paused
  std::uint64_t qdepth_pkts_sum = 0;   // Σ queue length (pkts) at enqueue,
                                       // over non-paused enqueues only
  net::PortId egress_port = net::kInvalidPort;

  bool zero() const { return pkt_cnt == 0; }
};

/// Per-port counters for one epoch.
struct PortRecord {
  net::PortId port = net::kInvalidPort;
  std::uint32_t pkt_cnt = 0;
  std::uint32_t paused_cnt = 0;
  std::uint64_t qdepth_pkts_sum = 0;  // over all enqueues (incl. paused)
  std::uint64_t tx_bytes = 0;

  bool zero() const { return pkt_cnt == 0 && paused_cnt == 0; }
};

/// One port-pair causality meter entry: bytes that entered on `in_port`
/// and left via `out_port` during the epoch (paper Figure 3).
struct MeterRecord {
  net::PortId in_port = net::kInvalidPort;
  net::PortId out_port = net::kInvalidPort;
  std::uint64_t bytes = 0;
};

struct EpochRecord {
  std::uint64_t epoch_id = 0;
  sim::Time start = 0;  // wall-clock start of the epoch
  std::vector<FlowRecord> flows;  // occupied slots, then evicted entries
  std::vector<PortRecord> ports;
  std::vector<MeterRecord> meters;
};

/// Snapshot of the per-port PFC status register (Figure 3 "Port Status"):
/// essential for frozen deadlocks, where a fully paused port sees no new
/// enqueues and therefore accumulates no paused-packet counts.
struct PortStatusRecord {
  net::PortId port = net::kInvalidPort;
  bool paused_now = false;
  sim::Time pause_deadline = 0;
  std::int64_t queue_pkts = 0;  // instantaneous occupancy at collection
};

/// Everything one switch hands to the analyzer for a diagnosis episode.
struct SwitchTelemetryReport {
  net::NodeId sw = net::kInvalidNode;
  sim::Time collected_at = 0;
  std::vector<EpochRecord> epochs;
  std::vector<PortStatusRecord> port_status;  // paused ports at collection
};

/// Serialized wire sizes (bytes) used for overhead accounting (Fig 9a/14).
/// Tuple(13) + counters; matches the order-of-magnitude of the paper's
/// SpiderMon comparison (36 B per flow record there).
inline constexpr std::int32_t kFlowRecordBytes = 27;   // tuple(13)+cnt(4)+paused(4)+qsum(4)+port(2)
inline constexpr std::int32_t kPortRecordBytes = 22;   // port(2)+cnt(4)+paused(4)+qsum(4)+tx(8)
inline constexpr std::int32_t kMeterRecordBytes = 8;   // in(2)+out(2)+bytes(4)
inline constexpr std::int32_t kPortStatusBytes = 15;   // port(2)+flag(1)+deadline(8)+queue(4)
inline constexpr std::int32_t kEpochHeaderBytes = 22;  // id(8)+start(8)+3 counts
inline constexpr std::int32_t kReportHeaderBytes = 19; // magic+ver+sw+ts+counts

std::int64_t serialized_bytes(const SwitchTelemetryReport& r);

/// Analyzer-side union of two snapshots of the SAME switch taken at
/// different times (a persistent anomaly is collected repeatedly): epochs
/// are keyed by their wall-clock start and the later snapshot of an epoch
/// wins (its counters are a superset); port PFC status is OR-ed. This lets
/// the analyzer combine early snapshots (dense causality meters) with late
/// ones (settled deadlock pause state).
void merge_report(SwitchTelemetryReport& dst, const SwitchTelemetryReport& src);

}  // namespace hawkeye::telemetry
