#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace hawkeye::net {

/// RoCEv2 data rides the one lossless class that PFC pauses. ACKs, CNPs,
/// NACKs and Hawkeye polling packets share a control class that PFC never
/// pauses (the paper assigns polling packets "the same priority as control
/// packets (e.g., CNP)"); switches pick the egress FIFO from the kind.
enum class PacketKind : std::uint8_t {
  kData,     // RoCEv2 payload segment
  kAck,      // per-packet acknowledgement carrying the echoed tx timestamp
  kCnp,      // DCQCN congestion notification
  kPfc,      // 802.1Qbb PAUSE/RESUME frame (link-local, never forwarded)
  kNack,     // out-of-order notification: go-back-N from the carried seq
  kPolling,  // Hawkeye diagnosis polling packet (Figure 5 format)
};

/// Hawkeye polling flag values (paper Table 1).
enum class PollingFlag : std::uint8_t {
  kUseless = 0b00,      // useless tracing — switches drop the packet
  kVictimPath = 0b01,   // (default) trace along the victim flow path
  kPfcCausality = 0b10, // trace along PFC causality only
  kBoth = 0b11,         // trace along both
};

inline bool traces_victim_path(PollingFlag f) {
  return (static_cast<std::uint8_t>(f) & 0b01) != 0;
}
inline bool traces_pfc_causality(PollingFlag f) {
  return (static_cast<std::uint8_t>(f) & 0b10) != 0;
}

/// One simulated packet. A single struct covers every kind; the unused
/// per-kind fields stay at their defaults. Packets are value types — each
/// hop holds its own copy, mirroring how real switches buffer frames.
///
/// The transport flow is set only through set_flow(), which also caches
/// its FiveTuple::hash(): every switch hop reads the hash twice (ECMP
/// selection and the telemetry flow-table slot), so it is computed once
/// per packet instead of twice per hop, and no packet can carry a hash of
/// some other tuple.
struct Packet {
  PacketKind kind = PacketKind::kData;
  bool last_of_flow = false;      // data / ack: final segment of the flow
  bool ecn_ce = false;            // CE mark set by congested egress queues
  PollingFlag poll_flag = PollingFlag::kUseless;  // polling: Table 1 flag
  std::int32_t size_bytes = 0;

  // --- data / ack / cnp / nack (the flow itself: flow(), set_flow()) ---
  std::uint64_t flow_id = 0;      // simulator-side flow handle
  std::uint32_t seq = 0;          // segment index within the flow
  // --- pfc ---
  std::uint32_t pause_quanta = 0; // 0 => RESUME; else pause duration quanta
  // --- data / ack ---
  sim::Time tx_time = 0;          // sender timestamp, echoed by the ACK

  // --- polling (Figure 5: flag + victim 5-tuple) ---
  FiveTuple victim;               // the complained-about flow
  std::uint64_t probe_id = 0;     // diagnosis episode identifier
  std::int32_t poll_hops = 0;     // TTL-style safety bound

  /// The transport flow this packet belongs to.
  const FiveTuple& flow() const { return flow_; }
  /// flow().hash(), computed when the flow was set.
  std::uint64_t flow_hash() const {
    assert(flow_hash_ == flow_.hash() && "stale packet flow hash");
    return flow_hash_;
  }
  void set_flow(const FiveTuple& flow) {
    flow_ = flow;
    flow_hash_ = flow.hash();
  }

  std::string to_string() const;

 private:
  FiveTuple flow_;
  std::uint64_t flow_hash_ = FiveTuple{}.hash();
};
static_assert(sizeof(Packet) == 88, "the cached flow hash fits the padding");

/// Canonical on-wire sizes (bytes).
inline constexpr std::int32_t kMtuBytes = 1000;        // data segment payload
inline constexpr std::int32_t kHeaderBytes = 48;       // Eth+IP+UDP+BTH
inline constexpr std::int32_t kAckBytes = 64;
inline constexpr std::int32_t kCnpBytes = 64;
inline constexpr std::int32_t kNackBytes = 64;
inline constexpr std::int32_t kPfcFrameBytes = 64;
inline constexpr std::int32_t kPollingBytes = 64;      // flag + 5-tuple + pad
inline constexpr std::int32_t kReportMtuBytes = 1500;  // report batching MTU

/// 802.1Qbb: one pause quantum = 512 bit times. At 100 Gbps that is 5.12 ns.
inline constexpr double kPauseQuantumBits = 512.0;

Packet make_data_packet(const FiveTuple& flow, std::uint64_t flow_id,
                        std::uint32_t seq, std::int32_t payload_bytes,
                        bool last, sim::Time now);
Packet make_ack(const Packet& data, sim::Time now);
Packet make_cnp(const Packet& data);
/// NACK asking the sender to resume from `expected_seq` (go-back-N).
Packet make_nack(const Packet& data, std::uint32_t expected_seq);
Packet make_pfc(std::uint32_t quanta);
Packet make_polling(const FiveTuple& victim, std::uint64_t probe_id,
                    PollingFlag flag);

}  // namespace hawkeye::net
