#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace hawkeye::net {

/// Node identifier: hosts and switches share one id space.
using NodeId = std::int32_t;
/// Port index local to a device.
using PortId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr PortId kInvalidPort = -1;

/// A (switch, port) pair — the unit the provenance graph reasons about.
struct PortRef {
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;

  bool valid() const { return node >= 0 && port >= 0; }
  friend bool operator==(const PortRef&, const PortRef&) = default;
  friend auto operator<=>(const PortRef&, const PortRef&) = default;
};

/// RoCEv2 flow key. Addresses are synthetic node-scoped integers; the
/// telemetry layer hashes and XOR-matches the tuple exactly as the paper's
/// P4 flow table does.
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 17;  // RoCEv2 rides UDP (dst port 4791)

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;
  friend auto operator<=>(const FiveTuple&, const FiveTuple&) = default;

  bool empty() const { return src_ip == 0 && dst_ip == 0; }

  /// FNV-1a over the tuple bytes — the hash the switch flow tables use for
  /// slot indexing and the ECMP path selector reuses for determinism.
  ///
  /// Audited (PR 1): this is a proper byte-mixing hash, not a naive
  /// XOR/sum, so telemetry::TelemetryEngine's `hash() % flow_slots`
  /// bucketing sees well-spread low bits — tests/net_test.cpp
  /// (FiveTupleTest.HashSpreadsAcrossFlowTableSlots) keeps that true.
  /// Do NOT change the mixing: ECMP uses this value, so any change
  /// re-routes every flow and breaks bit-for-bit reproducibility of the
  /// paper figures against recorded runs.
  constexpr std::uint64_t hash() const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v, int bytes) {
      for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
      }
    };
    mix(src_ip, 4);
    mix(dst_ip, 4);
    mix(src_port, 2);
    mix(dst_port, 2);
    mix(protocol, 1);
    return h;
  }

  std::string to_string() const;
};

std::string to_string(const PortRef& p);

}  // namespace hawkeye::net

template <>
struct std::hash<hawkeye::net::FiveTuple> {
  std::size_t operator()(const hawkeye::net::FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(t.hash());
  }
};

template <>
struct std::hash<hawkeye::net::PortRef> {
  std::size_t operator()(const hawkeye::net::PortRef& p) const noexcept {
    return std::hash<std::int64_t>()((static_cast<std::int64_t>(p.node) << 16) ^ p.port);
  }
};
