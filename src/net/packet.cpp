#include "net/packet.hpp"

#include <cstdio>

namespace hawkeye::net {

namespace {

/// The tuple of the opposite direction: what ACKs, CNPs and NACKs carry.
FiveTuple reverse(const FiveTuple& t) {
  FiveTuple r;
  r.src_ip = t.dst_ip;
  r.dst_ip = t.src_ip;
  r.src_port = t.dst_port;
  r.dst_port = t.src_port;
  r.protocol = t.protocol;
  return r;
}

}  // namespace

Packet make_data_packet(const FiveTuple& flow, std::uint64_t flow_id,
                        std::uint32_t seq, std::int32_t payload_bytes,
                        bool last, sim::Time now) {
  Packet p;
  p.kind = PacketKind::kData;
  p.size_bytes = payload_bytes + kHeaderBytes;
  p.set_flow(flow);
  p.flow_id = flow_id;
  p.seq = seq;
  p.last_of_flow = last;
  p.tx_time = now;
  return p;
}

Packet make_ack(const Packet& data, sim::Time now) {
  (void)now;
  Packet p;
  p.kind = PacketKind::kAck;
  p.size_bytes = kAckBytes;
  p.set_flow(reverse(data.flow()));  // ACK travels the reverse tuple
  p.flow_id = data.flow_id;
  p.seq = data.seq;
  p.last_of_flow = data.last_of_flow;
  p.tx_time = data.tx_time;  // echoed timestamp for RTT measurement
  return p;
}

Packet make_cnp(const Packet& data) {
  Packet p;
  p.kind = PacketKind::kCnp;
  p.size_bytes = kCnpBytes;
  p.set_flow(reverse(data.flow()));
  p.flow_id = data.flow_id;
  return p;
}

Packet make_nack(const Packet& data, std::uint32_t expected_seq) {
  Packet p = make_cnp(data);  // same reverse-tuple control shell
  p.kind = PacketKind::kNack;
  p.size_bytes = kNackBytes;
  p.seq = expected_seq;
  return p;
}

Packet make_pfc(std::uint32_t quanta) {
  Packet p;
  p.kind = PacketKind::kPfc;
  p.size_bytes = kPfcFrameBytes;
  p.pause_quanta = quanta;
  return p;
}

Packet make_polling(const FiveTuple& victim, std::uint64_t probe_id,
                    PollingFlag flag) {
  Packet p;
  p.kind = PacketKind::kPolling;
  p.size_bytes = kPollingBytes;
  p.victim = victim;
  p.probe_id = probe_id;
  p.poll_flag = flag;
  return p;
}

std::string Packet::to_string() const {
  char buf[128];
  const char* kind_name[] = {"DATA", "ACK", "CNP", "PFC", "NACK", "POLL"};
  std::snprintf(buf, sizeof(buf), "[%s %s seq=%u %dB]",
                kind_name[static_cast<int>(kind)], flow_.to_string().c_str(),
                seq, size_bytes);
  return buf;
}

}  // namespace hawkeye::net
