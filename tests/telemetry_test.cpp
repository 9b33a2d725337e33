#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "telemetry/engine.hpp"
#include "telemetry/resource_model.hpp"

namespace hawkeye::telemetry {
namespace {

net::Packet data_pkt(std::uint32_t src, std::uint32_t dst, std::uint16_t sp,
                     std::int32_t payload = 1000) {
  net::FiveTuple t;
  t.src_ip = src;
  t.dst_ip = dst;
  t.src_port = sp;
  t.dst_port = 4791;
  return net::make_data_packet(t, 1, 0, payload, false, 0);
}

TelemetryConfig small_cfg() {
  TelemetryConfig cfg;
  cfg.epoch.epoch_shift = 10;  // 1024 ns epochs for fast tests
  cfg.epoch.index_bits = 2;    // 4-slot ring
  cfg.flow_slots = 64;
  return cfg;
}

// ---------- Epoch indexing ----------

class EpochShiftTest : public ::testing::TestWithParam<int> {};

TEST_P(EpochShiftTest, IndexAndIdRoundTrip) {
  EpochConfig e;
  e.epoch_shift = GetParam();
  e.index_bits = 3;
  const sim::Time epoch = e.epoch_ns();
  // Consecutive epochs get consecutive ring slots (mod ring size).
  for (int k = 0; k < 20; ++k) {
    const sim::Time ts = k * epoch + epoch / 2;
    EXPECT_EQ(e.index_of(ts), k % e.epoch_count());
    EXPECT_EQ(e.epoch_start(ts), k * epoch);
  }
  // The epoch ID changes exactly when the ring wraps.
  EXPECT_NE(e.id_of(0), e.id_of(epoch * e.epoch_count()));
  EXPECT_EQ(e.id_of(0), e.id_of(epoch - 1));
}

INSTANTIATE_TEST_SUITE_P(Shifts, EpochShiftTest,
                         ::testing::Values(10, 17, 18, 19, 20, 21));

TEST(EpochTest, ShiftForApproximateDuration) {
  EXPECT_EQ(epoch_shift_for(sim::us(100)), 17);   // 131 us is closest
  EXPECT_EQ(epoch_shift_for(sim::us(500)), 19);   // 524 us
  EXPECT_EQ(epoch_shift_for(sim::ms(1)), 20);     // 1.05 ms
  EXPECT_EQ(epoch_shift_for(sim::ms(2)), 21);     // 2.1 ms
}

// ---------- Flow & port tables ----------

TEST(TelemetryEngineTest, RecordsFlowAndPortCounters) {
  TelemetryEngine eng(1, 4, small_cfg());
  const auto pkt = data_pkt(1, 2, 100);
  eng.on_enqueue(pkt, 0, 1, 5, false, 100);
  eng.on_enqueue(pkt, 0, 1, 6, false, 200);
  const auto rep = eng.snapshot(300);
  ASSERT_EQ(rep.epochs.size(), 1u);
  ASSERT_EQ(rep.epochs[0].flows.size(), 1u);
  const auto& fr = rep.epochs[0].flows[0];
  EXPECT_EQ(fr.pkt_cnt, 2u);
  EXPECT_EQ(fr.paused_cnt, 0u);
  EXPECT_EQ(fr.qdepth_pkts_sum, 11u);
  EXPECT_EQ(fr.egress_port, 1);
  ASSERT_EQ(rep.epochs[0].ports.size(), 1u);
  EXPECT_EQ(rep.epochs[0].ports[0].pkt_cnt, 2u);
}

TEST(TelemetryEngineTest, PausedPacketsClassifiedAndExcludedFromDepth) {
  TelemetryEngine eng(1, 4, small_cfg());
  const auto pkt = data_pkt(1, 2, 100);
  eng.on_enqueue(pkt, 0, 1, 5, false, 100);
  eng.on_enqueue(pkt, 0, 1, 50, true, 200);  // enqueued while port paused
  const auto rep = eng.snapshot(300);
  const auto& fr = rep.epochs[0].flows[0];
  EXPECT_EQ(fr.pkt_cnt, 2u);
  EXPECT_EQ(fr.paused_cnt, 1u);
  // Contention replay excludes paused enqueues: depth sum only has the 5.
  EXPECT_EQ(fr.qdepth_pkts_sum, 5u);
  // Port-level depth keeps everything (congestion magnitude).
  EXPECT_EQ(rep.epochs[0].ports[0].qdepth_pkts_sum, 55u);
  EXPECT_EQ(rep.epochs[0].ports[0].paused_cnt, 1u);
}

TEST(TelemetryEngineTest, XorMismatchEvictsToController) {
  TelemetryConfig cfg = small_cfg();
  cfg.flow_slots = 1;  // force collisions
  TelemetryEngine eng(1, 4, cfg);
  eng.on_enqueue(data_pkt(1, 2, 100), 0, 1, 0, false, 100);
  eng.on_enqueue(data_pkt(3, 4, 200), 0, 1, 0, false, 150);
  const auto rep = eng.snapshot(200);
  ASSERT_EQ(rep.epochs.size(), 1u);
  const auto& flows = rep.epochs[0].flows;
  ASSERT_EQ(flows.size(), 2u);
  // The slot now belongs to the new flow ...
  EXPECT_EQ(flows[0].flow.src_ip, 3u);
  // ... and the displaced entry travels with its epoch, after the occupant.
  EXPECT_EQ(flows[1].flow.src_ip, 1u);
  EXPECT_EQ(flows[1].pkt_cnt, 1u);
  // The data-plane lookup reads only the occupied slot.
  EXPECT_EQ(eng.recent_flow_paused_count(data_pkt(1, 2, 100).flow()), 0u);
}

// Engine-level half of the ring-overwrite guarantee; the collector-level
// half (a DMA delayed past a full ring rotation contributes zero stale
// records to the episode) lives in fault_test.cpp / StaleEpochTest.
TEST(TelemetryEngineTest, EpochWrapAroundResetsSlot) {
  TelemetryConfig cfg = small_cfg();  // 4 epochs x 1024 ns
  TelemetryEngine eng(1, 4, cfg);
  const auto pkt = data_pkt(1, 2, 100);
  eng.on_enqueue(pkt, 0, 1, 0, false, 100);  // epoch 0, id 0
  // Same ring slot, one full ring later: must reset, not accumulate.
  const sim::Time wrap = cfg.epoch.epoch_ns() * cfg.epoch.epoch_count();
  eng.on_enqueue(pkt, 0, 1, 0, false, 100 + wrap);
  const auto rep = eng.snapshot(100 + wrap);
  for (const auto& er : rep.epochs) {
    for (const auto& fr : er.flows) EXPECT_EQ(fr.pkt_cnt, 1u);
  }
}

TEST(TelemetryEngineTest, CausalityMeterTracksPortPairs) {
  TelemetryEngine eng(1, 4, small_cfg());
  eng.on_enqueue(data_pkt(1, 2, 100), 0, 1, 0, false, 100);
  eng.on_enqueue(data_pkt(1, 2, 100), 0, 1, 0, false, 150);
  eng.on_enqueue(data_pkt(3, 4, 300), 2, 1, 0, false, 160);
  const auto cands0 = eng.causal_out_ports(0);
  ASSERT_EQ(cands0.size(), 1u);
  EXPECT_EQ(cands0[0], 1);
  EXPECT_TRUE(eng.causal_out_ports(3).empty());
  const auto rep = eng.snapshot(200);
  // Two meter entries: (0->1) and (2->1).
  ASSERT_EQ(rep.epochs[0].meters.size(), 2u);
}

TEST(TelemetryEngineTest, OneBitMeterSaturatesAtOne) {
  TelemetryConfig cfg = small_cfg();
  cfg.one_bit_meter = true;
  TelemetryEngine eng(1, 4, cfg);
  eng.on_enqueue(data_pkt(1, 2, 100), 0, 1, 0, false, 100);
  eng.on_enqueue(data_pkt(1, 2, 100), 0, 1, 0, false, 150);
  const auto rep = eng.snapshot(200);
  ASSERT_EQ(rep.epochs[0].meters.size(), 1u);
  EXPECT_EQ(rep.epochs[0].meters[0].bytes, 1u);  // presence only (ITSY)
}

TEST(TelemetryEngineTest, PfcStatusRegister) {
  TelemetryEngine eng(1, 4, small_cfg());
  eng.on_pfc_frame(2, 65535, 5000, 100);
  EXPECT_TRUE(eng.port_paused(2, 1000));
  EXPECT_FALSE(eng.port_paused(2, 6000));  // pause aged out
  eng.on_pfc_frame(2, 0, 0, 2000);         // RESUME clears
  EXPECT_FALSE(eng.port_paused(2, 2500));
}

TEST(TelemetryEngineTest, SnapshotExportsPausedPortStatus) {
  TelemetryEngine eng(1, 4, small_cfg());
  eng.on_pfc_frame(3, 65535, sim::ms(10), 100);
  const auto rep = eng.snapshot(1000, [](net::PortId p) {
    return p == 3 ? 42 : 0;
  });
  ASSERT_EQ(rep.port_status.size(), 1u);
  EXPECT_EQ(rep.port_status[0].port, 3);
  EXPECT_TRUE(rep.port_status[0].paused_now);
  EXPECT_EQ(rep.port_status[0].queue_pkts, 42);
}

TEST(TelemetryEngineTest, PortOnlyModeSkipsFlowTables) {
  TelemetryConfig cfg = small_cfg();
  cfg.mode = TelemetryMode::kPortOnly;
  TelemetryEngine eng(1, 4, cfg);
  eng.on_enqueue(data_pkt(1, 2, 100), 0, 1, 3, false, 100);
  const auto rep = eng.snapshot(200);
  EXPECT_TRUE(rep.epochs[0].flows.empty());
  EXPECT_FALSE(rep.epochs[0].ports.empty());
  EXPECT_FALSE(rep.epochs[0].meters.empty());
}

TEST(TelemetryEngineTest, FlowOnlyModeSkipsPortState) {
  TelemetryConfig cfg = small_cfg();
  cfg.mode = TelemetryMode::kFlowOnly;
  TelemetryEngine eng(1, 4, cfg);
  eng.on_enqueue(data_pkt(1, 2, 100), 0, 1, 3, false, 100);
  const auto rep = eng.snapshot(200);
  EXPECT_FALSE(rep.epochs[0].flows.empty());
  EXPECT_TRUE(rep.epochs[0].ports.empty());
  EXPECT_TRUE(rep.epochs[0].meters.empty());
  EXPECT_TRUE(eng.causal_out_ports(0).empty());
}

TEST(TelemetryEngineTest, ZeroSlotsFilteredFromSnapshot) {
  TelemetryEngine eng(1, 64, small_cfg());
  eng.on_enqueue(data_pkt(1, 2, 100), 0, 1, 0, false, 100);
  const auto rep = eng.snapshot(200);
  // 64 ports but only the touched one exported.
  EXPECT_EQ(rep.epochs[0].ports.size(), 1u);
  EXPECT_EQ(rep.epochs[0].flows.size(), 1u);
  // Raw dump is orders of magnitude bigger than the filtered report.
  EXPECT_GT(eng.raw_dump_bytes(), 10 * serialized_bytes(rep));
}

/// The flow tables as the hardware lays them out: every epoch holds all
/// `flow_slots` slots and a reset rewrites each of them. The engine stores
/// only occupied slots and must stay indistinguishable from this.
class DenseFlowTables {
 public:
  explicit DenseFlowTables(const TelemetryConfig& cfg)
      : cfg_(cfg), ring_(static_cast<std::size_t>(cfg.epoch.epoch_count())) {
    for (Epoch& e : ring_) e.slots.resize(cfg.flow_slots);
  }

  void enqueue(const net::Packet& pkt, net::PortId out, std::int64_t qlen,
               bool paused, sim::Time now) {
    Epoch& e = ring_[static_cast<std::size_t>(cfg_.epoch.index_of(now))];
    const std::uint64_t id = cfg_.epoch.id_of(now);
    if (!e.live || e.id != id) {
      e.id = id;
      e.start = cfg_.epoch.epoch_start(now);
      e.live = true;
      for (Slot& s : e.slots) s = Slot{};
      e.evicted.clear();
    }
    Slot& s = e.slots[pkt.flow().hash() % cfg_.flow_slots];
    if (s.occupied && !(s.rec.flow == pkt.flow())) {
      e.evicted.push_back(s.rec);
      s = Slot{};
    }
    if (!s.occupied) {
      s.occupied = true;
      s.rec.flow = pkt.flow();
      s.rec.egress_port = out;
    }
    s.rec.pkt_cnt += 1;
    if (paused) {
      s.rec.paused_cnt += 1;
    } else {
      s.rec.qdepth_pkts_sum += static_cast<std::uint64_t>(qlen);
    }
  }

  /// Live epochs by start time, each with its occupied slots in slot order
  /// followed by the entries it evicted, in eviction order.
  std::vector<EpochRecord> epochs() const {
    std::vector<EpochRecord> out;
    for (const Epoch& e : ring_) {
      if (!e.live) continue;
      EpochRecord er;
      er.epoch_id = e.id;
      er.start = e.start;
      for (const Slot& s : e.slots) {
        if (s.occupied) er.flows.push_back(s.rec);
      }
      er.flows.insert(er.flows.end(), e.evicted.begin(), e.evicted.end());
      out.push_back(std::move(er));
    }
    std::sort(out.begin(), out.end(),
              [](const EpochRecord& a, const EpochRecord& b) {
                return a.start < b.start;
              });
    return out;
  }

  /// Evicted entries the live epochs hold.
  std::size_t live_evicted() const {
    std::size_t n = 0;
    for (const Epoch& e : ring_) {
      if (e.live) n += e.evicted.size();
    }
    return n;
  }

  std::uint64_t paused_count(const net::FiveTuple& flow) const {
    std::uint64_t total = 0;
    for (const Epoch& e : ring_) {
      if (!e.live) continue;
      const Slot& s = e.slots[flow.hash() % cfg_.flow_slots];
      if (s.occupied && s.rec.flow == flow) total += s.rec.paused_cnt;
    }
    return total;
  }

 private:
  struct Slot {
    bool occupied = false;
    FlowRecord rec;
  };
  struct Epoch {
    std::uint64_t id = 0;
    sim::Time start = 0;
    bool live = false;
    std::vector<Slot> slots;
    std::vector<FlowRecord> evicted;
  };
  TelemetryConfig cfg_;
  std::vector<Epoch> ring_;
};

auto fields(const FlowRecord& r) {
  return std::tuple(r.flow.src_ip, r.flow.dst_ip, r.flow.src_port,
                    r.flow.dst_port, r.pkt_cnt, r.paused_cnt,
                    r.qdepth_pkts_sum, r.egress_port);
}

void expect_same_flows(const std::vector<FlowRecord>& got,
                       const std::vector<FlowRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(fields(got[i]), fields(want[i])) << "record " << i;
  }
}

void check_against_dense_tables(std::uint32_t flow_slots) {
  SCOPED_TRACE("flow_slots=" + std::to_string(flow_slots));
  TelemetryConfig cfg = small_cfg();  // 4 epochs x 1024 ns
  cfg.flow_slots = flow_slots;
  TelemetryEngine eng(1, 4, cfg);
  DenseFlowTables ref(cfg);

  // More distinct flows than the largest table has slots, so every size
  // sees collisions; time crosses the 4096 ns ring about 20 times, with
  // occasional jumps that leave whole epochs stale.
  sim::Rng rng(flow_slots);
  const auto flow_of = [](std::int64_t i) {
    return data_pkt(static_cast<std::uint32_t>(1 + i % 97),
                    static_cast<std::uint32_t>(200 + i / 97),
                    static_cast<std::uint16_t>(i));
  };
  sim::Time now = 0;
  std::size_t evicted_seen = 0;
  for (int n = 1; n <= 40000; ++n) {
    now += rng.chance(0.001) ? rng.uniform_int(1000, 6000)
                             : rng.uniform_int(0, 3);
    const net::Packet pkt = flow_of(rng.uniform_int(0, 5999));
    const auto out = static_cast<net::PortId>(rng.uniform_int(0, 3));
    const std::int64_t qlen = rng.uniform_int(0, 40);
    const bool paused = rng.chance(0.3);
    eng.on_enqueue(pkt, 0, out, qlen, paused, now);
    ref.enqueue(pkt, out, qlen, paused, now);
    if (n % 500 != 0) continue;
    const auto got = eng.snapshot(now).epochs;
    const auto want = ref.epochs();
    evicted_seen += ref.live_evicted();
    ASSERT_EQ(got.size(), want.size()) << "after " << n << " packets";
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].epoch_id, want[i].epoch_id);
      EXPECT_EQ(got[i].start, want[i].start);
      expect_same_flows(got[i].flows, want[i].flows);
    }
    for (int q = 0; q < 20; ++q) {
      const net::FiveTuple f =
          q == 0 ? pkt.flow() : flow_of(rng.uniform_int(0, 5999)).flow();
      EXPECT_EQ(eng.recent_flow_paused_count(f), ref.paused_count(f));
    }
  }
  EXPECT_GT(now, 20 * cfg.epoch.epoch_ns() * cfg.epoch.epoch_count());
  EXPECT_GT(evicted_seen, 0u) << "snapshots must include evicted entries";
}

TEST(TelemetryEngineTest, MatchesDenseReferenceTable) {
  for (const std::uint32_t slots : {1u, 64u, 4096u}) {
    check_against_dense_tables(slots);
  }
}

// ---------- Resource model (Fig 13) ----------

TEST(ResourceModelTest, FlowTelemetryScalesWithFlowsAndEpochs) {
  TelemetryConfig a, b, c;
  a.flow_slots = 1024;
  b.flow_slots = 2048;
  c = a;
  c.epoch.index_bits = a.epoch.index_bits + 1;  // double the epochs
  EXPECT_EQ(flow_telemetry_bytes(b), 2 * flow_telemetry_bytes(a));
  EXPECT_EQ(flow_telemetry_bytes(c), 2 * flow_telemetry_bytes(a));
}

TEST(ResourceModelTest, CausalityStructureConstantInFlowCount) {
  TelemetryConfig a, b;
  a.flow_slots = 1024;
  b.flow_slots = 65536;
  EXPECT_EQ(causality_structure_bytes(a, 64), causality_structure_bytes(b, 64));
  EXPECT_EQ(port_telemetry_bytes(a, 64), port_telemetry_bytes(b, 64));
}

TEST(ResourceModelTest, FitsOnTofino) {
  TelemetryConfig cfg;
  cfg.flow_slots = 4096;
  cfg.epoch.index_bits = 2;  // 4 epochs, the paper's hardware configuration
  const auto u = estimate_resources(cfg, 64);
  EXPECT_LT(u.sram_pct, 100.0);
  EXPECT_LT(u.stages_pct, 100.0);
  EXPECT_GT(u.sram_pct, 0.0);
}

SwitchTelemetryReport sample_report() {
  SwitchTelemetryReport rep;
  rep.sw = 17;
  rep.collected_at = 123456;
  EpochRecord e;
  e.epoch_id = 7;
  e.start = 1 << 17;
  FlowRecord fr;
  fr.flow.src_ip = 3;
  fr.flow.dst_ip = 9;
  fr.flow.src_port = 2100;
  fr.flow.dst_port = 4791;
  fr.pkt_cnt = 321;
  fr.paused_cnt = 45;
  fr.qdepth_pkts_sum = 6789;
  fr.egress_port = 2;
  e.flows.push_back(fr);
  PortRecord pr;
  pr.port = 2;
  pr.pkt_cnt = 400;
  pr.paused_cnt = 45;
  pr.qdepth_pkts_sum = 9999;
  pr.tx_bytes = 123456789;
  e.ports.push_back(pr);
  e.meters.push_back({0, 2, 55555});
  rep.epochs.push_back(e);
  rep.port_status.push_back({2, true, 999999, 88});
  return rep;
}

TEST(ReportSizeTest, SerializedBytesCountsEveryRecord) {
  // The Fig 9/14 overhead accounting: a report header, then per epoch its
  // header and records (evicted flow entries are flow records of their
  // epoch), then the port-status records.
  EXPECT_EQ(serialized_bytes(sample_report()),
            kReportHeaderBytes + kEpochHeaderBytes + kFlowRecordBytes +
                kPortRecordBytes + kMeterRecordBytes + kPortStatusBytes);
  EXPECT_EQ(serialized_bytes(sample_report()), 113);
  EXPECT_EQ(serialized_bytes(SwitchTelemetryReport{}), kReportHeaderBytes);
}

TEST(MergeReportTest, UnionsEpochsAndOrsPortStatus) {
  SwitchTelemetryReport early;
  early.sw = 5;
  early.collected_at = 1000;
  EpochRecord e0;
  e0.epoch_id = 1;
  e0.start = 0;
  e0.meters.push_back({0, 1, 1234});
  early.epochs.push_back(e0);
  early.port_status.push_back({1, false, 0, 10});

  SwitchTelemetryReport late;
  late.sw = 5;
  late.collected_at = 2000;
  EpochRecord e0b = e0;      // same epoch, later view: more meter bytes
  e0b.meters[0].bytes = 2000;
  EpochRecord e1;
  e1.epoch_id = 2;
  e1.start = 1 << 17;
  late.epochs.push_back(e0b);
  late.epochs.push_back(e1);
  late.port_status.push_back({1, true, 9999, 5});

  merge_report(early, late);
  ASSERT_EQ(early.epochs.size(), 2u);
  EXPECT_EQ(early.epochs[0].meters[0].bytes, 2000u) << "later view wins";
  ASSERT_EQ(early.port_status.size(), 1u);
  EXPECT_TRUE(early.port_status[0].paused_now) << "pause status is OR-ed";
  EXPECT_EQ(early.port_status[0].queue_pkts, 10) << "max occupancy kept";
  EXPECT_EQ(early.collected_at, 2000);
}

TEST(MergeReportTest, OlderSnapshotNeverDowngradesEpochs) {
  SwitchTelemetryReport base;
  base.sw = 5;
  base.collected_at = 2000;
  EpochRecord e0;
  e0.epoch_id = 1;
  e0.start = 0;
  e0.meters.push_back({0, 1, 2000});
  base.epochs.push_back(e0);

  SwitchTelemetryReport old_view;
  old_view.sw = 5;
  old_view.collected_at = 1000;
  EpochRecord e0a = e0;
  e0a.meters[0].bytes = 100;
  old_view.epochs.push_back(e0a);

  merge_report(base, old_view);
  EXPECT_EQ(base.epochs[0].meters[0].bytes, 2000u);
  EXPECT_EQ(base.collected_at, 2000);
}

}  // namespace
}  // namespace hawkeye::telemetry
