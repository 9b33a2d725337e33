// Shard-boundary edge cases (PR 6).
//
// The shard-identity suite pins whole-pipeline bitwise equality; these
// tests isolate the three boundary mechanisms that make it hold:
//
//   1. zero-delay same-time cross-shard sends — legal from every exclusive
//      context (setup and control-shard events), where the canonical
//      class-0 key is assigned directly; and the minimum legal parallel
//      case, a cross-shard send landing exactly AT the lookahead horizon
//      (the round drains strictly below the horizon, so a boundary arrival
//      must fall into the next round, never be lost or run early);
//   2. PFC pause/resume frames crossing a pod (= shard) boundary inside
//      one lookahead window — the pause cascade must freeze and release
//      identically whether its hops are shard-local or mailbox-merged;
//   3. on_port_withdrawn when the withdrawn port's peer lives on another
//      shard — the reconvergence withdraw is a control-shard event, and
//      its stalled-FIFO flush (kLinkDown drops, buffer rewind, PFC
//      release) must produce the 1-shard result even though the flushed
//      link's two endpoints live on different calendars.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <tuple>
#include <vector>

#include "eval/testbed.hpp"
#include "fault/fault.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"

namespace hawkeye::eval {
namespace {

// ---------------------------------------------------------------------------
// 1a. Zero-delay same-time cross-shard sends from an exclusive context.

TEST(ShardEdgeTest, ZeroDelaySameTimeCrossShardSendsFromControlEvent) {
  // A control-shard event at t=50 fans out zero-delay sends to both device
  // shards at the SAME timestamp. Control events force their lookahead
  // window sequential, so the children execute inside the window in
  // canonical (parent rank, child index) order — the unsharded order.
  auto drive = [](sim::Simulator& simu, std::vector<int>& order) {
    const int ctl = simu.control_shard();
    simu.with_setup_shard(ctl, [&] {
      simu.schedule_at(50, [&order, &simu] {
        order.push_back(0);
        simu.schedule_on(0, 0, [&order] { order.push_back(1); });
        simu.schedule_on(1, 0, [&order] { order.push_back(2); });
        simu.schedule_on(0, 0, [&order] { order.push_back(3); });
      });
    });
    simu.run();
  };

  std::vector<int> unsharded_order;
  {
    sim::Simulator simu;
    drive(simu, unsharded_order);
  }
  std::vector<int> sharded_order;
  {
    sim::Simulator simu;
    simu.configure_shards(2, 100);
    drive(simu, sharded_order);
    EXPECT_EQ(simu.now(), 50);
  }
  EXPECT_EQ(unsharded_order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sharded_order, unsharded_order);
}

// ---------------------------------------------------------------------------
// 1b. Same-time cross-shard setup sends: children of the pseudo-root at one
// timestamp spread over every shard still execute in setup-call order as
// far as each shard can observe.

TEST(ShardEdgeTest, SameTimeSetupEventsKeepPerShardCallOrder) {
  // Same-time events on DIFFERENT shards run concurrently (they commute by
  // construction — neither can observe the other inside a round), so the
  // observable contract is per-shard: each shard's stream must equal the
  // unsharded global order projected onto that shard.
  constexpr int kEvents = 8;
  auto drive = [](sim::Simulator& simu, std::vector<int>* per_shard) {
    for (int i = 0; i < kEvents; ++i) {
      const int shard = i % 2;
      simu.with_setup_shard(shard, [&] {
        simu.schedule_at(100, [&per_shard, shard, i] {
          per_shard[shard].push_back(i);
        });
      });
    }
    simu.run();
  };

  std::vector<int> unsharded[2];
  {
    sim::Simulator simu;
    drive(simu, unsharded);
    // Unsharded: one calendar, so the projection is just call order.
    EXPECT_EQ(unsharded[0], (std::vector<int>{0, 2, 4, 6}));
    EXPECT_EQ(unsharded[1], (std::vector<int>{1, 3, 5, 7}));
  }
  std::vector<int> sharded[2];
  {
    sim::Simulator simu;
    simu.configure_shards(2, 100);
    drive(simu, sharded);
  }
  EXPECT_EQ(sharded[0], unsharded[0]);
  EXPECT_EQ(sharded[1], unsharded[1]);
}

// ---------------------------------------------------------------------------
// 1c. A parallel-round cross-shard send landing exactly AT the horizon.

TEST(ShardEdgeTest, CrossShardSendAtExactLookaheadHorizonIsNextRound) {
  // Rounds drain strictly below the horizon (head().at < cap), so an
  // arrival at exactly tmin + lookahead — the minimum legal cross-shard
  // distance — belongs to the NEXT round, ordered after the target shard's
  // own pre-round events at that timestamp (their parent, the setup
  // pseudo-root, ranks below every runtime parent).
  constexpr sim::Time kLookahead = 100;
  auto drive = [](sim::Simulator& simu, std::vector<std::string>& log) {
    simu.with_setup_shard(0, [&] {
      simu.schedule_at(0, [&log, &simu] {
        log.push_back("P@" + std::to_string(simu.now()));
        // Exactly one lookahead ahead, on the other shard.
        simu.schedule_on(1, kLookahead, [&log, &simu] {
          log.push_back("Q@" + std::to_string(simu.now()));
        });
      });
    });
    simu.with_setup_shard(1, [&] {
      simu.schedule_at(kLookahead, [&log, &simu] {
        log.push_back("R@" + std::to_string(simu.now()));
      });
    });
    simu.run();
  };

  std::vector<std::string> unsharded;
  {
    sim::Simulator simu;
    drive(simu, unsharded);
  }
  std::vector<std::string> sharded;
  {
    sim::Simulator simu;
    simu.configure_shards(2, kLookahead);
    drive(simu, sharded);
    EXPECT_EQ(simu.executed_events(), 3u);
  }
  // P alone in round one; R (setup child) before Q (runtime child) at
  // t=100 — and every event is on one thread at a time, so one log vector
  // is safe: rounds are ordered by the pool barrier, and P/R/Q execute in
  // three distinct rounds/windows.
  EXPECT_EQ(unsharded,
            (std::vector<std::string>{"P@0", "R@100", "Q@100"}));
  EXPECT_EQ(sharded, unsharded);
}

// ---------------------------------------------------------------------------
// Device-level fixtures.

net::FiveTuple flow_tuple(net::NodeId src, net::NodeId dst,
                          std::uint16_t sp) {
  net::FiveTuple t;
  t.src_ip = net::Topology::ip_of(src);
  t.dst_ip = net::Topology::ip_of(dst);
  t.src_port = sp;
  t.dst_port = 4791;
  return t;
}

/// Sort key that totally orders a PFC trace: cross-lane same-time order is
/// lane order (not meaningful), so multiset equality under a total key is
/// the right cross-shard-count comparison.
bool pfc_less(const device::PfcEvent& a, const device::PfcEvent& b) {
  return std::tie(a.t, a.node, a.port, a.quanta, a.host_injected) <
         std::tie(b.t, b.node, b.port, b.quanta, b.host_injected);
}

std::vector<device::PfcEvent> sorted_pfc(const device::Network& net) {
  std::vector<device::PfcEvent> tr = net.pfc_trace();
  std::sort(tr.begin(), tr.end(), pfc_less);
  return tr;
}

/// Drop counters split by DropReason — compared per reason, so two runs
/// cannot agree by trading drops of one reason for another.
using DropsByReason = std::array<std::uint64_t, device::kDropReasonCount>;

DropsByReason drops_by_reason(const device::Network& net) {
  DropsByReason out{};
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r] = net.drops(static_cast<device::DropReason>(r));
  }
  return out;
}

bool pfc_eq(const std::vector<device::PfcEvent>& a,
            const std::vector<device::PfcEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tie(a[i].t, a[i].node, a[i].port, a[i].quanta,
                 a[i].host_injected) !=
        std::tie(b[i].t, b[i].node, b[i].port, b[i].quanta,
                 b[i].host_injected)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// 2. PFC pause/resume crossing a shard boundary inside one lookahead
// window.

TEST(ShardEdgeTest, PfcPauseResumeAcrossShardBoundaryMatchesOneShard) {
  // The PFC-storm scenario drives a pause cascade up through edge -> agg ->
  // core; with the pod partition, the agg->core (and core->agg) PAUSE and
  // RESUME frames are cross-shard sends whose one-hop latency equals the
  // lookahead — i.e. they land in the very next round, the tightest legal
  // window. The cascade must freeze and release bit-identically.
  auto run = [](int shards) {
    Testbed::Options opts;
    opts.shards = shards;
    Testbed tb(opts);
    sim::Rng rng(5);
    tb.install(workload::make_scenario(diagnosis::AnomalyType::kPfcStorm,
                                       tb.ft, tb.routing, rng));
    tb.run_for(sim::ms(5));
    return std::tuple<std::vector<device::PfcEvent>, std::uint64_t,
                      DropsByReason>{sorted_pfc(tb.net),
                                     tb.simu.executed_events(),
                                     drops_by_reason(tb.net)};
  };

  const auto [trace1, events1, drops1] = run(1);
  const auto [trace4, events4, drops4] = run(4);

  EXPECT_EQ(events4, events1);
  EXPECT_EQ(drops4, drops1);
  ASSERT_FALSE(trace4.empty());
  EXPECT_TRUE(pfc_eq(trace4, trace1))
      << "PFC trace multiset diverged between 1 and 4 shards";

  // The edge actually fired: at least one PAUSE and one RESUME whose
  // receiving peer lives on a different shard than the sender.
  Testbed::Options opts;
  opts.shards = 4;
  Testbed probe(opts);
  bool cross_pause = false, cross_resume = false;
  for (const device::PfcEvent& ev : trace4) {
    const net::PortRef peer = probe.ft.topo.peer(ev.node, ev.port);
    if (peer.node == net::kInvalidNode) continue;
    if (probe.net.shard_of(ev.node) != probe.net.shard_of(peer.node)) {
      (ev.quanta > 0 ? cross_pause : cross_resume) = true;
    }
  }
  EXPECT_TRUE(cross_pause) << "no PAUSE frame ever crossed a shard boundary";
  EXPECT_TRUE(cross_resume) << "no RESUME frame ever crossed a shard boundary";
}

// ---------------------------------------------------------------------------
// 3. on_port_withdrawn flush when the withdrawn port's peer is on another
// shard.

TEST(ShardEdgeTest, PortWithdrawFlushAcrossShardBoundaryMatchesOneShard) {
  // Pin a reconverging flap to an agg<->core link on an active cross-pod
  // flow's path whose endpoints live on different shards, sized so the
  // link is still down when the hold-down expires: the withdraw event
  // (control shard) must flush the dead port's stalled FIFOs — kLinkDown
  // drops, buffer rewind, PFC release — across the boundary, and the whole
  // run must stay bitwise identical to the single-calendar execution.
  struct Probe {
    std::uint64_t events;
    DropsByReason drops;
    std::uint64_t epoch;
    std::vector<device::PfcEvent> trace;
  };
  // Resolve the flapped link once, up front, so both runs pin the same
  // physical link: the victim's agg<->core hop whose endpoints land on
  // different shards under the 2-shard pod map.
  net::NodeId flap_a = net::kInvalidNode, flap_b = net::kInvalidNode;
  {
    Testbed::Options popts;
    popts.shards = 2;
    Testbed probe(popts);
    const net::FiveTuple victim =
        flow_tuple(probe.ft.hosts.front(), probe.ft.hosts.back(), 900);
    for (const net::PortRef& hop : probe.routing.path_of(victim)) {
      const net::PortRef peer = probe.ft.topo.peer(hop);
      if (peer.node == net::kInvalidNode) continue;
      const bool agg_core =
          (std::count(probe.ft.aggs.begin(), probe.ft.aggs.end(),
                      hop.node) > 0 &&
           std::count(probe.ft.cores.begin(), probe.ft.cores.end(),
                      peer.node) > 0) ||
          (std::count(probe.ft.cores.begin(), probe.ft.cores.end(),
                      hop.node) > 0 &&
           std::count(probe.ft.aggs.begin(), probe.ft.aggs.end(),
                      peer.node) > 0);
      if (agg_core &&
          probe.net.shard_of(hop.node) != probe.net.shard_of(peer.node)) {
        flap_a = hop.node;
        flap_b = peer.node;
        break;
      }
    }
    ASSERT_NE(flap_a, net::kInvalidNode)
        << "no cross-shard agg<->core hop on the victim path";
  }

  auto run = [&](int shards) {
    Testbed::Options opts;
    opts.shards = shards;
    Testbed tb(opts);
    const net::NodeId src = tb.ft.hosts.front();
    const net::NodeId dst = tb.ft.hosts.back();  // different pod at k=4

    tb.add_flow({src, dst, 900, 4791, 20'000'000, sim::us(1), true, 0});

    fault::LinkFlapSpec flap;
    flap.node_a = flap_a;
    flap.node_b = flap_b;
    flap.start = sim::us(200);
    flap.down_ns = sim::us(400);  // still down when the hold-down expires
    flap.holddown_ns = sim::us(50);
    fault::FaultPlan plan;
    plan.link_flaps.push_back(flap);
    tb.install_faults(plan);

    tb.run_for(sim::ms(2));
    return Probe{tb.simu.executed_events(), drops_by_reason(tb.net),
                 tb.routing.epoch(), sorted_pfc(tb.net)};
  };

  const Probe one = run(1);
  const Probe two = run(2);

  // The edge fired: reconvergence withdrew (and later restored) the dead
  // port, and the flush blackholed the packets stalled on it.
  EXPECT_GE(one.epoch, 1u) << "hold-down never withdrew the flapped port";
  EXPECT_GT(one.drops[static_cast<std::size_t>(device::DropReason::kLinkDown)],
            0u)
      << "flush never dropped a stalled packet";

  EXPECT_EQ(two.events, one.events);
  EXPECT_EQ(two.drops, one.drops);
  EXPECT_EQ(two.epoch, one.epoch);
  EXPECT_TRUE(pfc_eq(two.trace, one.trace))
      << "PFC trace multiset diverged between 1 and 2 shards";
}

}  // namespace
}  // namespace hawkeye::eval
