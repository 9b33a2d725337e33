#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "device/network.hpp"
#include "device/switch.hpp"

namespace hawkeye::baselines {

/// Model of the industrial PFC watchdog (paper §2.3): the switch control
/// plane polls each port's PFC pause state on a fixed period and raises an
/// alarm when a port has been continuously paused for several polls.
///
/// Its two documented shortcomings are reproduced faithfully:
///  * the polling period is coarse (hundreds of ms in production; our
///    benches sweep it down to tens of µs), so transient pause episodes
///    slip between polls ("may miss massive transient PFC congestion");
///  * it sees only port state on one switch — no victim flows, no root
///    cause, no spreading path; correlating alarms across switches is
///    left to the operator.
class PfcWatchdog {
 public:
  struct Alarm {
    sim::Time raised_at = 0;
    net::PortRef port;
    int consecutive_polls = 0;
  };

  /// Polls every switch it watches once per `poll_period`.
  PfcWatchdog(device::Network& net, sim::Time poll_period)
      : net_(net), poll_period_(poll_period) {}

  void watch(device::Switch& sw) { switches_.push_back(&sw); }

  /// Begin the periodic polling (idempotent).
  void start();

  const std::vector<Alarm>& alarms() const { return alarms_; }
  std::uint64_t polls_performed() const { return polls_; }

  /// First alarm at or after `t`; -1 if none.
  sim::Time first_alarm_after(sim::Time t) const;

 private:
  void poll();

  device::Network& net_;
  sim::Time poll_period_;
  std::vector<device::Switch*> switches_;
  std::unordered_map<net::PortRef, int> consecutive_;
  std::unordered_map<net::PortRef, bool> alarmed_;
  std::vector<Alarm> alarms_;
  std::uint64_t polls_ = 0;
  bool running_ = false;
};

}  // namespace hawkeye::baselines
