#include "baselines/pfc_watchdog.hpp"

namespace hawkeye::baselines {

namespace {

/// Alarm after this many consecutive polls in the paused state (the
/// production watchdog's storm-mitigation trigger).
constexpr int kConsecutivePausedPolls = 2;

}  // namespace

void PfcWatchdog::start() {
  if (running_) return;
  running_ = true;
  net_.simu().schedule(poll_period_, [this]() { poll(); });
}

void PfcWatchdog::poll() {
  const sim::Time now = net_.simu().now();
  ++polls_;
  for (device::Switch* sw : switches_) {
    for (net::PortId p = 0; p < sw->port_count(); ++p) {
      const net::PortRef ref{sw->id(), p};
      if (sw->telemetry().port_paused(p, now)) {
        const int streak = ++consecutive_[ref];
        if (streak >= kConsecutivePausedPolls && !alarmed_[ref]) {
          alarmed_[ref] = true;
          alarms_.push_back({now, ref, streak});
        }
      } else {
        consecutive_[ref] = 0;
        alarmed_[ref] = false;
      }
    }
  }
  net_.simu().schedule(poll_period_, [this]() { poll(); });
}

sim::Time PfcWatchdog::first_alarm_after(sim::Time t) const {
  for (const Alarm& a : alarms_) {
    if (a.raised_at >= t) return a.raised_at;
  }
  return -1;
}

}  // namespace hawkeye::baselines
