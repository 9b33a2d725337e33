#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"
#include "telemetry/report.hpp"

namespace hawkeye::collect {

/// One diagnosis episode: everything gathered between a detection-agent
/// trigger and the offline analysis. Also carries the overhead accounting
/// the Fig 9/11/14 benches report.
struct Episode {
  std::uint64_t probe_id = 0;
  net::FiveTuple victim;
  sim::Time triggered_at = 0;

  /// Telemetry reports keyed by switch. Stored as a NodeId-sorted flat
  /// vector instead of a node-based map: episode merge and coverage checks
  /// iterate this container on the hot path, and the sorted order keeps
  /// iteration deterministic (the old std::map contract).
  using ReportEntry = std::pair<net::NodeId, telemetry::SwitchTelemetryReport>;
  std::vector<ReportEntry> reports;

  bool has_report(net::NodeId id) const { return find_report(id) != nullptr; }
  const telemetry::SwitchTelemetryReport* find_report(net::NodeId id) const {
    const auto it = lower_bound_report(id);
    return it != reports.end() && it->first == id ? &it->second : nullptr;
  }
  /// Insert `rep` for `id` unless present; returns false on duplicate.
  bool put_report(net::NodeId id, telemetry::SwitchTelemetryReport rep) {
    const auto it = lower_bound_report(id);
    if (it != reports.end() && it->first == id) return false;
    reports.insert(it, ReportEntry{id, std::move(rep)});
    return true;
  }
  /// Mutable entry for `id`, default-inserted if absent (the old
  /// map::operator[] shape, used by fixtures and the episode merge).
  telemetry::SwitchTelemetryReport& report_ref(net::NodeId id) {
    auto it = lower_bound_report(id);
    if (it == reports.end() || it->first != id) {
      it = reports.insert(it, ReportEntry{id, {}});
    }
    return it->second;
  }

  // --- collection-health tracking (self-healing pipeline) ---
  /// Switches the collection is expected to hear from: the victim route's
  /// switch set, filled in at trigger time. Coverage below 100% after the
  /// retry budget is what marks an episode degraded.
  std::vector<net::NodeId> expected_switches;
  /// net::Routing::epoch() at the moment expected_switches was derived.
  /// When routing reconverges mid-episode the epochs diverge and the
  /// detection agent re-derives the contract against the new path.
  std::uint64_t routing_epoch = 0;
  /// The victim's route changed (routing reconverged) while this episode
  /// was being collected — its expected-hop set was re-derived at least
  /// once, and hop-level evidence may span two paths.
  bool path_churned = false;
  std::uint32_t repolls = 0;            // self-healing re-poll rounds issued
  std::uint32_t failed_collections = 0; // DMA snapshots that never completed
  std::uint32_t stale_epochs_rejected = 0;  // ring-overwrite epochs dropped
  /// Set when the retry budget is exhausted with coverage still incomplete;
  /// the diagnosis for this episode is best-effort.
  bool degraded = false;

  // --- overhead accounting ---
  std::uint64_t polling_packets = 0;   // polling packets forwarded in-band
  std::int64_t polling_bytes = 0;
  std::int64_t telemetry_bytes = 0;    // zero-filtered, serialized
  std::int64_t raw_telemetry_bytes = 0;  // full register dump equivalent
  std::uint64_t report_packets = 0;      // MTU-batched CPU reports
  std::uint64_t dataplane_report_packets = 0;  // PHV-limited dp export

  /// Expected switches that actually reported.
  std::size_t covered_expected() const {
    std::size_t n = 0;
    for (const net::NodeId id : expected_switches) {
      if (has_report(id)) ++n;
    }
    return n;
  }
  /// Fraction of the expected hops covered; 1.0 when nothing was expected
  /// (pre-trigger episodes, unit tests without routing).
  double coverage() const {
    if (expected_switches.empty()) return 1.0;
    return static_cast<double>(covered_expected()) /
           static_cast<double>(expected_switches.size());
  }
  bool coverage_complete() const {
    return covered_expected() == expected_switches.size();
  }

  std::vector<net::NodeId> collected_switches() const {
    std::vector<net::NodeId> out;
    out.reserve(reports.size());
    for (const auto& [sw, rep] : reports) out.push_back(sw);
    return out;
  }

 private:
  std::vector<ReportEntry>::const_iterator lower_bound_report(
      net::NodeId id) const {
    return std::lower_bound(
        reports.begin(), reports.end(), id,
        [](const ReportEntry& e, net::NodeId key) { return e.first < key; });
  }
  std::vector<ReportEntry>::iterator lower_bound_report(net::NodeId id) {
    return std::lower_bound(
        reports.begin(), reports.end(), id,
        [](const ReportEntry& e, net::NodeId key) { return e.first < key; });
  }
};

}  // namespace hawkeye::collect
