#pragma once

#include "collect/episode.hpp"
#include "net/topology.hpp"
#include "provenance/graph.hpp"
#include "sim/time.hpp"

namespace hawkeye::provenance {

struct BuilderConfig {
  /// Epoch duration used by the queue replay (must match the telemetry
  /// configuration of the collecting switches).
  sim::Time epoch_ns = sim::Time{1} << 20;
  /// Fabric-scale evidence calibration: when > 0, anomaly epochs are
  /// further restricted to those ending within this many ns before the
  /// episode's trigger. On a large busy fabric PFC pause activity is near
  /// -continuous somewhere, so "any epoch with a pause" stops being a
  /// filter at all — the graph then aggregates every transient hot spot
  /// the telemetry rings ever saw, and a long-dead background event can
  /// out-mass the anomaly that actually raised the trigger. Scoping to the
  /// trigger keeps only evidence that can explain it (same reasoning as
  /// the no-PFC fallback horizon below). If scoping would empty the set,
  /// the unscoped anomaly epochs are kept (old behaviour beats no
  /// evidence). 0 (the default) disables scoping entirely: epoch
  /// selection is exactly the paper's pause-activity filter.
  sim::Time trigger_scope_ns = 0;
};

/// Algorithm 1: construct the heterogeneous wait-for provenance graph from
/// the telemetry reports of one diagnosis episode. The graph is built from
/// "anomaly epochs" only: epochs in which any collected port saw PFC-paused
/// packets. When none did (the normal-contention case) it falls back to the
/// epochs just before the trigger, then to all epochs. Building from every
/// epoch instead reproduces the long-epoch event-conflation failure mode
/// described in §4.2.
ProvenanceGraph build_provenance(const collect::Episode& episode,
                                 const net::Topology& topo,
                                 const BuilderConfig& cfg = {});

}  // namespace hawkeye::provenance
