// The multi-module experiment harness over a Topology: N FlexSFP modules,
// one crosspoint-queued Crossbar, cable → switch → cable per flow.
//
// FabricParallelTestbed is the one fabric engine: one Simulation ("world")
// per module plus one for the crossbar, advanced in conservative-sync
// windows. The link propagation delay is the lookahead, so every world can
// safely run to (min next event across worlds) + delay, and the packets
// captured at its uplink during the window are exchanged at the barrier
// with timestamps that are provably ≥ the new window start. Each
// world-to-world edge (a module uplink, a crossbar output) has an outbox:
// metadata records plus a byte arena it reuses, so a crossing is one copy
// in and one copy out of recycled buffers. The barrier merges the per-edge
// runs in (arrival, source world, capture order), so results are
// bit-identical for any worker count and run(1) is the oracle. DESIGN.md
// §11 has the proof sketch.
//
// The run ends with a loss ledger: every packet the generators (plus fault
// duplication) injected is delivered or sits in a named drop counter — the
// fabric never black-holes, even across world boundaries.
#pragma once

#include <vector>

#include "fabric/parallel_testbed.hpp"
#include "fabric/topology.hpp"

namespace flexsfp::fabric {

/// What one module's endpoints measured. Sent counts the module's own edge
/// generator; received/latency count what arrived at the module's edge sink
/// — traffic from whichever module targets it, so sent_i == received_i only
/// when the target map is a permutation and nothing dropped.
struct FabricModuleResult {
  std::uint64_t sent_packets = 0;
  std::uint64_t received_packets = 0;
  double offered_gbps = 0;
  double delivered_gbps = 0;
  double latency_p50_ns = 0;
  double latency_p99_ns = 0;
  double latency_max_ns = 0;
};

/// The zero-black-hole equation, read back from the merged registry
/// snapshot: everything injected equals everything delivered plus every
/// named drop counter along the path (fault injectors, PPE/arbiter queues,
/// dark modules, app verdicts, control punts, crossbar crosspoints and
/// unroutable frames).
struct FabricLedger {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicated = 0;        // fault-injected extra packets
  std::uint64_t fault_dropped = 0;     // random + targeted + flap loss
  std::uint64_t queue_drops = 0;       // PPE ingress + egress arbiter FIFOs
  std::uint64_t dark_drops = 0;
  std::uint64_t app_drops = 0;
  std::uint64_t control_punts = 0;
  std::uint64_t crosspoint_drops = 0;
  std::uint64_t unrouted = 0;

  [[nodiscard]] std::uint64_t injected() const { return sent + duplicated; }
  [[nodiscard]] std::uint64_t accounted() const {
    return delivered + fault_dropped + queue_drops + dark_drops + app_drops +
           control_punts + crosspoint_drops + unrouted;
  }
  [[nodiscard]] bool balanced() const { return injected() == accounted(); }

  /// Read the equation's terms out of a (merged) snapshot.
  [[nodiscard]] static FabricLedger from_snapshot(
      const obs::MetricSnapshot& snapshot);
};

struct FabricRunResult {
  std::vector<FabricModuleResult> modules;
  /// Every world's snapshot labeled {shard=<module>} / {shard=xbar},
  /// merged in world order — the object the bit-identical property tests
  /// compare.
  obs::MetricSnapshot metrics;
  FabricLedger ledger;
  sim::TimePs duration = 0;
  std::uint64_t events = 0;
  /// Conservative-sync windows executed.
  std::uint64_t rounds = 0;
  unsigned workers_used = 1;
  double wall_seconds = 0;
};

/// The fabric engine: one world per module plus a crossbar world, lockstep
/// windows, deterministic for any worker count.
class FabricParallelTestbed {
 public:
  /// `app_factory` defaults to the NAT case study (forward-on-miss).
  explicit FabricParallelTestbed(Topology topology, AppFactory app_factory = {});

  /// Build fresh worlds and run with up to `workers` threads (0 = one per
  /// hardware thread, 1 = sequential oracle). Callable repeatedly; every
  /// call replays the identical experiment.
  [[nodiscard]] FabricRunResult run(unsigned workers);

 private:
  Topology topo_;
  AppFactory app_factory_;
};

}  // namespace flexsfp::fabric
