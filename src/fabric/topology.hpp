// Multi-module topology description: N FlexSFP modules hanging off one
// crosspoint-queued crossbar, so a flow traverses cable → switch → cable.
//
// One Topology value describes a FabricParallelTestbed experiment once, for
// any worker count (run(1) is the oracle). Per-module traffic and fault
// streams derive from the prototypes with the same stream-seed discipline as
// ParallelTestbed::shard_spec, and routing is by IPv4 destination /16 slice
// relative to the traffic prototype's dst_base: module i's generator
// retargets its flows at its target module's slice, the crossbar routes on
// that slice. Anything that parses as IPv4 but lands outside every slice
// (e.g. a fault-corrupted destination) is counted as fabric.xbar.unrouted;
// frames with no IPv4 header at all punt to the target module's slice via
// route()'s fallback = -1 → unrouted as well, keeping the loss ledger exact.
#pragma once

#include <optional>
#include <vector>

#include "fabric/traffic_gen.hpp"
#include "obs/flight_recorder.hpp"
#include "sfp/flexsfp.hpp"
#include "sim/fault_injector.hpp"

namespace flexsfp::fabric {

/// Salt folded into the base seed for inter-module link fault streams, so
/// they never collide with the traffic streams (or the per-port fault
/// streams of the single-module testbeds) derived from the same base seed.
inline constexpr std::uint64_t kFabricFaultSalt = 0x7866'6162'5f6c'6e6bULL;

struct Topology {
  /// Modules hanging off the crossbar (one crossbar port each).
  std::size_t modules = 3;
  /// Cloned per module; boot_at_start is forced off so modules are usable
  /// at t = 0 (same rule as TestbedConfig).
  sfp::FlexSfpConfig module_prototype;
  /// Each module's edge-side generator derives from this: stream seed and
  /// source-flow slice via ParallelTestbed::shard_spec, destination slice
  /// retargeted at the module's crossbar target.
  TrafficSpec traffic_prototype;
  /// targets[i] = module whose edge side receives module i's traffic.
  /// Empty = ring: i → (i + 1) % modules.
  std::vector<std::size_t> targets;
  /// Fault process applied to each module → crossbar link (chaos across the
  /// fabric). Seeds re-derive per link with kFabricFaultSalt.
  std::optional<sim::FaultSpec> link_faults;
  /// Propagation delay of every module ↔ crossbar link. This is the
  /// conservative-sync lookahead: any packet captured at a window boundary
  /// arrives at least link_delay_ps later, so it must be > 0.
  sim::TimePs link_delay_ps = 500'000;  // 500 ns
  /// Rate of the module → crossbar links (crossbar outputs serialize at
  /// crossbar.port_rate; these links feed them).
  sim::DataRate link_rate = sim::line_rate_10g;
  /// Per-crosspoint buffer depth in the crossbar.
  std::size_t crosspoint_capacity = 64;
  std::uint64_t base_seed = 1;
  /// Flight-recorder setup, applied to every simulation the engines build.
  obs::FlightRecorderConfig flight;

  Topology() { module_prototype.boot_at_start = false; }

  /// Throws std::invalid_argument on an inconsistent description, including
  /// more modules than /16 destination slices fit above dst_base.
  void validate() const;

  /// The module that receives module i's traffic.
  [[nodiscard]] std::size_t target_of(std::size_t module) const;
  /// The traffic spec module i's edge generator runs: shard-derived seed and
  /// flow slice, destinations retargeted at target_of(i)'s /16 slice.
  [[nodiscard]] TrafficSpec traffic_for(std::size_t module) const;
  /// The fault spec for module i's uplink; call only when link_faults is set.
  [[nodiscard]] sim::FaultSpec link_fault_for(std::size_t module) const;
  /// Base address of module i's destination slice.
  [[nodiscard]] net::Ipv4Address slice_base(std::size_t module) const;
  /// Crossbar route function: IPv4 dst /16 slice → module, -1 when the
  /// frame doesn't parse as IPv4 or the slice is out of range.
  [[nodiscard]] int route(const net::Packet& packet) const;
};

}  // namespace flexsfp::fabric
