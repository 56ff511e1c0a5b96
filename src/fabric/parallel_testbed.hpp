// Flow-sharded parallel testbed execution.
//
// The paper's scaling argument (§4–5) is that FlexSFP modules are
// independent: one module per port, each processing its own slice of
// traffic with no shared state. This runner exploits exactly that — traffic
// is partitioned by module/port (the shard key), every shard gets its own
// Simulation, FlexSfpModule, TrafficGen and Rng stream, shards run on
// worker threads, and per-shard sim::Stats / ppe counters are merged at the
// join barrier *in shard order*. Results are therefore bit-identical to the
// sequential run (workers = 1), which tests use as the oracle.
#pragma once

#include <functional>
#include <vector>

#include "fabric/testbed.hpp"
#include "ppe/counters.hpp"
#include "sim/stats.hpp"

namespace flexsfp::fabric {

/// Builds the app a shard's module runs. Called once per shard, on the
/// caller thread (before fan-out), so it need not be thread-safe — but each
/// call must return an identically configured instance.
using AppFactory = std::function<ppe::PpeAppPtr()>;

struct ParallelTestbedConfig {
  /// One FlexSFP module (= one switch port) per shard.
  std::size_t shards = 8;
  /// Worker threads: 1 = sequential oracle, 0 = one per hardware thread.
  unsigned workers = 0;
  /// Every per-shard Rng stream derives from this via splitmix hashing —
  /// never seed + shard_id (adjacent mt19937_64 seeds correlate).
  std::uint64_t base_seed = 1;
  /// Cloned per shard. Traffic seeds, flow-space addresses and MACs are
  /// re-derived per shard so each module sees its own traffic slice.
  TestbedConfig prototype{};
};

/// Everything one shard measured.
struct ShardOutcome {
  std::size_t shard = 0;
  std::uint64_t edge_seed = 0;     // derived stream seed actually used
  std::uint64_t optical_seed = 0;  // 0 when the direction is absent
  TestbedResult result{};
  sim::Stats stats{};
  std::vector<ppe::CounterSnapshot> app_counters;
  /// The shard's registry snapshot re-labeled {shard=<id>}; shards build
  /// identical topologies, so the label is what keeps series distinct.
  obs::MetricSnapshot metrics;
  /// The shard's sampled stage-hop events. Sampling keys off packet ids
  /// only, so this is bit-identical for any worker count.
  std::vector<obs::HopEvent> flight;
};

struct ParallelRunResult {
  std::vector<ShardOutcome> shards;
  /// Merged in shard order after the barrier — identical for any worker
  /// count, including the sequential oracle.
  sim::Stats combined{};
  std::vector<ppe::CounterSnapshot> combined_counters;
  /// Key-wise merge of every shard's labeled snapshot, in shard order.
  obs::MetricSnapshot combined_metrics;
  unsigned workers_used = 1;
  double wall_seconds = 0;
};

class ParallelTestbed {
 public:
  ParallelTestbed(ParallelTestbedConfig config, AppFactory app_factory);

  /// Run all shards with the configured worker count and merge.
  [[nodiscard]] ParallelRunResult run();
  /// The oracle: same shards, one thread, same merge path.
  [[nodiscard]] ParallelRunResult run_sequential();

  /// The traffic spec shard `shard` runs for a direction: stream-derived
  /// seed plus a disjoint flow-space slice. `direction` disambiguates the
  /// edge (0) and optical (1) generators of one module.
  [[nodiscard]] static TrafficSpec shard_spec(const TrafficSpec& prototype,
                                              std::uint64_t base_seed,
                                              std::size_t shard,
                                              unsigned direction);

  /// The fault spec shard `shard` runs for a direction. Fault streams are
  /// salted so they never collide with the traffic streams derived from the
  /// same base seed — adding an injector must not perturb the traffic a
  /// shard generates.
  [[nodiscard]] static sim::FaultSpec shard_fault_spec(
      const sim::FaultSpec& prototype, std::uint64_t base_seed,
      std::size_t shard, unsigned direction);

 private:
  [[nodiscard]] ParallelRunResult run_with(unsigned workers);
  [[nodiscard]] ShardOutcome run_shard(std::size_t shard,
                                       ppe::PpeAppPtr app) const;

  ParallelTestbedConfig config_;
  AppFactory app_factory_;
};

}  // namespace flexsfp::fabric
