// The conservatively synchronized fabric engine: bit-identical merged
// results for any worker count, determinism under fault injection, golden
// figures for its run(1) oracle, and link timing across world boundaries.
#include "fabric/fabric_testbed.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/random.hpp"

namespace flexsfp::fabric {
namespace {

using namespace sim;  // time literals

Topology base_topology(std::size_t modules, std::uint64_t seed) {
  Topology topo;
  topo.modules = modules;
  topo.base_seed = seed;
  topo.traffic_prototype.rate = DataRate::gbps(3);
  topo.traffic_prototype.arrivals = ArrivalProcess::poisson;
  topo.traffic_prototype.sizes = SizeDistribution::imix;
  topo.traffic_prototype.duration = 40_us;
  return topo;
}

TEST(FabricParallel, ThreeModuleRingIsBitIdenticalForAnyWorkerCount) {
  FabricParallelTestbed bed(base_topology(3, 1));
  const auto oracle = bed.run(1);
  ASSERT_GT(oracle.ledger.sent, 0u);
  ASSERT_GT(oracle.rounds, 0u);
  EXPECT_TRUE(oracle.ledger.balanced());

  for (const unsigned workers : {2u, 4u}) {
    const auto run = bed.run(workers);
    // The whole merged telemetry spine — every counter of every world —
    // must be the same object the sequential oracle produced.
    EXPECT_EQ(run.metrics, oracle.metrics) << "workers=" << workers;
    EXPECT_EQ(run.events, oracle.events) << "workers=" << workers;
    EXPECT_EQ(run.rounds, oracle.rounds) << "workers=" << workers;
    ASSERT_EQ(run.modules.size(), oracle.modules.size());
    for (std::size_t i = 0; i < run.modules.size(); ++i) {
      EXPECT_EQ(run.modules[i].sent_packets, oracle.modules[i].sent_packets);
      EXPECT_EQ(run.modules[i].received_packets,
                oracle.modules[i].received_packets);
      EXPECT_EQ(run.modules[i].latency_p99_ns,
                oracle.modules[i].latency_p99_ns);
    }
  }
}

TEST(FabricParallel, PropertySweepRandomTopologiesWorkersAndFaultSeeds) {
  // Random topologies (module count, target map, rate, crosspoint depth,
  // faulted or not) × workers {1, 2, 4}: merged snapshots must always equal
  // the sequential oracle's, and the loss ledger must always balance —
  // faults, incast overflow and shard boundaries included.
  Rng rng(20260808);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t modules = 2 + rng.uniform(0, 2);  // 2..4
    Topology topo = base_topology(modules, rng.next_u64());
    topo.traffic_prototype.rate =
        DataRate::gbps(static_cast<double>(2 + rng.uniform(0, 4)));
    topo.traffic_prototype.duration = 25_us;
    topo.crosspoint_capacity = std::size_t{4} << rng.uniform(0, 3);  // 4..32
    topo.targets.clear();
    for (std::size_t i = 0; i < modules; ++i) {
      topo.targets.push_back(rng.uniform(0, modules - 1));
    }
    if (trial % 2 == 0) {
      sim::FaultSpec faults;
      faults.drop_prob = 0.04;
      faults.duplicate_prob = 0.02;
      faults.reorder_prob = 0.02;
      faults.seed = rng.next_u64();
      topo.link_faults = faults;
    }

    FabricParallelTestbed bed(topo);
    const auto oracle = bed.run(1);
    ASSERT_GT(oracle.ledger.sent, 0u) << "trial " << trial;
    EXPECT_TRUE(oracle.ledger.balanced())
        << "trial " << trial << ": injected " << oracle.ledger.injected()
        << " accounted " << oracle.ledger.accounted();
    for (const unsigned workers : {2u, 4u}) {
      const auto run = bed.run(workers);
      EXPECT_EQ(run.metrics, oracle.metrics)
          << "trial " << trial << " workers " << workers;
      EXPECT_TRUE(run.ledger.balanced()) << "trial " << trial;
    }
  }
}

TEST(FabricParallel, RepeatedRunsAreDeterministic) {
  Topology topo = base_topology(3, 7);
  sim::FaultSpec faults;
  faults.drop_prob = 0.05;
  topo.link_faults = faults;
  FabricParallelTestbed bed(topo);
  const auto first = bed.run(2);
  const auto second = bed.run(2);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.rounds, second.rounds);
  EXPECT_EQ(first.events, second.events);
}

TEST(FabricParallel, AgreesWithTheSingleSimulationReference) {
  // Figures recorded from the retired single-simulation engine (everything
  // in one Simulation, no windows) on this topology, where its tie order
  // and the exchange order agree: same traffic, same timing, same counts.
  const auto run = FabricParallelTestbed(base_topology(3, 42)).run(1);

  // Sent == injected == delivered on a balanced ledger pins every term:
  // no duplicates and every drop counter at 0.
  EXPECT_EQ(run.ledger.sent, 135u);
  EXPECT_EQ(run.ledger.injected(), 135u);
  EXPECT_EQ(run.ledger.delivered, 135u);
  EXPECT_TRUE(run.ledger.balanced());
  EXPECT_EQ(run.events, 1623u);
  struct Golden {
    std::uint64_t sent, received;
    double p50_ns;
  };
  const Golden golden[] = {
      {54, 44, 3838.295}, {37, 54, 4185.69}, {44, 37, 3838.295}};
  ASSERT_EQ(run.modules.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(run.modules[i].sent_packets, golden[i].sent) << "module " << i;
    EXPECT_EQ(run.modules[i].received_packets, golden[i].received)
        << "module " << i;
    EXPECT_DOUBLE_EQ(run.modules[i].latency_p50_ns, golden[i].p50_ns)
        << "module " << i;
  }
}

TEST(FabricParallel, LinkDelayShiftsLatencyByTwoCrossings) {
  // A packet crosses two links (uplink into the crossbar, downlink out of
  // it), so adding 1 µs of propagation delay per link must add exactly 2 µs
  // to every module's worst latency. The delay is also the sync lookahead,
  // so a window that delivered crossings early or late would show here even
  // though every worker count would still agree with run(1).
  const auto worst_latencies = [](sim::TimePs link_delay) {
    Topology topo;
    topo.modules = 3;
    topo.link_delay_ps = link_delay;
    topo.traffic_prototype.arrivals = ArrivalProcess::cbr;
    topo.traffic_prototype.fixed_size = 256;
    topo.traffic_prototype.rate = DataRate::gbps(1);
    topo.traffic_prototype.duration = 20_us;
    const auto run = FabricParallelTestbed(topo).run(1);
    EXPECT_TRUE(run.ledger.balanced());
    EXPECT_EQ(run.ledger.delivered, run.ledger.sent);
    std::vector<double> worst;
    for (const auto& m : run.modules) worst.push_back(m.latency_max_ns);
    return worst;
  };
  const auto short_links = worst_latencies(500_ns);
  const auto long_links = worst_latencies(1500_ns);
  ASSERT_EQ(short_links.size(), 3u);
  ASSERT_EQ(long_links.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(short_links[i], 2552.0) << "module " << i;
    EXPECT_DOUBLE_EQ(long_links[i] - short_links[i], 2000.0) << "module " << i;
  }
}

/// FNV-1a over every series except the host-side sim.queue.* / pool.*
/// tallies (which count events and buffers, not modeled behaviour).
std::uint64_t modeled_fingerprint(const obs::MetricSnapshot& snapshot) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t byte) {
    h = (h ^ byte) * 0x100000001b3ULL;
  };
  for (const auto& sample : snapshot.samples()) {
    if (sample.name.starts_with("sim.queue.") ||
        sample.name.starts_with("pool.")) {
      continue;
    }
    for (const char c : sample.key()) mix(static_cast<unsigned char>(c));
    for (int shift = 0; shift < 64; shift += 8) {
      mix((sample.value >> shift) & 0xff);
    }
  }
  return h;
}

TEST(FabricParallel, TieHeavyIncastKeepsTheExchangeOrder) {
  // CBR 64 B from every module into module 0, all generators starting
  // together at half line rate: boundary packets from different source
  // worlds reach the crossbar in the same picosecond, and the output's
  // serialization ends land on those picoseconds too. Only the exchange
  // order (arrival, source world, capture order) decides which crosspoint
  // wins or drops, so any reordering shows up in the figures below.
  Topology topo;
  topo.modules = 4;
  topo.base_seed = 11;
  topo.targets.assign(4, 0);
  topo.crosspoint_capacity = 8;
  topo.traffic_prototype.arrivals = ArrivalProcess::cbr;
  topo.traffic_prototype.fixed_size = 64;
  topo.traffic_prototype.rate = DataRate::gbps(5);
  topo.traffic_prototype.duration = 30_us;
  FabricParallelTestbed bed(topo);
  const auto oracle = bed.run(1);
  for (const unsigned workers : {2u, 4u}) {
    EXPECT_EQ(bed.run(workers).metrics, oracle.metrics)
        << "workers=" << workers;
  }

  // Recorded from the engine that stable-sorted each round's boundary
  // frames by arrival (the (arrival, source world, capture order) key).
  EXPECT_EQ(oracle.ledger.sent, 856u);
  EXPECT_EQ(oracle.ledger.delivered, 459u);
  EXPECT_EQ(oracle.ledger.crosspoint_drops, 397u);
  EXPECT_TRUE(oracle.ledger.balanced());
  EXPECT_EQ(oracle.rounds, 68u);
  const std::uint64_t drops_per_input[] = {99, 99, 99, 100};
  for (std::size_t in = 0; in < 4; ++in) {
    EXPECT_EQ(oracle.metrics.value("fabric.xbar.crosspoint_drops{in=" +
                                   std::to_string(in) +
                                   ",out=0,shard=xbar,xbar=xbar}"),
              drops_per_input[in])
        << "in=" << in;
  }
  EXPECT_EQ(oracle.modules[0].received_packets, 459u);
  EXPECT_DOUBLE_EQ(oracle.modules[0].latency_p50_ns, 3838.295);
  EXPECT_DOUBLE_EQ(oracle.modules[0].latency_p99_ns, 4008.231);
  EXPECT_DOUBLE_EQ(oracle.modules[0].latency_max_ns, 4036.8);
  EXPECT_EQ(modeled_fingerprint(oracle.metrics), 0xf1036dc139925af6ULL);
}

TEST(FabricParallel, SnapshotsCarryWorldLabels) {
  FabricParallelTestbed bed(base_topology(3, 3));
  const auto run = bed.run(2);
  // Per-world registries merge under {shard=<module>} / {shard=xbar}.
  bool saw_module0 = false, saw_xbar = false;
  for (const auto& sample : run.metrics.samples()) {
    for (const auto& [key, value] : sample.labels) {
      if (key == "shard" && value == "0") saw_module0 = true;
      if (key == "shard" && value == "xbar") saw_xbar = true;
    }
  }
  EXPECT_TRUE(saw_module0);
  EXPECT_TRUE(saw_xbar);
  EXPECT_GT(run.metrics.sum("fabric.xbar.forwarded.packets"), 0u);
}

TEST(FabricParallel, WorkersUsedNeverOversubscribesTheHardware) {
  FabricParallelTestbed bed(base_topology(2, 5));
  const auto run = bed.run(64);
  EXPECT_LE(run.workers_used,
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_TRUE(run.ledger.balanced());
}

}  // namespace
}  // namespace flexsfp::fabric
