// Flow-sharded parallel testbed scaling: wall-clock speedup of the
// shard-per-thread runner over the sequential oracle, plus the determinism
// self-check (parallel merges must be bit-identical to sequential).
//
// Usage: parallel_scaling [shards] [duration_us]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "apps/nat.hpp"
#include "bench_util.hpp"
#include "fabric/parallel_testbed.hpp"

namespace {

using namespace flexsfp;
using namespace flexsfp::sim;  // time literals

bool stats_identical(const sim::Stats& a, const sim::Stats& b) {
  return a.sent.packets() == b.sent.packets() &&
         a.sent.bytes() == b.sent.bytes() &&
         a.received.packets() == b.received.packets() &&
         a.received.bytes() == b.received.bytes() &&
         a.latency.count() == b.latency.count() &&
         a.latency.min() == b.latency.min() &&
         a.latency.max() == b.latency.max() &&
         a.latency.percentile(50) == b.latency.percentile(50) &&
         a.latency.percentile(99) == b.latency.percentile(99) &&
         a.latency.mean_ns() == b.latency.mean_ns() &&  // exact: fixed order
         a.queue_drops == b.queue_drops && a.app_drops == b.app_drops &&
         a.dark_drops == b.dark_drops && a.events == b.events;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t shards = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8;
  const auto duration_us =
      argc > 2 ? std::strtoll(argv[2], nullptr, 10) : 20000;
  if (shards == 0 || duration_us <= 0) {
    std::fprintf(stderr,
                 "usage: %s [shards >= 1] [duration_us >= 1]  (got %s %s)\n",
                 argv[0], argc > 1 ? argv[1] : "-", argc > 2 ? argv[2] : "-");
    return 2;
  }

  bench::title("Flow-sharded parallel testbed scaling");
  std::printf("shards=%zu, %lld us of Poisson IMIX @ 9 Gb/s per module, "
              "hardware threads=%u\n\n",
              shards, static_cast<long long>(duration_us),
              std::thread::hardware_concurrency());

  fabric::ParallelTestbedConfig config;
  config.shards = shards;
  config.base_seed = 1;
  fabric::TrafficSpec spec;
  spec.rate = DataRate::gbps(9);
  spec.arrivals = fabric::ArrivalProcess::poisson;
  spec.sizes = fabric::SizeDistribution::imix;
  spec.duration = duration_us * 1_us;
  config.prototype.edge_traffic = spec;

  auto factory = [] { return std::make_unique<apps::StaticNat>(); };

  // Timing is best-of-N (results are bit-identical across repeats, only the
  // wall clock moves), with one discarded warmup to fault in code and data.
  const int repeats = bench::repeats_from_env(3);

  config.workers = 1;
  fabric::ParallelTestbed sequential_bed(config, factory);
  (void)sequential_bed.run_sequential();  // warmup
  auto oracle = sequential_bed.run_sequential();
  for (int rep = 1; rep < repeats; ++rep) {
    auto again = sequential_bed.run_sequential();
    if (again.wall_seconds < oracle.wall_seconds) oracle = std::move(again);
  }

  const double packets = double(oracle.combined.sent.packets());
  std::printf("%-10s %12s %10s %14s %12s\n", "workers", "wall (s)", "speedup",
              "ns/pkt", "identical?");
  bench::rule(64);
  std::printf("%-10s %12.3f %10s %14.1f %12s\n", "1 (seq)",
              oracle.wall_seconds, "1.00x",
              oracle.wall_seconds * 1e9 / packets, "oracle");

  bool all_identical = true;
  bench::Figures figures{
      {"shards", double(shards)},
      {"wall_seconds_seq", oracle.wall_seconds},
      {"ns_per_pkt_seq", oracle.wall_seconds * 1e9 / packets}};
  for (unsigned workers : {2u, 4u, 8u}) {
    if (workers > shards) break;
    config.workers = workers;
    fabric::ParallelTestbed bed(config, factory);
    auto run = bed.run();
    for (int rep = 1; rep < repeats; ++rep) {
      auto again = bed.run();
      if (again.wall_seconds < run.wall_seconds) run = std::move(again);
    }
    // The determinism self-check covers the whole telemetry spine: merged
    // registry snapshots must be bit-identical too, not just sim::Stats.
    const bool same = stats_identical(run.combined, oracle.combined) &&
                      run.combined_counters == oracle.combined_counters &&
                      run.combined_metrics == oracle.combined_metrics;
    all_identical = all_identical && same;
    figures.emplace_back("speedup_w" + std::to_string(workers),
                         oracle.wall_seconds / run.wall_seconds);
    figures.emplace_back("ns_per_pkt_w" + std::to_string(workers),
                         run.wall_seconds * 1e9 / packets);
    std::printf("%-10u %12.3f %9.2fx %14.1f %12s\n", workers,
                run.wall_seconds, oracle.wall_seconds / run.wall_seconds,
                run.wall_seconds * 1e9 / packets, same ? "yes" : "NO");
  }
  bench::rule(64);

  std::printf(
      "\ncombined: sent=%llu received=%llu drops=%llu p50=%.1fns "
      "p99=%.1fns events=%llu\n",
      static_cast<unsigned long long>(oracle.combined.sent.packets()),
      static_cast<unsigned long long>(oracle.combined.received.packets()),
      static_cast<unsigned long long>(oracle.combined.total_drops()),
      to_nanos(oracle.combined.latency.percentile(50)),
      to_nanos(oracle.combined.latency.percentile(99)),
      static_cast<unsigned long long>(oracle.combined.events));

  figures.emplace_back("events_total", double(oracle.combined.events));
  figures.emplace_back("determinism_ok", all_identical ? 1.0 : 0.0);
  bench::write_bench_json("parallel_scaling", oracle.combined_metrics,
                          figures);

  if (std::thread::hardware_concurrency() < 2) {
    bench::note(
        "single hardware thread: speedup is not expected here; the "
        "determinism check is the meaningful result.");
  } else {
    bench::note(
        "speedup tracks min(workers, cores, shards); shards share no state, "
        "so scaling is limited only by the merge barrier — the paper's "
        "one-module-per-port cheap-path argument in wall-clock form.");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel run diverged from the sequential oracle\n");
    return 1;
  }
  std::printf("determinism self-check: PASS (all worker counts bit-identical "
              "to sequential)\n");
  return 0;
}
