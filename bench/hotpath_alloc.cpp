// Hot-path allocation audit: drives the full module pipeline (TrafficGen ->
// fault-free link -> PPE running StaticNat -> sink) under a counting global
// allocator and reports wall ns/packet plus allocations/packet. The packet pool
// and the slab event queue exist to push the steady-state figure toward
// zero; this bench is the evidence, and tools/bench_gate.py fails CI when
// either figure regresses against bench/baselines/. A second row runs the
// windowed fabric engine (FabricParallelTestbed::run(1): four modules, a
// crossbar, faulted uplinks) and reports allocations per packet across its
// cross-world exchange as allocs_per_packet_fabric.
#include <execinfo.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "apps/nat.hpp"
#include "bench_util.hpp"
#include "fabric/fabric_testbed.hpp"
#include "fabric/testbed.hpp"

// ---------------------------------------------------------------------------
// Binary-local counting allocator. Every user-code allocation in this
// process funnels through these replacements; the counter is atomic only
// because the contract requires thread safety — this bench is sequential.
//
// Set FLEXSFP_ALLOC_TRACE=N to print a backtrace for every Nth allocation
// made while a measured run() is in flight — the quickest way to find who
// reintroduced a hot-path allocation when the CI gate trips.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_tracing{false};
std::uint64_t g_trace_every = 0;  // 0 = off; read once from the environment
thread_local bool g_in_trace = false;

void maybe_trace(std::uint64_t serial) {
  if (g_trace_every == 0 || !g_tracing.load(std::memory_order_relaxed)) {
    return;
  }
  if (serial % g_trace_every != 0 || g_in_trace) return;
  g_in_trace = true;  // backtrace() itself allocates on first use
  void* frames[16];
  const int depth = backtrace(frames, 16);
  std::fprintf(stderr, "--- allocation #%llu ---\n",
               static_cast<unsigned long long>(serial));
  backtrace_symbols_fd(frames, depth, 2);
  g_in_trace = false;
}
}  // namespace

void* operator new(std::size_t size) {
  maybe_trace(g_allocations.fetch_add(1, std::memory_order_relaxed));
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

int main(int argc, char** argv) {
  using namespace flexsfp;
  using namespace flexsfp::sim;

  // Longer horizon than nat_linerate so steady state dominates setup; a
  // repeat count argument lets profiling runs scale the workload further.
  const int repeats = argc > 1 ? std::atoi(argv[1]) : 1;
  if (const char* every = std::getenv("FLEXSFP_ALLOC_TRACE")) {
    g_trace_every = std::strtoull(every, nullptr, 10);
  }

  bench::title("Hot-path audit — wall ns/packet and allocations/packet");
  std::printf("%-10s %12s %14s %14s %12s\n", "frame", "packets", "events",
              "allocs/pkt", "ns/pkt");
  bench::rule(70);

  obs::MetricSnapshot all_frames;
  bench::Figures figures;
  double worst_allocs_per_packet = 0;
  std::uint64_t events_total = 0;
  std::uint64_t packets_total = 0;
  double wall_seconds = 0;

  for (const std::size_t frame : {64, 512, 1518}) {
    std::uint64_t frame_events = 0;
    std::uint64_t frame_packets = 0;
    std::uint64_t frame_allocs = 0;
    double frame_seconds = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      fabric::TestbedConfig config;
      fabric::TrafficSpec spec;
      spec.rate = DataRate::gbps(10);
      spec.fixed_size = frame;
      spec.duration = 2_ms;
      config.edge_traffic = spec;

      auto nat = std::make_unique<apps::StaticNat>();
      for (std::uint32_t i = 0; i < 1024; ++i) {
        nat->add_mapping(net::Ipv4Address{0x0a000000u + i},
                         net::Ipv4Address{0xcb007100u + i});
      }
      fabric::ModuleTestbed testbed(std::move(config), std::move(nat));

      // Count only what run() allocates: the construction above (tables,
      // registry, pool reserve) is setup, not the hot path.
      const std::uint64_t allocs_before =
          g_allocations.load(std::memory_order_relaxed);
      g_tracing.store(true, std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      const auto result = testbed.run();
      const auto t1 = std::chrono::steady_clock::now();
      g_tracing.store(false, std::memory_order_relaxed);
      frame_allocs += g_allocations.load(std::memory_order_relaxed) -
                      allocs_before;
      frame_seconds += std::chrono::duration<double>(t1 - t0).count();
      frame_events += testbed.sim().executed_events();
      frame_packets += result.edge_to_optical.sent_packets;
      if (rep == 0) {
        all_frames.merge(
            result.metrics.with_label("frame", std::to_string(frame)));
      }
    }
    const double allocs_per_packet =
        frame_packets > 0 ? double(frame_allocs) / double(frame_packets) : 0;
    const double ns_per_pkt =
        frame_packets > 0 ? frame_seconds * 1e9 / double(frame_packets) : 0;
    std::printf("%7zu B %12llu %14llu %14.3f %12.1f\n", frame,
                static_cast<unsigned long long>(frame_packets),
                static_cast<unsigned long long>(frame_events),
                allocs_per_packet, ns_per_pkt);
    worst_allocs_per_packet =
        std::max(worst_allocs_per_packet, allocs_per_packet);
    events_total += frame_events;
    packets_total += frame_packets;
    wall_seconds += frame_seconds;
    figures.emplace_back("allocs_per_packet_" + std::to_string(frame),
                         allocs_per_packet);
  }

  // The fabric ring, shaped like perfbench's fabric_ring_w1: 4 modules on
  // one worker, Poisson 64 B at 8 Gb/s, 2% drop + 1% duplicate per uplink,
  // 500 ns lookahead, 1 ms. run() builds its worlds, so world setup is in
  // the count too — amortized over ~45 k packets.
  {
    fabric::Topology topo;
    topo.modules = 4;
    topo.link_delay_ps = 500'000;
    topo.traffic_prototype.rate = DataRate::gbps(8);
    topo.traffic_prototype.arrivals = fabric::ArrivalProcess::poisson;
    topo.traffic_prototype.duration = 1_ms;
    sim::FaultSpec faults;
    faults.drop_prob = 0.02;
    faults.duplicate_prob = 0.01;
    topo.link_faults = faults;
    fabric::FabricParallelTestbed bed(topo);

    const std::uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    g_tracing.store(true, std::memory_order_relaxed);
    const auto result = bed.run(1);
    g_tracing.store(false, std::memory_order_relaxed);
    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
    std::uint64_t packets = 0;
    for (const auto& m : result.modules) packets += m.sent_packets;
    const double allocs_per_packet =
        packets > 0 ? double(allocs) / double(packets) : 0;
    std::printf("%-10s %12llu %14llu %14.3f %12.1f\n", "fabric",
                static_cast<unsigned long long>(packets),
                static_cast<unsigned long long>(result.events),
                allocs_per_packet,
                packets > 0 ? result.wall_seconds * 1e9 / double(packets)
                            : 0.0);
    figures.emplace_back("allocs_per_packet_fabric", allocs_per_packet);
  }
  bench::rule(70);

  const double ns_per_pkt =
      packets_total > 0 ? wall_seconds * 1e9 / double(packets_total) : 0;
  std::printf("total: %llu events in %.3f s = %.1f ns/pkt, worst "
              "allocs/pkt %.3f\n",
              static_cast<unsigned long long>(events_total), wall_seconds,
              ns_per_pkt, worst_allocs_per_packet);
  figures.emplace_back("events_total", double(events_total));
  figures.emplace_back("wall_seconds", wall_seconds);
  figures.emplace_back("ns_per_pkt", ns_per_pkt);
  figures.emplace_back("allocs_per_packet", worst_allocs_per_packet);
  bench::write_bench_json("hotpath_alloc", all_frames, figures);
  bench::note(
      "allocations/packet is machine-independent and gated strictly by "
      "tools/bench_gate.py; ns/packet is hardware-dependent and gated "
      "loosely.");
  return 0;
}
