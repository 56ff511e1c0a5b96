#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "apps/nat.hpp"
#include "apps/softwire.hpp"
#include "fabric/fabric_testbed.hpp"
#include "fabric/parallel_testbed.hpp"
#include "fabric/testbed.hpp"
#include "net/builder.hpp"
#include "net/checksum.hpp"
#include "sim/random.hpp"
#include "traced_app.hpp"

namespace perfbench {
namespace {

using namespace flexsfp;

// Stream ids under the workload seed: every input derives from
// derive_stream_seed(seed, stream), so one seed fixes them all.
constexpr std::uint64_t kStreamNat = 1;
constexpr std::uint64_t kStreamTraffic = 2;
constexpr std::uint64_t kStreamFaults = 3;
constexpr std::uint64_t kStreamSubscribers = 4;
constexpr std::uint64_t kStreamDown = 5;
constexpr std::uint64_t kStreamUp = 6;

[[nodiscard]] std::uint64_t stream_seed(const Options& options,
                                        std::uint64_t stream) {
  return sim::derive_stream_seed(options.seed, stream);
}

[[nodiscard]] sim::TimePs scaled(sim::TimePs duration, const Options& o) {
  return std::max<sim::TimePs>(1'000'000,
                               sim::TimePs(double(duration) * o.scale));
}

// --- digest ------------------------------------------------------------------

/// FNV-1a over the modeled outputs: every registry series except the
/// simulator's own implementation tallies (sim.queue.*, pool.*), which a
/// pure speed-up may legitimately change, plus the modeled figures each
/// workload adds. Host-algorithm counts (events, sync rounds) stay out for
/// the same reason.
class Digest {
 public:
  void text(std::string_view s) {
    for (const char c : s) byte(std::uint8_t(c));
    byte(0);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(std::uint8_t(v >> (8 * i)));
  }
  void real(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void snapshot(const obs::MetricSnapshot& snap) {
    for (const obs::MetricSample& s : snap.samples()) {
      if (s.name.starts_with("sim.queue.") || s.name.starts_with("pool.")) {
        continue;
      }
      text(s.key());
      u64(s.value);
    }
  }
  void direction(const fabric::DirectionResult& d) {
    u64(d.sent_packets);
    u64(d.received_packets);
    real(d.offered_gbps);
    real(d.delivered_gbps);
    real(d.loss_rate);
    real(d.latency_p50_ns);
    real(d.latency_p99_ns);
    real(d.latency_max_ns);
  }
  void latency(const sim::LatencyHistogram& h) {
    u64(h.count());
    u64(std::uint64_t(h.percentile(50)));
    u64(std::uint64_t(h.percentile(99)));
    u64(std::uint64_t(h.max()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- ledger and counts -------------------------------------------------------

[[nodiscard]] std::uint64_t gap(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

/// The zero-black-hole equation over a (merged) registry snapshot: packets
/// the sources injected (`sent`, or the generator series when sent is
/// unset) plus fault duplicates must equal delivered + every named drop +
/// packets still held in a pool.
struct LedgerCheck {
  fabric::FabricLedger ledger;
  std::uint64_t in_flight = 0;

  explicit LedgerCheck(const obs::MetricSnapshot& snap)
      : ledger(fabric::FabricLedger::from_snapshot(snap)),
        in_flight(snap.sum("pool.in_use")) {}

  [[nodiscard]] std::uint64_t injected() const { return ledger.injected(); }
  [[nodiscard]] std::uint64_t unaccounted() const {
    return gap(ledger.injected(), ledger.accounted() + in_flight);
  }
};

void read_counts(const obs::MetricSnapshot& snap, LayerCounts& c) {
  c.queue_pushed += snap.sum("sim.queue.pushed");
  c.boxed_closures += snap.sum("sim.queue.boxed_closures");
  c.window_rebuilds += snap.sum("sim.queue.window_rebuilds");
  c.pool_fresh += snap.sum("pool.fresh");
  c.pool_heap_fallbacks += snap.sum("pool.heap_fallbacks");
  for (const obs::MetricSample& s : snap.samples()) {
    if (s.name == "pool.high_watermark") {
      c.pool_high_watermark = std::max(c.pool_high_watermark, s.value);
    }
  }
  c.engine_forwarded += snap.sum("engine.forwarded");
  c.engine_app_drops += snap.sum("engine.app_drops");
  c.xbar_enqueued += snap.sum("fabric.xbar.enqueued");
}

void read_app_stats(const std::vector<AppCallStats>& stats, LayerCounts& c) {
  for (const AppCallStats& s : stats) {
    c.app_batches += s.batches;
    c.app_batched_packets += s.batched_packets;
  }
}

// --- apps --------------------------------------------------------------------

// The NAT workloads' flow population, as in bench/nat_linerate: the
// default TrafficSpec's 1024 flows per traffic slice (one slice per module,
// a /16 apart as ParallelTestbed::shard_spec lays them out), every flow
// mapped, so every packet takes the translation path whatever the seed.
// The seed picks each flow's translated address out of a 4096-address pool.
using NatMappings = std::vector<std::pair<net::Ipv4Address, net::Ipv4Address>>;

[[nodiscard]] NatMappings nat_mappings(const Options& o, std::size_t slice) {
  sim::Rng rng = sim::Rng::for_stream(stream_seed(o, kStreamNat), slice);
  const fabric::TrafficSpec defaults;
  const std::uint32_t src_base =
      defaults.src_base.value() + (std::uint32_t(slice) << 16);
  const std::uint32_t pool_base =
      net::Ipv4Address::from_octets(100, 64, 0, 0).value() +
      std::uint32_t(slice) * 4096;
  std::vector<std::uint32_t> targets(4096);
  std::iota(targets.begin(), targets.end(), 0u);
  NatMappings out;
  for (std::size_t i = 0; i < defaults.flow_count; ++i) {
    // Partial Fisher-Yates: distinct translated addresses. Flow ranks run
    // from 1 (TrafficGen::flow_tuple).
    std::swap(targets[i], targets[rng.uniform(i, targets.size() - 1)]);
    out.emplace_back(net::Ipv4Address{src_base + std::uint32_t(i) + 1},
                     net::Ipv4Address{pool_base + targets[i]});
  }
  return out;
}

[[nodiscard]] std::vector<NatMappings> nat_mappings_per_slice(
    const Options& o, std::size_t slices) {
  std::vector<NatMappings> out;
  for (std::size_t slice = 0; slice < slices; ++slice) {
    out.push_back(nat_mappings(o, slice));
  }
  return out;
}

[[nodiscard]] ppe::PpeAppPtr build_nat(const NatMappings& mappings) {
  auto nat = std::make_unique<apps::StaticNat>();
  for (const auto& [original, translated] : mappings) {
    if (!nat->add_mapping(original, translated)) {
      throw std::runtime_error("perfbench: NAT mapping rejected");
    }
  }
  return nat;
}

[[nodiscard]] ppe::PpeAppPtr traced(ppe::PpeAppPtr app, AppCallStats* stats) {
  if (stats == nullptr) return app;
  return std::make_unique<TracedApp>(std::move(app), *stats);
}

/// The parallel workloads' apps in shard / module order; with the
/// unbalance_one fault, shard 0 mirrors one uninjected packet.
[[nodiscard]] std::vector<ppe::PpeAppPtr> build_nat_apps(
    const std::vector<NatMappings>& mappings, std::vector<AppCallStats>& stats,
    const Options& o, SpanRecorder* trace) {
  stats.assign(mappings.size(), AppCallStats{});
  std::vector<ppe::PpeAppPtr> apps;
  for (std::size_t s = 0; s < mappings.size(); ++s) {
    Scope span(trace, "apps.table_setup", "apps", int(s));
    ppe::PpeAppPtr app = build_nat(mappings[s]);
    if (o.unbalance_one && s == 0) {
      app = std::make_unique<MirrorFirstApp>(std::move(app));
    }
    apps.push_back(traced(std::move(app), trace != nullptr ? &stats[s] : nullptr));
  }
  return apps;
}

/// Self-test fault: drop the first packet a sink would receive, uncounted.
void swallow_first(fabric::ModuleTestbed& tb) {
  fabric::Sink* sink = &tb.optical_sink();
  tb.module().set_egress_handler(
      sfp::FlexSfpModule::optical_port,
      [sink, swallowed = false](net::PacketPtr packet) mutable {
        if (!swallowed) {
          swallowed = true;
          return;
        }
        sink->handle_packet(std::move(packet));
      });
}

/// Hands out apps built during set-up, in the order the testbed asks for
/// them (shard / module index order), so table construction is timed as
/// set-up rather than inside the run call.
[[nodiscard]] fabric::AppFactory prebuilt_factory(
    std::vector<ppe::PpeAppPtr>& apps) {
  return [&apps, next = std::size_t{0}]() mutable -> ppe::PpeAppPtr {
    if (next >= apps.size()) {
      throw std::logic_error("perfbench: testbed asked for more apps");
    }
    return std::move(apps[next++]);
  };
}

/// Traced parallel runs: each shard's app-span window [first call, last
/// call] becomes a sim.shard_window node holding that shard's app calls.
/// The longest window is the run's critical path and hangs under the run
/// span, so the rep's self times add up; the others are separate roots.
void add_shard_windows(SpanRecorder& trace, int run_span,
                       const std::vector<AppCallStats>& stats,
                       const std::string& app_span) {
  std::size_t critical = 0;
  std::int64_t longest = -1;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const std::int64_t len = stats[i].calls.last_end - stats[i].calls.first_start;
    if (stats[i].calls.calls > 0 && len > longest) {
      longest = len;
      critical = i;
    }
  }
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].calls.calls == 0) continue;
    Span window;
    window.name = "sim.shard_window";
    window.layer = "sim";
    window.parent = i == critical ? run_span : -1;
    window.shard = int(i);
    window.tid = stats[i].calls.tid;
    window.start_ns = stats[i].calls.first_start;
    window.end_ns = stats[i].calls.last_end;
    window.busy_ns = window.end_ns - window.start_ns;
    const int id = trace.add(std::move(window));
    trace.add_aggregate(stats[i].calls, app_span, "apps", id, int(i));
  }
}

// --- nat64_seq ---------------------------------------------------------------

/// One ModuleTestbed, StaticNat with all 1024 flows mapped, CBR 10 Gb/s of
/// 64 B frames in one direction, one thread.
class NatSeq final : public Workload {
 public:
  explicit NatSeq(const Options& o) : options_(o), mappings_(nat_mappings(o, 0)) {
    fabric::TrafficSpec spec;
    spec.rate = sim::DataRate::gbps(10);
    spec.fixed_size = 64;
    spec.seed = stream_seed(o, kStreamTraffic);
    spec.duration = scaled(7'000'000'000, o);  // 7 ms, ~99 k packets
    config_.edge_traffic = spec;
  }

  void setup(std::size_t /*part*/, SpanRecorder* trace) override {
    stats_.assign(1, AppCallStats{});
    ppe::PpeAppPtr app;
    {
      Scope span(trace, "apps.table_setup", "apps", 0);
      app = build_nat(mappings_);
    }
    app = traced(std::move(app), trace != nullptr ? &stats_[0] : nullptr);
    Scope span(trace, "fabric.testbed", "fabric", 0);
    tb_ = std::make_unique<fabric::ModuleTestbed>(config_, std::move(app));
    if (options_.unbalance_one) swallow_first(*tb_);
  }

  void run(std::size_t /*part*/, SpanRecorder* trace) override {
    int run_span = -1;
    {
      Scope span(trace, "sim.run", "sim", 0);
      run_span = span.id();
      result_ = tb_->run();
    }
    if (trace != nullptr) {
      trace->add_aggregate(stats_[0].calls, "apps.nat", "apps", run_span, 0);
    }
  }

  RepOutcome finish(SpanRecorder* trace) override {
    Scope span(trace, "obs.check", "obs");
    RepOutcome out;
    const LedgerCheck check(result_.metrics);
    const auto& dir = result_.edge_to_optical;
    out.packets = dir.sent_packets;
    out.injected = check.injected();
    out.unaccounted =
        check.unaccounted() + gap(dir.sent_packets, check.ledger.sent) +
        gap(dir.received_packets, check.ledger.delivered) +
        gap(result_.app_drops, check.ledger.app_drops);
    out.counts.events = tb_->sim().executed_events();
    out.counts.flight_hops = tb_->sim().flight().recorded();
    read_counts(result_.metrics, out.counts);
    read_app_stats(stats_, out.counts);
    Digest d;
    d.snapshot(result_.metrics);
    d.direction(dir);
    d.real(result_.ppe_utilization);
    d.u64(std::uint64_t(result_.duration));
    for (const ppe::CounterSnapshot& c : tb_->module().app().counters()) {
      d.u64(c.packets);  // NAT translated / missed / non-IPv4
    }
    out.digest = d.value();
    tb_.reset();
    return out;
  }

  Observability observability() const override { return {true, false, false}; }

 private:
  Options options_;
  NatMappings mappings_;
  fabric::TestbedConfig config_;
  std::vector<AppCallStats> stats_;
  std::unique_ptr<fabric::ModuleTestbed> tb_;
  fabric::TestbedResult result_;
};

// --- softwire_churn ----------------------------------------------------------

// RFC 7597 default-style layout: a = 6 excluded bits, k = 6 PSID bits ->
// 64 subscribers per shared IPv4 address, 1008 ports each.
constexpr apps::PsidParams kPsid{6, 6};
constexpr std::uint32_t kPsidsPerAddr = 64;
constexpr std::size_t kSoftwireShards = 4;
constexpr std::size_t kSubscribers = 1u << 20;
constexpr std::size_t kPerShard = kSubscribers / kSoftwireShards;
constexpr std::uint64_t kB4Hi = 0x20010db8'00000000ull;
constexpr std::size_t kEth = 14, kIp4 = 20, kIp6 = 40;

const net::Ipv6Address& aftr_addr() {
  static const net::Ipv6Address addr =
      net::Ipv6Address::from_u64_pair(0x20010db8'ffff0000ull, 1);
  return addr;
}
constexpr net::Ipv4Address kRemote = net::Ipv4Address::from_octets(192, 0, 2, 1);

/// One lease: shared IPv4 address + PSID -> B4 tunnel endpoint.
struct Subscriber {
  std::uint32_t ipv4 = 0;
  std::uint16_t psid = 0;
  std::uint64_t b4_lo = 0;
};

[[nodiscard]] net::Ipv6Address b4_of(const Subscriber& s) {
  return net::Ipv6Address::from_u64_pair(kB4Hi, s.b4_lo);
}

void refresh_ipv4_checksum(net::Bytes& frame, std::size_t ip) {
  net::write_be16(frame, ip + 10, 0);
  net::write_be16(frame, ip + 10,
                  net::internet_checksum(net::BytesView(frame).subspan(ip, kIp4)));
}

/// Steady-state CBR emitter: copies the direction's single frame template
/// into a pooled packet, patches in the subscriber (addresses, A+P port,
/// IPv4 checksum) chosen by Zipf activity, and re-arms one serialization
/// slot later. On traced runs it records the frame build and the module
/// ingress call as separate spans.
struct Emitter {
  sim::Simulation* sim = nullptr;
  sim::PacketHandler* out = nullptr;
  const net::Bytes* frame = nullptr;
  const std::vector<Subscriber>* subs = nullptr;
  const sim::ZipfDistribution* zipf = nullptr;
  sim::Rng rng{1};
  bool upstream = false;
  sim::TimePs gap = 0;
  sim::TimePs stop_at = 0;
  std::uint64_t sent = 0;
  SpanAggregate* build_spans = nullptr;
  SpanAggregate* inject_spans = nullptr;

  void emit() {
    if (sim->now() >= stop_at) return;
    const std::int64_t t0 = build_spans != nullptr ? now_ns() : 0;
    const Subscriber& sub = (*subs)[zipf->sample(rng) - 1];
    // One emit in 16 uses a port from the excluded system range, driving
    // the unmappable / anti-spoof drop paths (port-set exhaustion).
    const std::uint16_t port =
        rng.uniform(0, 15) == 0
            ? std::uint16_t(rng.uniform(1, 1023))
            : apps::port_for_index(
                  kPsid, sub.psid,
                  std::uint32_t(rng.uniform(0, apps::port_set_size(kPsid) - 1)));
    net::PacketPtr packet = sim->packet_pool().make();
    net::Bytes& data = packet->data();
    data = *frame;
    if (upstream) {
      net::write_be64(data, kEth + 16, sub.b4_lo);  // IPv6 source, low half
      net::write_be32(data, kEth + kIp6 + 12, sub.ipv4);
      refresh_ipv4_checksum(data, kEth + kIp6);
      net::write_be16(data, kEth + kIp6 + kIp4, port);
    } else {
      net::write_be32(data, kEth + 16, sub.ipv4);
      refresh_ipv4_checksum(data, kEth);
      net::write_be16(data, kEth + kIp4 + 2, port);
    }
    packet->set_id(sim->next_packet_id());
    packet->set_created_time_ps(sim->now());
    ++sent;
    if (build_spans != nullptr) {
      const std::int64_t t1 = now_ns();
      build_spans->record(t0, t1);
      out->handle_packet(std::move(packet));
      inject_spans->record(t1, now_ns());
    } else {
      out->handle_packet(std::move(packet));
    }
    sim->schedule_in(gap, [this] { emit(); });
  }
};

/// apps::LwAftr with 1,048,576 subscribers sharded over 4 ModuleTestbeds run
/// one after another; bidirectional 64 B traffic, faults on the uplink,
/// lease churn under traffic.
class SoftwireChurn final : public Workload {
 public:
  explicit SoftwireChurn(const Options& o)
      : options_(o), zipf_(kPerShard, 1.0) {
    // Leases: (address, psid) pairs in 198.18.0.0/15 assigned to subscriber
    // slots by a seeded permutation, each with a seeded B4 address.
    std::vector<std::uint32_t> perm(kSubscribers);
    std::iota(perm.begin(), perm.end(), 0u);
    sim::Rng rng = sim::Rng::for_stream(o.seed, kStreamSubscribers);
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.uniform(0, i)]);
    }
    subs_.resize(kSoftwireShards);
    for (std::size_t s = 0; s < kSoftwireShards; ++s) {
      subs_[s].resize(kPerShard);
      for (std::size_t j = 0; j < kPerShard; ++j) {
        const std::uint32_t g = perm[s * kPerShard + j];
        subs_[s][j] = Subscriber{
            net::Ipv4Address::from_octets(198, 18, 0, 0).value() +
                g / kPsidsPerAddr,
            std::uint16_t(g % kPsidsPerAddr), rng.next_u64() | 1};
      }
    }
    // One frame template per direction; the emitters patch subscribers in.
    const net::MacAddress core = net::MacAddress::from_u64(0x02000000aa01);
    const net::MacAddress aftr = net::MacAddress::from_u64(0x02000000aa02);
    const Subscriber placeholder{
        net::Ipv4Address::from_octets(198, 18, 0, 0).value(), 0, 1};
    const std::uint16_t port = apps::port_for_index(kPsid, 0, 0);
    net::PacketBuilder builder;
    builder.ethernet(aftr, core)
        .ipv4(kRemote, net::Ipv4Address{placeholder.ipv4}, net::IpProto::udp)
        .udp(9999, port)
        .min_frame_size(kFrame)
        .payload_size(kFrame - kEth - kIp4 - 8);
    down_frame_ = builder.build();
    net::write_be16(down_frame_, kEth + kIp4 + 6, 0);  // UDP checksum off
    builder.reset();
    builder.ethernet(aftr, core)
        .ipv4(net::Ipv4Address{placeholder.ipv4}, kRemote, net::IpProto::udp)
        .udp(port, 9999)
        .min_frame_size(kFrame)
        .payload_size(kFrame - kEth - kIp4 - 8);
    up_frame_ = builder.build();
    net::write_be16(up_frame_, kEth + kIp4 + 6, 0);
    if (!net::encapsulate_ipv4_in_ipv6(up_frame_, b4_of(placeholder),
                                       aftr_addr())) {
      throw std::runtime_error("perfbench: softwire template encap failed");
    }
    duration_ = scaled(10'000'000'000, o);  // 10 ms per shard, ~575 k packets
  }

  [[nodiscard]] std::size_t setup_parts() const override {
    return kSoftwireShards;
  }

  void setup(std::size_t s, SpanRecorder* trace) override {
    if (shards_.empty()) shards_.resize(kSoftwireShards);
    Shard& shard = shards_[s];
    apps::LwAftrConfig config;
    config.aftr_addr = aftr_addr();
    config.icmp_src = net::Ipv4Address::from_octets(192, 0, 2, 254);
    config.binding_capacity = std::uint32_t(kPerShard * 2);
    config.miss_action = apps::SoftwireMissAction::drop;
    std::unique_ptr<apps::LwAftr> app;
    {
      Scope span(trace, "apps.table_setup", "apps", int(s));
      app = std::make_unique<apps::LwAftr>(config);
      shard.aftr = app.get();
      for (const Subscriber& sub : subs_[s]) {
        if (!app->add_binding(net::Ipv4Address{sub.ipv4}, sub.psid, kPsid,
                              b4_of(sub))) {
          throw std::runtime_error("perfbench: binding rejected");
        }
      }
    }
    fabric::TestbedConfig tb_config;
    sim::FaultSpec faults;
    faults.drop_prob = 0.01;
    faults.duplicate_prob = 0.002;
    faults.reorder_prob = 0.02;
    faults.seed = sim::derive_stream_seed(stream_seed(options_, kStreamFaults), s);
    tb_config.optical_faults = faults;
    Scope span(trace, "fabric.testbed", "fabric", int(s));
    shard.tb = std::make_unique<fabric::ModuleTestbed>(
        tb_config,
        traced(std::move(app), trace != nullptr ? &shard.app : nullptr));
    if (options_.unbalance_one && s == 0) swallow_first(*shard.tb);
  }

  /// One piece per churn window of each shard, so the harness times the
  /// run in short pieces: the last drains the shard and collects its
  /// result, the others stop at the window's end.
  [[nodiscard]] std::size_t run_parts() const override {
    return kSoftwireShards * kChurnWindows;
  }

  void run(std::size_t part, SpanRecorder* trace) override {
    const std::size_t s = part / kChurnWindows;
    const std::size_t window = part % kChurnWindows;
    Shard& shard = shards_[s];
    if (window == 0) start_shard(s, trace);
    if (window + 1 < kChurnWindows) {
      shard.tb->sim().run_until(sim::TimePs(window + 1) * duration_ /
                                kChurnWindows);
      return;
    }
    shard.result = shard.tb->run();
    if (trace != nullptr) {
      trace->end(shard.run_span);
      trace->add_aggregate(shard.app.calls, "apps.softwire", "apps",
                           shard.run_span, int(s));
      trace->add_aggregate(shard.build, "net.emit_frame", "net",
                           shard.run_span, int(s));
      trace->add_aggregate(shard.inject, "ppe.ingress", "ppe", shard.run_span,
                           int(s));
    }
  }

  /// Arms shard `s`'s emitters and lease churn; on traced runs opens its
  /// sim.run span, which the shard's last piece closes.
  void start_shard(std::size_t s, SpanRecorder* trace) {
    Shard& shard = shards_[s];
    fabric::ModuleTestbed& tb = *shard.tb;
    const sim::DataRate rate = sim::DataRate::gbps(kRateGbps);
    shard.edge_in = std::make_unique<sim::LambdaHandler>([&tb](net::PacketPtr p) {
      tb.module().inject(sfp::FlexSfpModule::edge_port, std::move(p));
    });
    for (Emitter* e : {&shard.down, &shard.up}) {
      e->sim = &tb.sim();
      e->subs = &subs_[s];
      e->zipf = &zipf_;
      e->stop_at = duration_;
      e->upstream = e == &shard.up;
      e->build_spans = trace != nullptr ? &shard.build : nullptr;
      e->inject_spans = trace != nullptr ? &shard.inject : nullptr;
    }
    // Downstream IPv4 enters the AFTR's core side (edge port); upstream
    // lw4o6 frames arrive from the B4s through the faulted uplink.
    shard.down.out = shard.edge_in.get();
    shard.down.frame = &down_frame_;
    shard.down.rng = sim::Rng::for_stream(stream_seed(options_, kStreamDown), s);
    shard.down.gap = rate.serialization_time(kFrame + 24);
    shard.up.out = tb.optical_faults();
    shard.up.frame = &up_frame_;
    shard.up.rng = sim::Rng::for_stream(stream_seed(options_, kStreamUp), s);
    shard.up.gap = rate.serialization_time(kFrame + kIp6 + 24);
    tb.sim().schedule_at(0, [&shard] { shard.down.emit(); });
    tb.sim().schedule_at(0, [&shard] { shard.up.emit(); });

    // Lease churn under traffic, shaped like the RFC 8219 churn trial: every
    // window of the run a burst removes one in kChurnStride leases and
    // re-adds them half a window later. (That trial's one-in-seven stride
    // at a million leases would make table writes, not packets, the run.)
    const sim::TimePs window = duration_ / kChurnWindows;
    apps::LwAftr* aftr = shard.aftr;
    const std::vector<Subscriber>* subs = &subs_[s];
    const int shard_id = int(s);
    for (std::size_t tick = 0; tick < kChurnWindows; ++tick) {
      tb.sim().schedule_at(sim::TimePs(tick) * window,
                           [=] {
        Scope span(trace, "apps.churn", "apps", shard_id);
        for (std::size_t j = tick; j < subs->size(); j += kChurnStride) {
          (void)aftr->remove_binding(net::Ipv4Address{(*subs)[j].ipv4},
                                     (*subs)[j].psid);
        }
      });
      tb.sim().schedule_at(sim::TimePs(tick) * window + window / 2, [=] {
        Scope span(trace, "apps.churn", "apps", shard_id);
        for (std::size_t j = tick; j < subs->size(); j += kChurnStride) {
          (void)aftr->add_binding(net::Ipv4Address{(*subs)[j].ipv4},
                                  (*subs)[j].psid, kPsid, b4_of((*subs)[j]));
        }
      });
    }

    if (trace != nullptr) shard.run_span = trace->begin("sim.run", "sim", shard_id);
  }

  RepOutcome finish(SpanRecorder* trace) override {
    Scope span(trace, "obs.check", "obs");
    RepOutcome out;
    obs::MetricSnapshot merged;
    Digest d;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t tally_gap = 0;
    for (std::size_t s = 0; s < kSoftwireShards; ++s) {
      Shard& shard = shards_[s];
      fabric::ModuleTestbed& tb = *shard.tb;
      const std::uint64_t shard_sent = shard.down.sent + shard.up.sent;
      const std::uint64_t shard_recv = tb.optical_sink().received().packets() +
                                       tb.edge_sink().received().packets();
      // The softwire ledger from the testbed's own tallies.
      const sim::FaultTally& faults = shard.result.optical_fault_tally;
      tally_gap += gap(shard_sent + faults.duplicated,
                       shard_recv + faults.total_dropped() +
                           shard.result.ppe_queue_drops +
                           shard.result.app_drops);
      sent += shard_sent;
      received += shard_recv;
      merged.merge(shard.result.metrics.with_label("shard", std::to_string(s)));
      out.counts.events += tb.sim().executed_events();
      out.counts.flight_hops += tb.sim().flight().recorded();
      d.u64(shard.down.sent);
      d.u64(shard.up.sent);
      d.latency(tb.optical_sink().latency());
      d.latency(tb.edge_sink().latency());
      out.counts.app_batches += shard.app.batches;
      out.counts.app_batched_packets += shard.app.batched_packets;
    }
    LedgerCheck check(merged);
    check.ledger.sent = sent;  // the benchmark's emitters are the sources
    out.packets = sent;
    out.injected = check.injected();
    out.unaccounted = std::max(check.unaccounted(), tally_gap) +
                      gap(received, check.ledger.delivered);
    read_counts(merged, out.counts);
    d.snapshot(merged);
    out.digest = d.value();
    shards_.clear();
    return out;
  }

  Observability observability() const override { return {true, false, false}; }

 private:
  static constexpr std::size_t kFrame = 64;

  struct Shard {
    std::unique_ptr<fabric::ModuleTestbed> tb;
    apps::LwAftr* aftr = nullptr;
    std::unique_ptr<sim::LambdaHandler> edge_in;
    Emitter down;
    Emitter up;
    AppCallStats app;
    SpanAggregate build;
    SpanAggregate inject;
    int run_span = -1;
    fabric::TestbedResult result;
  };

  static constexpr double kRateGbps = 6.0;  // per direction, below 7.73 @64B
  static constexpr std::size_t kChurnStride = 64;
  static constexpr std::size_t kChurnWindows = 8;

  Options options_;
  std::vector<std::vector<Subscriber>> subs_;
  sim::ZipfDistribution zipf_;
  net::Bytes down_frame_;
  net::Bytes up_frame_;
  sim::TimePs duration_ = 0;
  std::vector<Shard> shards_;
};

// --- imix_shards_w4 ----------------------------------------------------------

constexpr std::size_t kParallelShards = 4;
constexpr unsigned kWorkers = 4;

/// fabric::ParallelTestbed, 4 shards on 4 workers, StaticNat, Poisson IMIX
/// at 9 Gb/s per module.
class ImixShards final : public Workload {
 public:
  explicit ImixShards(const Options& o)
      : options_(o), mappings_(nat_mappings_per_slice(o, kParallelShards)) {
    config_.shards = kParallelShards;
    config_.workers = kWorkers;
    config_.base_seed = stream_seed(o, kStreamTraffic);
    fabric::TrafficSpec spec;
    spec.rate = sim::DataRate::gbps(9);
    spec.arrivals = fabric::ArrivalProcess::poisson;
    spec.sizes = fabric::SizeDistribution::imix;
    spec.duration = scaled(20'000'000'000, o);  // 20 ms, ~233 k packets
    config_.prototype.edge_traffic = spec;
  }

  void setup(std::size_t /*part*/, SpanRecorder* trace) override {
    apps_ = build_nat_apps(mappings_, stats_, options_, trace);
    Scope span(trace, "fabric.testbed", "fabric");
    tb_ = std::make_unique<fabric::ParallelTestbed>(config_,
                                                    prebuilt_factory(apps_));
  }

  void run(std::size_t /*part*/, SpanRecorder* trace) override {
    int run_span = -1;
    {
      Scope span(trace, "fabric.run", "fabric");
      run_span = span.id();
      result_ = tb_->run();
    }
    if (trace != nullptr) add_shard_windows(*trace, run_span, stats_, "apps.nat");
  }

  RepOutcome finish(SpanRecorder* trace) override {
    Scope span(trace, "obs.check", "obs");
    RepOutcome out;
    const LedgerCheck check(result_.combined_metrics);
    out.packets = result_.combined.sent.packets();
    out.injected = check.injected();
    out.unaccounted = check.unaccounted() +
                      gap(out.packets, check.ledger.sent) +
                      gap(result_.combined.received.packets(),
                          check.ledger.delivered);
    out.counts.events = result_.combined.events;
    read_counts(result_.combined_metrics, out.counts);
    read_app_stats(stats_, out.counts);
    Digest d;
    d.snapshot(result_.combined_metrics);
    d.u64(result_.combined.sent.bytes());
    d.u64(result_.combined.received.bytes());
    d.latency(result_.combined.latency);
    for (const fabric::ShardOutcome& shard : result_.shards) {
      d.direction(shard.result.edge_to_optical);
    }
    out.digest = d.value();
    tb_.reset();
    result_ = {};
    return out;
  }

  [[nodiscard]] unsigned workers() const override { return kWorkers; }

  Observability observability() const override { return {false, false, true}; }

 private:
  Options options_;
  std::vector<NatMappings> mappings_;
  fabric::ParallelTestbedConfig config_;
  std::vector<AppCallStats> stats_;
  std::vector<ppe::PpeAppPtr> apps_;
  std::unique_ptr<fabric::ParallelTestbed> tb_;
  fabric::ParallelRunResult result_;
};

// --- fabric_ring_w1 ----------------------------------------------------------

/// One worker: on a shared 4-vCPU host, 4 workers made the run's wall time
/// track the host's CPU steal (a preempted vCPU stalls every lockstep
/// round, ~2,000 per repetition), so the figure measured the host, not the
/// simulator. The merged snapshot is bit-identical for any worker count.
constexpr unsigned kFabricWorkers = 1;

/// fabric::FabricParallelTestbed, 4 modules, default ring, Poisson traffic,
/// 2% drop + 1% duplicate on every uplink, 500 ns lookahead: crossbar,
/// cross-world detach_frame handoff and lockstep exchange rounds.
class FabricRing final : public Workload {
 public:
  explicit FabricRing(const Options& o)
      : options_(o), mappings_(nat_mappings_per_slice(o, kParallelShards)) {
    topo_.modules = kParallelShards;
    topo_.base_seed = stream_seed(o, kStreamTraffic);
    topo_.link_delay_ps = 500'000;
    topo_.traffic_prototype.rate = sim::DataRate::gbps(8);
    topo_.traffic_prototype.arrivals = fabric::ArrivalProcess::poisson;
    topo_.traffic_prototype.duration = scaled(1'000'000'000, o);  // 1 ms, ~45 k packets
    sim::FaultSpec faults;
    faults.drop_prob = 0.02;
    faults.duplicate_prob = 0.01;
    topo_.link_faults = faults;
  }

  void setup(std::size_t /*part*/, SpanRecorder* trace) override {
    apps_ = build_nat_apps(mappings_, stats_, options_, trace);
    Scope span(trace, "fabric.testbed", "fabric");
    tb_ = std::make_unique<fabric::FabricParallelTestbed>(
        topo_, prebuilt_factory(apps_));
  }

  void run(std::size_t /*part*/, SpanRecorder* trace) override {
    // On one worker the modules' app calls interleave on one thread, so
    // they all sit directly under the run span, as in a ModuleTestbed run.
    int run_span = -1;
    {
      Scope span(trace, "sim.run", "sim");
      run_span = span.id();
      result_ = tb_->run(kFabricWorkers);
    }
    if (trace == nullptr) return;
    for (std::size_t s = 0; s < stats_.size(); ++s) {
      trace->add_aggregate(stats_[s].calls, "apps.nat", "apps", run_span,
                           int(s));
    }
  }

  RepOutcome finish(SpanRecorder* trace) override {
    Scope span(trace, "obs.check", "obs");
    RepOutcome out;
    const LedgerCheck check(result_.metrics);
    Digest d;
    d.snapshot(result_.metrics);
    std::uint64_t received = 0;
    for (const fabric::FabricModuleResult& m : result_.modules) {
      out.packets += m.sent_packets;
      received += m.received_packets;
      d.u64(m.sent_packets);
      d.u64(m.received_packets);
      d.real(m.offered_gbps);
      d.real(m.delivered_gbps);
      d.real(m.latency_p50_ns);
      d.real(m.latency_p99_ns);
      d.real(m.latency_max_ns);
    }
    // The registry ledger against the modules' own endpoint tallies.
    out.injected = check.injected();
    out.unaccounted = check.unaccounted() +
                      gap(out.packets, check.ledger.sent) +
                      gap(received, check.ledger.delivered);
    out.digest = d.value();
    out.counts.events = result_.events;
    out.counts.rounds = result_.rounds;
    read_counts(result_.metrics, out.counts);
    read_app_stats(stats_, out.counts);
    tb_.reset();
    result_ = {};
    return out;
  }

  Observability observability() const override { return {false, true, false}; }

 private:
  Options options_;
  std::vector<NatMappings> mappings_;
  fabric::Topology topo_;
  std::vector<AppCallStats> stats_;
  std::vector<ppe::PpeAppPtr> apps_;
  std::unique_ptr<fabric::FabricParallelTestbed> tb_;
  fabric::FabricRunResult result_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options) {
  if (name == "nat64_seq") return std::make_unique<NatSeq>(options);
  if (name == "softwire_churn") return std::make_unique<SoftwireChurn>(options);
  if (name == "imix_shards_w4") return std::make_unique<ImixShards>(options);
  if (name == "fabric_ring_w1") return std::make_unique<FabricRing>(options);
  return nullptr;
}

}  // namespace perfbench
