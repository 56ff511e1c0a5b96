#include "fabric/fabric_testbed.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "apps/nat.hpp"
#include "fabric/crossbar.hpp"
#include "sim/link.hpp"
#include "sim/parallel.hpp"

namespace flexsfp::fabric {

FabricLedger FabricLedger::from_snapshot(const obs::MetricSnapshot& snapshot) {
  FabricLedger ledger;
  ledger.sent = snapshot.sum("gen.emitted.packets");
  ledger.delivered = snapshot.sum("sink.received.packets");
  ledger.duplicated = snapshot.sum("fault.duplicated");
  ledger.fault_dropped = snapshot.sum("fault.dropped") +
                         snapshot.sum("fault.target_dropped") +
                         snapshot.sum("fault.flap_dropped");
  ledger.queue_drops = snapshot.sum("server.queue_drops");
  ledger.dark_drops = snapshot.sum("module.dark_drops");
  ledger.app_drops = snapshot.sum("engine.app_drops");
  ledger.control_punts = snapshot.sum("shell.control_punts");
  ledger.crosspoint_drops = snapshot.sum("fabric.xbar.crosspoint_drops");
  ledger.unrouted = snapshot.sum("fabric.xbar.unrouted");
  return ledger;
}

namespace {

/// One module with its edge-side endpoints and its uplink toward the
/// fabric. The packet chain: edge gen → module (edge port) → PPE → optical
/// egress → [link fault injector] → uplink serialization at link rate →
/// to_fabric, called at send time with the serialization end. Propagation
/// delay is NOT applied here — it is exactly the piece that crosses worlds,
/// so the engine owns it.
struct ModuleRig {
  ModuleRig(sim::Simulation& sim, const Topology& topo, std::size_t index,
            ppe::PpeAppPtr app, sim::Link::DepartFn to_fabric) {
    sfp::FlexSfpConfig module_config = topo.module_prototype;
    module_config.boot_at_start = false;
    module = std::make_unique<sfp::FlexSfpModule>(sim, std::move(app),
                                                  module_config);
    edge_sink = std::make_unique<Sink>(sim);
    module->set_egress_handler(sfp::FlexSfpModule::edge_port,
                               [this](net::PacketPtr packet) {
                                 edge_sink->handle_packet(std::move(packet));
                               });

    uplink = std::make_unique<sim::Link>(sim, topo.link_rate,
                                         std::move(to_fabric), "fabric_uplink");
    if (topo.link_faults) {
      link_faults = std::make_unique<sim::FaultInjector>(
          sim, topo.link_fault_for(index), *uplink, "fault.fabric_link");
    }
    sim::PacketHandler* uplink_entry =
        link_faults ? static_cast<sim::PacketHandler*>(link_faults.get())
                    : uplink.get();
    module->set_egress_handler(sfp::FlexSfpModule::optical_port,
                               [uplink_entry](net::PacketPtr packet) {
                                 uplink_entry->handle_packet(std::move(packet));
                               });

    edge_in = std::make_unique<sim::LambdaHandler>([this](net::PacketPtr p) {
      module->inject(sfp::FlexSfpModule::edge_port, std::move(p));
    });
    gen = std::make_unique<TrafficGen>(sim, topo.traffic_for(index), *edge_in);
  }

  std::unique_ptr<sfp::FlexSfpModule> module;
  std::unique_ptr<Sink> edge_sink;
  std::unique_ptr<sim::LambdaHandler> edge_in;
  std::unique_ptr<sim::Link> uplink;
  std::unique_ptr<sim::FaultInjector> link_faults;  // null when unfaulted
  std::unique_ptr<TrafficGen> gen;
};

AppFactory default_factory(AppFactory factory) {
  if (factory) return factory;
  return [] { return std::make_unique<apps::StaticNat>(); };
}

FabricModuleResult module_result(const ModuleRig& rig,
                                 sim::TimePs duration) {
  FabricModuleResult out;
  out.sent_packets = rig.gen->emitted().packets();
  out.received_packets = rig.edge_sink->received().packets();
  out.offered_gbps = rig.gen->emitted().bits_per_second(duration) * 1e-9;
  out.delivered_gbps =
      rig.edge_sink->received().bits_per_second(duration) * 1e-9;
  out.latency_p50_ns = sim::to_nanos(rig.edge_sink->latency().percentile(50));
  out.latency_p99_ns = sim::to_nanos(rig.edge_sink->latency().percentile(99));
  out.latency_max_ns = sim::to_nanos(rig.edge_sink->latency().max());
  return out;
}

/// One packet crossing worlds: its metadata, and where its bytes sit in the
/// outbox arena. `depart` is when the source finished serializing it; it
/// arrives one lookahead later.
struct Crossing {
  sim::TimePs depart = 0;
  net::PacketId id = 0;
  std::int64_t ingress_time_ps = 0;
  std::int64_t created_time_ps = 0;
  std::uint64_t user_metadata = 0;
  std::size_t offset = 0;
  std::uint32_t size = 0;
  int ingress_port = 0;
};

/// The crossings of one (source world, destination world) edge in capture
/// order, which is departure order: every edge is fed by one FIFO
/// transmitter (a module uplink or a crossbar output). Only the source
/// world's thread captures; the barrier drains. Records and arena keep their
/// capacity across rounds, so steady-state capture does not allocate.
/// Capture closures hold its address, so it is neither copied nor moved.
struct Outbox {
  Outbox() = default;
  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  int port = 0;  // crossbar input, or the module's optical port
  std::vector<Crossing> records;
  net::Bytes arena;
  std::size_t head = 0;  // first record not yet delivered

  void capture(sim::TimePs depart, const net::Packet& packet) {
    records.push_back({depart, packet.id(), packet.ingress_time_ps(),
                       packet.created_time_ps(), packet.user_metadata(),
                       arena.size(), static_cast<std::uint32_t>(packet.size()),
                       packet.ingress_port()});
    arena.insert(arena.end(), packet.data().begin(), packet.data().end());
  }

  /// The head crossing as a packet from the destination's pool.
  [[nodiscard]] net::PacketPtr materialize(net::PacketPool& pool) const {
    const Crossing& c = records[head];
    net::PacketPtr packet = pool.make();
    const auto bytes = arena.begin() + static_cast<std::ptrdiff_t>(c.offset);
    packet->data().assign(bytes, bytes + c.size);
    packet->set_id(c.id);
    packet->set_ingress_time_ps(c.ingress_time_ps);
    packet->set_created_time_ps(c.created_time_ps);
    packet->set_ingress_port(c.ingress_port);
    packet->set_user_metadata(c.user_metadata);
    return packet;
  }

  /// Earliest departure still waiting, or time_horizon.
  [[nodiscard]] sim::TimePs pending_depart() const {
    return head < records.size() ? records[head].depart : sim::time_horizon;
  }

  /// Forget delivered crossings; the undelivered tail moves to the front.
  void compact() {
    if (head == records.size()) {
      records.clear();
      arena.clear();
    } else if (head > 0) {
      const std::size_t base = records[head].offset;
      arena.erase(arena.begin(),
                  arena.begin() + static_cast<std::ptrdiff_t>(base));
      records.erase(records.begin(),
                    records.begin() + static_cast<std::ptrdiff_t>(head));
      for (Crossing& c : records) c.offset -= base;
    }
    head = 0;
  }
};

struct World {
  sim::Simulation sim;
  std::unique_ptr<ModuleRig> rig;  // module worlds
  std::unique_ptr<Crossbar> xbar;          // the crossbar world
  std::vector<Outbox*> inbound;            // in source-world order
};

/// A merge cursor: (next arrival, rank of the inbound edge it comes from).
/// Pairs compare lexicographically, which is exactly the tie-break order.
using Head = std::pair<sim::TimePs, std::size_t>;

}  // namespace

FabricParallelTestbed::FabricParallelTestbed(Topology topology,
                                             AppFactory app_factory)
    : topo_(std::move(topology)),
      app_factory_(default_factory(std::move(app_factory))) {
  topo_.validate();
}

FabricRunResult FabricParallelTestbed::run(unsigned workers) {
  const std::size_t modules = topo_.modules;
  const sim::TimePs delay = topo_.link_delay_ps;

  std::vector<std::unique_ptr<World>> worlds;
  worlds.reserve(modules + 1);
  for (std::size_t i = 0; i <= modules; ++i) {
    worlds.push_back(std::make_unique<World>());
    worlds.back()->sim.flight().configure(topo_.flight);
  }
  // Edge i carries module i's uplink to crossbar input i; edge modules + j
  // carries crossbar output j down to module j.
  std::vector<Outbox> edges(2 * modules);
  World& xw = *worlds[modules];  // the crossbar world

  for (std::size_t i = 0; i < modules; ++i) {
    World& world = *worlds[i];
    Outbox& up = edges[i];
    up.port = static_cast<int>(i);
    xw.inbound.push_back(&up);
    world.rig = std::make_unique<ModuleRig>(
        world.sim, topo_, i, app_factory_(),
        [&up](sim::TimePs depart, net::PacketPtr p) { up.capture(depart, *p); });
  }
  {
    CrossbarConfig xbar_config;
    xbar_config.ports = modules;
    xbar_config.crosspoint_capacity = topo_.crosspoint_capacity;
    xbar_config.port_rate = topo_.link_rate;
    xw.xbar = std::make_unique<Crossbar>(
        xw.sim, xbar_config,
        [this](const net::Packet& packet) { return topo_.route(packet); });
    for (std::size_t j = 0; j < modules; ++j) {
      Outbox& down = edges[modules + j];
      down.port = sfp::FlexSfpModule::optical_port;
      worlds[j]->inbound.push_back(&down);
      xw.xbar->set_output_handler(j, [&xw, &down](net::PacketPtr p) {
        // Pin the far module's egress to its edge side: downlink frames must
        // exit toward the host even if a shell's opposite-side rule would
        // disagree (and the hint counter proves the fabric path was taken).
        sfp::set_egress_hint(*p, sfp::FlexSfpModule::edge_port);
        down.capture(xw.sim.now(), *p);
      });
    }
  }

  for (std::size_t i = 0; i < modules; ++i) worlds[i]->rig->gen->start();

  // The conservative window bound: every world may run strictly past the
  // globally earliest pending event plus the link lookahead, because no
  // packet captured before the bound can arrive anywhere earlier than it.
  // A captured crossing that has not yet departed counts as its source's
  // pending event: it stands for the uplink transmission still under way.
  const auto compute_horizon = [&worlds, &edges, delay]() -> sim::TimePs {
    sim::TimePs min_next = sim::time_horizon;
    for (auto& world : worlds) {
      min_next = std::min(min_next, world->sim.next_event_time());
    }
    for (const Outbox& edge : edges) {
      min_next = std::min(min_next, edge.pending_depart());
    }
    if (min_next == sim::time_horizon) return sim::time_horizon;
    return sim::saturating_add(min_next, delay);
  };

  // Deliver into `dw` every inbound crossing that departed before the
  // window bound, as a k-way merge of the per-edge runs on (arrival, source
  // world, capture order). A crossing departing later stays in its outbox
  // until the window that contains its departure has run, so each one is
  // delivered at the same barrier whatever the capture time.
  std::vector<Head> heads;
  heads.reserve(modules);
  constexpr std::greater<Head> later;
  const auto deliver = [&heads, later, delay](World& dw, sim::TimePs horizon) {
    heads.clear();
    for (std::size_t rank = 0; rank < dw.inbound.size(); ++rank) {
      const sim::TimePs depart = dw.inbound[rank]->pending_depart();
      if (depart < horizon) {
        heads.emplace_back(sim::saturating_add(depart, delay), rank);
      }
    }
    std::make_heap(heads.begin(), heads.end(), later);
    while (!heads.empty()) {
      std::pop_heap(heads.begin(), heads.end(), later);
      const auto [arrival, rank] = heads.back();
      heads.pop_back();
      if (arrival < dw.sim.now()) {
        throw std::logic_error(
            "conservative-sync violation: boundary packet arrives before the "
            "window start");
      }
      Outbox& box = *dw.inbound[rank];
      // Workers are parked at the barrier, so touching the destination
      // pool here is single-threaded.
      net::PacketPtr packet = box.materialize(dw.sim.packet_pool());
      const sim::TimePs depart = box.records[box.head++].depart;
      if (dw.xbar) {
        dw.sim.schedule_at(arrival,
                           [xbar = dw.xbar.get(), in = box.port,
                            packet = std::move(packet)]() mutable {
                             xbar->ingress(static_cast<std::size_t>(in),
                                           std::move(packet));
                           });
      } else {
        dw.sim.schedule_at(arrival,
                           [module = dw.rig->module.get(), port = box.port,
                            packet = std::move(packet)]() mutable {
                             module->inject(port, std::move(packet));
                           });
      }
      const sim::TimePs following = box.pending_depart();
      if (following < horizon) {
        if (following < depart) {
          throw std::logic_error(
              "conservative-sync violation: outbox departures out of order");
        }
        heads.emplace_back(sim::saturating_add(following, delay), rank);
        std::push_heap(heads.begin(), heads.end(), later);
      }
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t rounds = 0;
  sim::TimePs horizon = compute_horizon();
  if (horizon != sim::time_horizon) {
    sim::run_lockstep_rounds(
        worlds.size(), workers,
        [&worlds, &horizon](std::size_t i) {
          (void)worlds[i]->sim.run_before(horizon);
        },
        [&]() -> bool {
          ++rounds;
          for (auto& world : worlds) deliver(*world, horizon);
          for (Outbox& edge : edges) edge.compact();
          horizon = compute_horizon();
          return horizon != sim::time_horizon;
        });
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  FabricRunResult out;
  out.duration =
      topo_.traffic_prototype.start + topo_.traffic_prototype.duration;
  for (std::size_t i = 0; i < modules; ++i) {
    out.modules.push_back(module_result(*worlds[i]->rig, out.duration));
    out.events += worlds[i]->sim.executed_events();
  }
  out.events += xw.sim.executed_events();
  // Merge per-world snapshots in world order with a disambiguating label —
  // the same discipline (and the same resulting object for workers = 1) as
  // every other worker count, which is the property the tests assert.
  for (std::size_t i = 0; i < modules; ++i) {
    out.metrics.merge(worlds[i]->sim.metrics().snapshot().with_label(
        "shard", std::to_string(i)));
  }
  out.metrics.merge(xw.sim.metrics().snapshot().with_label("shard", "xbar"));
  out.ledger = FabricLedger::from_snapshot(out.metrics);
  out.rounds = rounds;
  out.workers_used = sim::resolve_threads(worlds.size(), workers);
  out.wall_seconds = wall_seconds;
  return out;
}

}  // namespace flexsfp::fabric
