// The benchmark's unit checks, run by `python3 perfbench/run.py --selftest`:
// self-time arithmetic on a synthetic span tree, and the TracedApp
// decorator forwarding every PpeApp virtual to the app it wraps.
#include <cstdio>
#include <string>

#include "apps/nat.hpp"
#include "apps/softwire.hpp"
#include "net/builder.hpp"
#include "spans.hpp"
#include "traced_app.hpp"

namespace {

using namespace perfbench;
using namespace flexsfp;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

Span node(const char* name, const char* layer, int parent, std::int64_t busy,
          std::uint64_t calls = 1) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = parent;
  s.busy_ns = busy;
  s.end_ns = busy;
  s.calls = calls;
  return s;
}

void span_arithmetic() {
  // rep(100) -> setup(20) -> table(15)
  //          -> run(70)   -> sim.run(60) -> app aggregate(25 over 5 calls)
  //                                      -> emit(10)
  //          (+ an unrelated root that must not leak into rep's table)
  std::vector<Span> spans = {
      node("rep", "bench", -1, 100),   node("setup", "bench", 0, 20),
      node("table", "apps", 1, 15),    node("run", "bench", 0, 70),
      node("sim.run", "sim", 3, 60),   node("app", "apps", 4, 25, 5),
      node("emit", "net", 4, 10),      node("other", "sim", -1, 999),
      node("other.app", "apps", 7, 1),
  };
  const std::vector<std::int64_t> self = self_times(spans);
  const std::vector<std::int64_t> want = {10, 5, 15, 10, 25, 25, 10, 998, 1};
  check(self == want, "self = busy - children's busy on every node");
  check(self_times_consistent(spans), "consistent tree reports consistent");

  std::int64_t sum = 0;
  std::int64_t apps = 0;
  std::uint64_t app_calls = 0;
  for (const LayerRow& row : layer_table(spans, 0)) {
    sum += row.self_ns;
    if (row.layer == "apps") {
      apps += row.self_ns;
      app_calls += row.calls;
    }
  }
  check(sum == spans[0].busy_ns, "layer self times add up to the root span");
  check(apps == 40 && app_calls == 6,
        "layer table sums the subtree only (apps 15 + 25 ns, 1 + 5 calls)");

  spans.push_back(node("too-long", "sim", 6, 11));
  check(!self_times_consistent(spans), "a child longer than its parent is flagged");

  SpanRecorder recorder;
  {
    Scope outer(&recorder, "outer", "bench");
    Scope inner(&recorder, "inner", "sim");
    check(recorder.current() == inner.id(), "recorder tracks the open span");
  }
  check(recorder.spans().size() == 2 && recorder.spans()[1].parent == 0 &&
            recorder.current() == -1,
        "nested scopes record parent links and close");
  check(recorder.add_aggregate(SpanAggregate{}, "x", "apps", 0, 0) == -1,
        "an empty aggregate adds no node");
  SpanAggregate agg;
  agg.record(100, 130);
  agg.record(200, 210);
  const int id = recorder.add_aggregate(agg, "agg", "apps", 0, 0);
  const Span& a = recorder.spans().at(std::size_t(id));
  check(a.busy_ns == 40 && a.calls == 2 && a.start_ns == 100 && a.end_ns == 210,
        "aggregate keeps summed busy time, call count and window");
  const std::string json = recorder.chrome_trace_json();
  check(json.find("\"traceEvents\":[") != std::string::npos &&
            json.find("\"ph\":\"X\"") != std::string::npos,
        "Chrome trace-event JSON is written");
}

bool same_profile(const ppe::StageProfile& a, const ppe::StageProfile& b) {
  if (a.stage != b.stage || a.reads != b.reads || a.writes != b.writes ||
      a.produces != b.produces || a.consumes != b.consumes ||
      a.match_action_cycles != b.match_action_cycles ||
      a.pipeline_depth_cycles != b.pipeline_depth_cycles ||
      a.tables.size() != b.tables.size() ||
      a.counter_banks.size() != b.counter_banks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tables.size(); ++i) {
    if (a.tables[i].name != b.tables[i].name ||
        a.tables[i].capacity != b.tables[i].capacity) {
      return false;
    }
  }
  return true;
}

/// Two identically configured apps, one wrapped: every virtual must agree.
void decorator_forwards(const std::string& label, ppe::PpeAppPtr plain_app,
                        ppe::PpeAppPtr inner_app, net::Bytes frame,
                        std::uint64_t table_key, std::uint64_t table_value) {
  AppCallStats stats;
  ppe::PpeApp* inner = inner_app.get();
  TracedApp traced(std::move(inner_app), stats);
  ppe::PpeApp& plain = *plain_app;
  const std::string p = label + ": ";

  check(traced.name() == plain.name(), p + "name");
  const hw::DatapathConfig datapath{};
  const hw::ResourceUsage ru_a = traced.resource_usage(datapath);
  const hw::ResourceUsage ru_b = plain.resource_usage(datapath);
  check(ru_a.luts == ru_b.luts && ru_a.ffs == ru_b.ffs &&
            ru_a.usram_blocks == ru_b.usram_blocks &&
            ru_a.lsram_blocks == ru_b.lsram_blocks,
        p + "resource_usage");
  check(traced.pipeline_latency_cycles() == plain.pipeline_latency_cycles(),
        p + "pipeline_latency_cycles");
  check(same_profile(traced.profile(), plain.profile()), p + "profile");
  const auto sp_a = traced.stage_profiles();
  const auto sp_b = plain.stage_profiles();
  check(sp_a.size() == sp_b.size() && same_profile(sp_a[0], sp_b[0]),
        p + "stage_profiles");
  const ppe::PpeApp* visited = nullptr;
  traced.visit_stages([&](const ppe::PpeApp& app) { visited = &app; });
  check(visited == inner, p + "visit_stages reaches the wrapped app");
  check(traced.find_stage(plain.name()) == inner,
        p + "find_stage reaches the wrapped app");
  check(traced.serialize_config() == plain.serialize_config(),
        p + "serialize_config");
  check(traced.table_names() == plain.table_names(), p + "table_names");
  const std::string table = plain.table_names().front();
  check(traced.table_insert(table, table_key, table_value) ==
            plain.table_insert(table, table_key, table_value),
        p + "table_insert");
  check(traced.table_lookup(table, table_key) ==
                plain.table_lookup(table, table_key) &&
            inner->table_lookup(table, table_key) ==
                plain.table_lookup(table, table_key),
        p + "table_lookup (and the insert reached the wrapped app)");
  check(traced.table_erase(table, table_key) == plain.table_erase(table, table_key),
        p + "table_erase");

  net::Packet pa(frame);
  net::Packet pb(frame);
  ppe::PacketContext ca(pa);
  ppe::PacketContext cb(pb);
  const ppe::Verdict va = traced.process(ca);
  const ppe::Verdict vb = plain.process(cb);
  check(va == vb && pa.data() == pb.data(), p + "process");
  net::Packet qa(frame);
  net::Packet qb(frame);
  ppe::PacketContext da(qa);
  ppe::PacketContext db(qb);
  ppe::PacketContext* ctx_a[] = {&da};
  ppe::PacketContext* ctx_b[] = {&db};
  ppe::Verdict out_a[1]{};
  ppe::Verdict out_b[1]{};
  traced.process_batch(ctx_a, out_a, 1);
  plain.process_batch(ctx_b, out_b, 1);
  check(out_a[0] == out_b[0] && qa.data() == qb.data(), p + "process_batch");
  check(traced.counters() == plain.counters(), p + "counters");
  check(stats.calls.calls == 2 && stats.batches == 1 &&
            stats.batched_packets == 1,
        p + "decorator counted one process and one batch of one");
}

void decorator() {
  const auto nat = [] {
    auto app = std::make_unique<apps::StaticNat>();
    (void)app->add_mapping(net::Ipv4Address::from_octets(10, 0, 0, 1),
                           net::Ipv4Address::from_octets(100, 64, 0, 1));
    return app;
  };
  net::PacketBuilder builder;
  builder.ethernet(net::MacAddress::from_u64(2), net::MacAddress::from_u64(1))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(192, 168, 0, 1), net::IpProto::udp)
      .udp(1234, 80)
      .min_frame_size(64);
  decorator_forwards("nat", nat(), nat(), builder.build(), 0x0a000002,
                     0x64400002);

  const auto aftr = [] {
    apps::LwAftrConfig config;
    config.aftr_addr = net::Ipv6Address::from_u64_pair(0x20010db8ffff0000ull, 1);
    config.icmp_src = net::Ipv4Address::from_octets(192, 0, 2, 254);
    config.binding_capacity = 64;
    auto app = std::make_unique<apps::LwAftr>(config);
    (void)app->add_binding(net::Ipv4Address::from_octets(198, 18, 0, 0), 0,
                           apps::PsidParams{6, 6},
                           net::Ipv6Address::from_u64_pair(0x20010db800000000ull, 1));
    return app;
  };
  builder.reset();
  builder.ethernet(net::MacAddress::from_u64(2), net::MacAddress::from_u64(1))
      .ipv4(net::Ipv4Address::from_octets(192, 0, 2, 1),
            net::Ipv4Address::from_octets(198, 18, 0, 0), net::IpProto::udp)
      .udp(9999, apps::port_for_index(apps::PsidParams{6, 6}, 0, 0))
      .min_frame_size(64);
  decorator_forwards("lwaftr", aftr(), aftr(), builder.build(), 7, 7);
}

}  // namespace

int main() {
  span_arithmetic();
  decorator();
  std::printf("%s (%d failed)\n", failures == 0 ? "all passed" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
