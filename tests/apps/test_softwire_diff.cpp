// Differential suite for the lw4o6 datapath.
//
// Two oracles keep LwAftr/LwB4 honest:
//   * a naive byte-level reference that assembles the expected tunnel frame
//     from scratch (no shared code with the in-place edit primitives), and
//   * the AFTR<->B4 round trip: encap at one end, decap at the other must be
//     a byte-exact identity for every tunnel-eligible shape.
// A third section replays the same shape zoo through PpeApp's default
// process_batch loop in bursts of {1, 8, 16} and demands verdict/byte/
// counter equality with per-packet process() calls.
#include <map>

#include <gtest/gtest.h>

#include "app_test_util.hpp"
#include "apps/softwire.hpp"
#include "net/builder.hpp"
#include "net/parser.hpp"

namespace flexsfp::apps {
namespace {

using testing::ip;
using testing::mac;
using testing::run;
using testing::tcp_packet;
using testing::udp_packet;

constexpr PsidParams kParams{6, 6};

net::Ipv6Address aftr() { return *net::Ipv6Address::parse("2001:db8:ffff::1"); }
net::Ipv6Address b4(std::uint64_t low) {
  return net::Ipv6Address::from_u64_pair(0x20010db8'00000000ull, low);
}
net::Ipv4Address shared_v4() { return ip(198, 51, 100, 1); }

LwAftrConfig aftr_config(SoftwireMissAction miss = SoftwireMissAction::drop) {
  LwAftrConfig config;
  config.aftr_addr = aftr();
  config.icmp_src = ip(192, 0, 2, 1);
  config.binding_capacity = 256;
  config.miss_action = miss;
  return config;
}

void provision(LwAftr& app) {
  EXPECT_TRUE(app.add_binding(shared_v4(), 0, kParams, b4(1)));
  EXPECT_TRUE(app.add_binding(shared_v4(), 1, kParams, b4(2)));
}

LwB4Config b4_config(std::uint16_t psid) {
  LwB4Config config;
  config.ipv4 = shared_v4();
  config.psid = psid;
  config.params = kParams;
  config.b4_addr = b4(1 + psid);
  config.aftr_addr = aftr();
  return config;
}

// --- naive reference -------------------------------------------------------

/// Assemble the expected tunnel frame by hand: copy L2 as-is, write a fresh
/// IPv6 header field by field, append the original IP packet. Shares no
/// code with net::encapsulate_ipv4_in_ipv6 (which edits in place).
net::Bytes naive_encap(const net::Bytes& frame, const net::Ipv6Address& src,
                       const net::Ipv6Address& dst) {
  const auto parsed = net::parse_packet(frame);
  const std::size_t l3 = parsed.outer.l3_offset;
  net::Bytes out(frame.begin(), frame.begin() + std::ptrdiff_t(l3));
  out[l3 - 2] = 0x86;  // EtherType -> IPv6
  out[l3 - 1] = 0xdd;
  net::Bytes v6(net::Ipv6Header::size(), 0);
  v6[0] = 0x60;  // version
  v6[4] = std::uint8_t((frame.size() - l3) >> 8);  // payload length
  v6[5] = std::uint8_t((frame.size() - l3) & 0xff);
  v6[6] = 4;   // next-header: IPv4
  v6[7] = 64;  // hop limit
  const auto src_o = src.octets();
  const auto dst_o = dst.octets();
  std::copy(src_o.begin(), src_o.end(), v6.begin() + 8);
  std::copy(dst_o.begin(), dst_o.end(), v6.begin() + 24);
  out.insert(out.end(), v6.begin(), v6.end());
  out.insert(out.end(), frame.begin() + std::ptrdiff_t(l3), frame.end());
  return out;
}

/// Tunnel-eligible downstream shapes: internet -> subscriber (psid 0 unless
/// noted), each must encap at the AFTR and decap back to the identical
/// frame at the B4.
std::vector<std::pair<std::string, net::Packet>> downstream_shapes() {
  const std::uint16_t p0 = port_for_index(kParams, 0, 0);
  std::vector<std::pair<std::string, net::Packet>> shapes;
  shapes.emplace_back(
      "udp", udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999, p0));
  shapes.emplace_back(
      "tcp", tcp_packet(ip(192, 0, 2, 50), shared_v4(), 443, p0));
  shapes.emplace_back("tcp-syn",
                      tcp_packet(ip(192, 0, 2, 50), shared_v4(), 443, p0,
                                 net::TcpHeader::flag_syn));
  shapes.emplace_back("udp-big", udp_packet(ip(192, 0, 2, 50), shared_v4(),
                                            9999, p0, 900));
  shapes.emplace_back("udp-runt-payload",
                      udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999, p0, 0));
  shapes.emplace_back(
      "icmp-echo",
      net::PacketBuilder()
          .ethernet(mac(2), mac(1))
          .ipv4(ip(192, 0, 2, 50), shared_v4(), net::IpProto::icmp)
          .icmp_echo(p0, 7)  // identifier carries the A+P port
          .payload_size(24)
          .build_packet());
  shapes.emplace_back(
      "vlan",
      net::PacketBuilder()
          .ethernet(mac(2), mac(1))
          .vlan(42)
          .ipv4(ip(192, 0, 2, 50), shared_v4(), net::IpProto::udp)
          .udp(9999, p0)
          .payload_size(32)
          .build_packet());
  {
    net::Ipv4Header with_options;
    with_options.ihl = 6;  // 4 option bytes (zero-filled)
    with_options.src = ip(192, 0, 2, 50);
    with_options.dst = shared_v4();
    with_options.protocol = std::uint8_t(net::IpProto::udp);
    shapes.emplace_back("ipv4-options",
                        net::PacketBuilder()
                            .ethernet(mac(2), mac(1))
                            .ipv4_header(with_options)
                            .udp(9999, p0)
                            .payload_size(32)
                            .build_packet());
  }
  shapes.emplace_back("psid1", udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999,
                                          port_for_index(kParams, 1, 17)));
  shapes.emplace_back("dscp", [&] {
    net::Ipv4Header marked;
    marked.dscp = 46;
    marked.ttl = 3;
    marked.src = ip(192, 0, 2, 50);
    marked.dst = shared_v4();
    marked.protocol = std::uint8_t(net::IpProto::udp);
    return net::PacketBuilder()
        .ethernet(mac(2), mac(1))
        .ipv4_header(marked)
        .udp(9999, p0)
        .payload_size(32)
        .build_packet();
  }());
  return shapes;
}

TEST(SoftwireDiff, EncapMatchesNaiveReference) {
  for (auto& [label, original] : downstream_shapes()) {
    LwAftr app(aftr_config());
    provision(app);
    const std::uint16_t psid = label == "psid1" ? 1 : 0;
    const net::Bytes expected =
        naive_encap(original.data(), aftr(), b4(1 + psid));
    net::Packet packet = original;
    EXPECT_EQ(run(app, packet), ppe::Verdict::forward) << label;
    EXPECT_EQ(packet.data(), expected) << label;
  }
}

TEST(SoftwireDiff, AftrEncapThenB4DecapIsIdentity) {
  for (auto& [label, original] : downstream_shapes()) {
    LwAftr aftr_app(aftr_config());
    provision(aftr_app);
    LwB4 b4_app(b4_config(label == "psid1" ? 1 : 0));
    net::Packet packet = original;
    ASSERT_EQ(run(aftr_app, packet), ppe::Verdict::forward) << label;
    ASSERT_EQ(run(b4_app, packet), ppe::Verdict::forward) << label;
    EXPECT_EQ(packet.data(), original.data()) << label;
  }
}

TEST(SoftwireDiff, B4EncapThenAftrDecapIsIdentity) {
  // Upstream mirror: subscriber -> internet through the B4, decapped at the
  // AFTR. Source ports are the subscriber's; reuse the downstream shape zoo
  // with src/dst roles swapped where the shape allows it.
  const std::uint16_t p0 = port_for_index(kParams, 0, 0);
  std::vector<std::pair<std::string, net::Packet>> shapes;
  shapes.emplace_back(
      "udp", udp_packet(shared_v4(), ip(192, 0, 2, 50), p0, 9999));
  shapes.emplace_back("tcp",
                      tcp_packet(shared_v4(), ip(192, 0, 2, 50), p0, 443));
  shapes.emplace_back(
      "icmp-echo", net::PacketBuilder()
                       .ethernet(mac(2), mac(1))
                       .ipv4(shared_v4(), ip(192, 0, 2, 50), net::IpProto::icmp)
                       .icmp_echo(p0, 3)
                       .payload_size(24)
                       .build_packet());
  shapes.emplace_back("udp-big", udp_packet(shared_v4(), ip(192, 0, 2, 50), p0,
                                            9999, 900));
  for (auto& [label, original] : shapes) {
    LwB4 b4_app(b4_config(0));
    LwAftr aftr_app(aftr_config());
    provision(aftr_app);
    net::Packet packet = original;
    ASSERT_EQ(run(b4_app, packet), ppe::Verdict::forward) << label;
    // The B4 tunnels toward the AFTR with its own source — exactly what the
    // AFTR's anti-spoof check admits.
    ASSERT_EQ(run(aftr_app, packet), ppe::Verdict::forward) << label;
    EXPECT_EQ(packet.data(), original.data()) << label;
    EXPECT_EQ(aftr_app.stat_packets(LwAftr::stat_decapsulated), 1u) << label;
  }
}

// --- batch-vs-scalar equivalence -------------------------------------------

/// The full shape zoo, including non-tunnel shapes the app must pass
/// through, reject or answer — batch dispatch must agree on all of them.
std::vector<net::Packet> batch_shapes() {
  std::vector<net::Packet> shapes;
  for (auto& [label, packet] : downstream_shapes()) {
    shapes.push_back(std::move(packet));
  }
  // Valid upstream tunnel frame (decap path).
  {
    auto up = udp_packet(shared_v4(), ip(192, 0, 2, 50),
                         port_for_index(kParams, 0, 4), 443);
    EXPECT_TRUE(net::encapsulate_ipv4_in_ipv6(up.data(), b4(1), aftr()));
    shapes.push_back(std::move(up));
  }
  // Spoofed tunnel frame (wrong B4 for the inner source).
  {
    auto spoof = udp_packet(shared_v4(), ip(192, 0, 2, 50),
                            port_for_index(kParams, 1, 4), 443);
    EXPECT_TRUE(net::encapsulate_ipv4_in_ipv6(spoof.data(), b4(1), aftr()));
    shapes.push_back(std::move(spoof));
  }
  // Hairpin: subscriber-to-subscriber through the tunnel.
  {
    auto hairpin =
        udp_packet(shared_v4(), shared_v4(), port_for_index(kParams, 0, 9),
                   port_for_index(kParams, 1, 9));
    EXPECT_TRUE(net::encapsulate_ipv4_in_ipv6(hairpin.data(), b4(1), aftr()));
    shapes.push_back(std::move(hairpin));
  }
  // Unmappable downstream (no such PSID lease).
  shapes.push_back(udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999,
                              port_for_index(kParams, 9, 0)));
  // Excluded system port.
  shapes.push_back(udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999, 80));
  // IPv4 fragment.
  {
    auto frag = udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999,
                           port_for_index(kParams, 0, 0));
    frag.data()[20] |= 0x20;  // more-fragments
    shapes.push_back(std::move(frag));
  }
  // Foreign IPv6 (not for the AFTR).
  shapes.push_back(net::PacketBuilder()
                       .ethernet(mac(2), mac(1), net::EtherType::ipv6)
                       .ipv6(b4(7), *net::Ipv6Address::parse("2001:db8::9"),
                             net::IpProto::udp)
                       .udp(1, 2)
                       .payload_size(16)
                       .build_packet());
  // Non-IP.
  {
    net::Bytes frame(64, 0);
    net::EthernetHeader eth;
    eth.ether_type = std::uint16_t(net::EtherType::arp);
    eth.serialize_to(frame, 0);
    shapes.emplace_back(frame);
  }
  // Truncated runt.
  {
    auto runt = udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999, 2000);
    runt.data().resize(18);
    shapes.push_back(std::move(runt));
  }
  return shapes;
}

void expect_batch_equals_scalar(SoftwireMissAction miss) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{8}, std::size_t{16}}) {
    LwAftr batched(aftr_config(miss));
    provision(batched);
    LwAftr scalar(aftr_config(miss));
    provision(scalar);

    const auto shapes = batch_shapes();
    std::vector<net::Packet> batch_pkts, scalar_pkts;
    for (std::size_t i = 0; i < std::max(n, shapes.size()); ++i) {
      batch_pkts.push_back(shapes[i % shapes.size()]);
      scalar_pkts.push_back(shapes[i % shapes.size()]);
    }
    const std::size_t total = batch_pkts.size();

    std::vector<ppe::PacketContext> ctxs;
    ctxs.reserve(total);
    std::vector<ppe::PacketContext*> ctx_ptrs;
    for (auto& packet : batch_pkts) {
      ctxs.emplace_back(packet);
      ctx_ptrs.push_back(&ctxs.back());
    }
    std::vector<ppe::Verdict> verdicts(total, ppe::Verdict::drop);
    // Feed the zoo through in bursts of n, like the engine would.
    for (std::size_t at = 0; at < total; at += n) {
      batched.process_batch(ctx_ptrs.data() + at, verdicts.data() + at,
                            std::min(n, total - at));
    }

    for (std::size_t i = 0; i < total; ++i) {
      EXPECT_EQ(verdicts[i], run(scalar, scalar_pkts[i]))
          << "packet " << i << " width " << n;
      EXPECT_EQ(batch_pkts[i].data(), scalar_pkts[i].data())
          << "packet " << i << " width " << n;
    }
    const auto a = batched.counters();
    const auto b = scalar.counters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].packets, b[i].packets) << "counter " << i << " width " << n;
      EXPECT_EQ(a[i].bytes, b[i].bytes) << "counter " << i << " width " << n;
    }
  }
}

TEST(SoftwireBatch, MatchesScalarAcrossShapesDropMiss) {
  expect_batch_equals_scalar(SoftwireMissAction::drop);
}

TEST(SoftwireBatch, MatchesScalarAcrossShapesIcmpMiss) {
  expect_batch_equals_scalar(SoftwireMissAction::icmp_reject);
}

TEST(SoftwireBatch, MatchesScalarAcrossShapesPuntMiss) {
  expect_batch_equals_scalar(SoftwireMissAction::punt);
}

}  // namespace
}  // namespace flexsfp::apps
