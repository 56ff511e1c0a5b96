#include "apps/nat.hpp"

#include <gtest/gtest.h>

#include "app_test_util.hpp"
#include "sim/random.hpp"

namespace flexsfp::apps {
namespace {

using testing::ip;
using testing::run;
using testing::udp_packet;

TEST(StaticNat, TranslatesMappedSourceAddress) {
  StaticNat nat;
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 5), ip(203, 0, 113, 5)));

  auto packet = udp_packet(ip(10, 0, 0, 5), ip(8, 8, 8, 8), 1234, 53);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);

  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(parsed.outer.ipv4->src, ip(203, 0, 113, 5));
  EXPECT_EQ(parsed.outer.ipv4->dst, ip(8, 8, 8, 8));
  // Checksums remain valid after the rewrite (line-rate O(1) patching).
  EXPECT_TRUE(net::validate_packet(parsed, packet.data()).empty());
}

TEST(StaticNat, MissForwardsUntranslatedByDefault) {
  StaticNat nat;
  auto packet = udp_packet(ip(10, 0, 0, 99), ip(8, 8, 8, 8), 1, 2);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
  EXPECT_EQ(net::parse_packet(packet).outer.ipv4->src, ip(10, 0, 0, 99));
}

TEST(StaticNat, MissActionDrop) {
  NatConfig config;
  config.miss_action = NatMissAction::drop;
  StaticNat nat(config);
  auto packet = udp_packet(ip(10, 0, 0, 99), ip(8, 8, 8, 8), 1, 2);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::drop);
}

TEST(StaticNat, MissActionPunt) {
  NatConfig config;
  config.miss_action = NatMissAction::punt;
  StaticNat nat(config);
  auto packet = udp_packet(ip(10, 0, 0, 99), ip(8, 8, 8, 8), 1, 2);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::to_control_plane);
}

TEST(StaticNat, DestinationModeRewritesReturnPath) {
  NatConfig config;
  config.direction = NatDirection::destination;
  StaticNat nat(config);
  ASSERT_TRUE(nat.add_mapping(ip(203, 0, 113, 5), ip(10, 0, 0, 5)));
  auto packet = udp_packet(ip(8, 8, 8, 8), ip(203, 0, 113, 5), 53, 1234);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(parsed.outer.ipv4->dst, ip(10, 0, 0, 5));
  EXPECT_TRUE(net::validate_packet(parsed, packet.data()).empty());
}

TEST(StaticNat, NonIpv4PassesThrough) {
  StaticNat nat;
  net::Bytes frame(64, 0);
  net::EthernetHeader eth;
  eth.ether_type = static_cast<std::uint16_t>(net::EtherType::arp);
  eth.serialize_to(frame, 0);
  net::Packet packet{frame};
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
  EXPECT_EQ(packet.data(), frame);
}

TEST(StaticNat, TcpChecksumPatchedToo) {
  StaticNat nat;
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 1), ip(1, 2, 3, 4)));
  auto packet =
      testing::tcp_packet(ip(10, 0, 0, 1), ip(5, 6, 7, 8), 5555, 80);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet);
  EXPECT_TRUE(net::validate_packet(parsed, packet.data()).empty());
}

TEST(StaticNat, PaperTableGeometryHolds32kFlows) {
  StaticNat nat;  // default 32,768 capacity
  sim::Rng rng(4);
  std::size_t added = 0;
  for (std::uint32_t i = 0; i < 30000; ++i) {
    if (nat.add_mapping(net::Ipv4Address{0x0a000000u + i},
                        net::Ipv4Address{0xcb007100u + i})) {
      ++added;
    }
  }
  EXPECT_GT(double(added) / 30000.0, 0.999);  // cuckoo relocation keeps it full
  EXPECT_EQ(nat.table().capacity(), 32768u);
}

TEST(StaticNat, CountersTrackOutcomes) {
  StaticNat nat;
  nat.add_mapping(ip(10, 0, 0, 1), ip(1, 1, 1, 1));
  auto hit = udp_packet(ip(10, 0, 0, 1), ip(9, 9, 9, 9), 1, 2);
  auto miss = udp_packet(ip(10, 0, 0, 2), ip(9, 9, 9, 9), 1, 2);
  (void)run(nat, hit);
  (void)run(nat, miss);
  const auto counters = nat.counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].packets, 1u);  // translated
  EXPECT_EQ(counters[1].packets, 1u);  // missed
}

TEST(StaticNat, ControlPlaneTableOps) {
  StaticNat nat;
  EXPECT_EQ(nat.table_names(), std::vector<std::string>{"nat"});
  EXPECT_TRUE(nat.table_insert("nat", ip(10, 0, 0, 7).value(),
                               ip(7, 7, 7, 7).value()));
  EXPECT_EQ(nat.table_lookup("nat", ip(10, 0, 0, 7).value()),
            ip(7, 7, 7, 7).value());
  EXPECT_TRUE(nat.table_erase("nat", ip(10, 0, 0, 7).value()));
  EXPECT_FALSE(nat.table_lookup("nat", ip(10, 0, 0, 7).value()).has_value());
  EXPECT_FALSE(nat.table_insert("bogus", 1, 2));
  EXPECT_FALSE(nat.table_lookup("bogus", 1).has_value());
}

TEST(StaticNat, RemoveMappingStopsTranslation) {
  StaticNat nat;
  nat.add_mapping(ip(10, 0, 0, 1), ip(1, 1, 1, 1));
  ASSERT_TRUE(nat.remove_mapping(ip(10, 0, 0, 1)));
  auto packet = udp_packet(ip(10, 0, 0, 1), ip(9, 9, 9, 9), 1, 2);
  (void)run(nat, packet);
  EXPECT_EQ(net::parse_packet(packet).outer.ipv4->src, ip(10, 0, 0, 1));
}

// --- fixed-offset fast path vs the parser ----------------------------------
// StaticNat::process classifies plain untagged IPv4 TCP/UDP frames by byte
// peeks at fixed offsets and sends everything else through the parser. The
// reference below shares no code with that shape check: it always runs
// parse_packet, translates through translation_for and edits with the
// rewrite helpers. Verdicts, bytes and counters must agree on every frame.

class ParserReference {
 public:
  explicit ParserReference(const StaticNat& nat) : nat_(nat) {}

  ppe::Verdict process(net::Packet& packet) {
    const auto parsed = net::parse_packet(packet);
    if (!parsed.ok() || !parsed.outer.ipv4) {
      return count(2, packet, ppe::Verdict::forward);
    }
    const bool source = nat_.config().direction == NatDirection::source;
    const auto translated = nat_.translation_for(
        source ? parsed.outer.ipv4->src : parsed.outer.ipv4->dst);
    if (!translated) return count(1, packet, miss_verdict());
    const bool rewritten =
        source ? net::rewrite_ipv4_src(packet.data(), parsed, *translated)
               : net::rewrite_ipv4_dst(packet.data(), parsed, *translated);
    EXPECT_TRUE(rewritten);
    return count(0, packet, ppe::Verdict::forward);
  }

  /// Counters equal to the app's, packets and bytes alike.
  void expect_counters_match() const {
    const auto counters = nat_.counters();
    ASSERT_EQ(counters.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(counters[i].packets, packets_[i]) << "counter " << i;
      EXPECT_EQ(counters[i].bytes, bytes_[i]) << "counter " << i;
    }
  }

 private:
  ppe::Verdict miss_verdict() const {
    switch (nat_.config().miss_action) {
      case NatMissAction::forward: return ppe::Verdict::forward;
      case NatMissAction::drop: return ppe::Verdict::drop;
      case NatMissAction::punt: return ppe::Verdict::to_control_plane;
    }
    return ppe::Verdict::forward;
  }

  ppe::Verdict count(std::size_t index, const net::Packet& packet,
                     ppe::Verdict verdict) {
    ++packets_[index];
    bytes_[index] += packet.size();
    return verdict;
  }

  const StaticNat& nat_;
  std::uint64_t packets_[3]{};
  std::uint64_t bytes_[3]{};
};

/// Mappings that hit, miss and map to themselves in either direction.
void install_mappings(StaticNat& nat) {
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 1), ip(203, 0, 113, 1)));
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 2), ip(203, 0, 113, 2)));
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 3), ip(10, 0, 0, 3)));
  ASSERT_TRUE(nat.add_mapping(ip(8, 8, 8, 8), ip(198, 51, 100, 8)));
  ASSERT_TRUE(nat.add_mapping(ip(9, 9, 9, 9), ip(9, 9, 9, 9)));
}

/// Fast-path frames: plain untagged IPv4 TCP and UDP.
std::vector<net::Packet> fast_shapes() {
  return {testing::tcp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8), 1111, 80),
          udp_packet(ip(10, 0, 0, 2), ip(8, 8, 4, 4), 2222, 53),
          udp_packet(ip(10, 9, 9, 9), ip(8, 8, 8, 8), 7, 7),
          udp_packet(ip(10, 0, 0, 3), ip(9, 9, 9, 9), 3333, 53),
          udp_packet(ip(10, 0, 0, 1), ip(7, 7, 7, 7), 4444, 53, 0),
          // One byte-37 mutation away from the VXLAN port.
          udp_packet(ip(10, 0, 0, 2), ip(8, 8, 8, 8), 5353,
                     net::VxlanHeader::udp_port - 1)};
}

std::vector<net::Packet> shape_zoo() {
  std::vector<net::Packet> shapes = fast_shapes();
  {  // UDP without a checksum: the rewrite must leave it zero
    auto no_csum = udp_packet(ip(10, 0, 0, 2), ip(8, 8, 8, 8), 1212, 53);
    no_csum.data()[40] = 0;
    no_csum.data()[41] = 0;
    shapes.push_back(std::move(no_csum));
  }
  // Shapes the shape check must leave to the parser:
  shapes.push_back(net::PacketBuilder()  // 802.1Q tag shifts the IP header
                       .ethernet(testing::mac(2), testing::mac(1))
                       .vlan(42)
                       .ipv4(ip(10, 0, 0, 1), ip(8, 8, 8, 8), net::IpProto::udp)
                       .udp(4444, 53)
                       .payload_size(16)
                       .build_packet());
  shapes.push_back(udp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8), 5555,
                              net::VxlanHeader::udp_port));  // tunnel port
  {  // IPv4 fragment: L4 fields are payload, not a UDP header
    auto frag = udp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8), 6666, 53);
    frag.data()[20] |= 0x20;  // more-fragments flag
    shapes.push_back(std::move(frag));
  }
  {  // non-IPv4 ethertype
    net::Bytes frame(64, 0);
    net::EthernetHeader eth;
    eth.ether_type = static_cast<std::uint16_t>(net::EtherType::arp);
    eth.serialize_to(frame, 0);
    shapes.emplace_back(frame);
  }
  {  // IPv4 header with options (ihl = 6)
    auto opts = udp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8), 8888, 53);
    opts.data()[14] = 0x46;
    shapes.push_back(std::move(opts));
  }
  {  // truncated mid-IPv4-header
    auto runt = udp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8), 9999, 53);
    runt.data().resize(20);
    shapes.push_back(std::move(runt));
  }
  return shapes;
}

/// Runs every frame through StaticNat and the reference, in both
/// directions, and demands equal verdicts, bytes and counters.
void expect_matches_parser(NatMissAction miss_action,
                           const std::vector<net::Packet>& frames) {
  for (const NatDirection direction :
       {NatDirection::source, NatDirection::destination}) {
    SCOPED_TRACE(direction == NatDirection::source ? "source" : "destination");
    StaticNat nat(NatConfig{.direction = direction, .miss_action = miss_action});
    install_mappings(nat);
    ParserReference reference(nat);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      net::Packet fast = frames[i];
      net::Packet oracle = frames[i];
      const ppe::Verdict expected = reference.process(oracle);
      ASSERT_EQ(run(nat, fast), expected) << "frame " << i;
      ASSERT_EQ(fast.data(), oracle.data()) << "frame " << i;
    }
    reference.expect_counters_match();
  }
}

TEST(StaticNatFastPath, MatchesParserAcrossShapesForwardMiss) {
  expect_matches_parser(NatMissAction::forward, shape_zoo());
}

TEST(StaticNatFastPath, MatchesParserAcrossShapesDropMiss) {
  expect_matches_parser(NatMissAction::drop, shape_zoo());
}

TEST(StaticNatFastPath, MatchesParserAcrossShapesPuntMiss) {
  expect_matches_parser(NatMissAction::punt, shape_zoo());
}

TEST(StaticNatFastPath, MutatedFramesMatchParser) {
  // Every value at every byte the shape check reads (ethertype, version/
  // ihl, flags/fragment offset, protocol, UDP destination port, TCP data
  // offset), truncations just short of each header, and seeded mutations of
  // the header bytes it does not read.
  constexpr std::size_t kCheckedBytes[] = {12, 13, 14, 20, 21, 23, 36, 37, 46};
  std::vector<net::Packet> frames;
  sim::Rng rng(12);
  for (const net::Packet& base : fast_shapes()) {
    for (const std::size_t at : kCheckedBytes) {
      for (unsigned value = 0; value < 256; ++value) {
        net::Packet mutated = base;
        mutated.data()[at] = static_cast<std::uint8_t>(value);
        frames.push_back(std::move(mutated));
      }
    }
    for (const std::size_t size : {33u, 41u, 53u}) {
      net::Packet runt = base;
      runt.data().resize(size);
      frames.push_back(std::move(runt));
    }
    for (int i = 0; i < 256; ++i) {
      net::Packet mutated = base;
      mutated.data()[rng.uniform(0, 53)] =
          static_cast<std::uint8_t>(rng.next_u64());
      frames.push_back(std::move(mutated));
    }
  }
  for (const NatMissAction miss :
       {NatMissAction::forward, NatMissAction::drop, NatMissAction::punt}) {
    expect_matches_parser(miss, frames);
  }
}

TEST(StaticNatFastPath, DestinationModeKeepsChecksumsValid) {
  StaticNat nat(NatConfig{.direction = NatDirection::destination});
  ASSERT_TRUE(nat.add_mapping(ip(203, 0, 113, 5), ip(10, 0, 0, 5)));
  for (int i = 0; i < 8; ++i) {
    auto packet = testing::tcp_packet(
        ip(8, 8, 8, 8), i % 2 == 0 ? ip(203, 0, 113, 5) : ip(203, 0, 113, 6),
        53, static_cast<std::uint16_t>(1000 + i));
    EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
    const auto parsed = net::parse_packet(packet);
    EXPECT_EQ(parsed.outer.ipv4->dst,
              i % 2 == 0 ? ip(10, 0, 0, 5) : ip(203, 0, 113, 6));
    EXPECT_TRUE(net::validate_packet(parsed, packet.data()).empty());
  }
}

TEST(NatConfig, SerializeParseRoundTrip) {
  NatConfig config;
  config.direction = NatDirection::destination;
  config.miss_action = NatMissAction::punt;
  config.table_capacity = 4096;
  const auto parsed = NatConfig::parse(config.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->direction, NatDirection::destination);
  EXPECT_EQ(parsed->miss_action, NatMissAction::punt);
  EXPECT_EQ(parsed->table_capacity, 4096u);
}

TEST(NatConfig, ParseRejectsGarbage) {
  EXPECT_FALSE(NatConfig::parse(net::Bytes{1}).has_value());
  EXPECT_FALSE(NatConfig::parse(net::Bytes{9, 0, 0, 0, 0, 1}).has_value());
  // Zero capacity rejected.
  EXPECT_FALSE(NatConfig::parse(net::Bytes{0, 0, 0, 0, 0, 0}).has_value());
}

TEST(NatConfig, ParseBoundsTableCapacity) {
  NatConfig config;
  config.table_capacity = ppe::kMaxDecodedTableCapacity;
  EXPECT_TRUE(NatConfig::parse(config.serialize()).has_value());
  for (const std::uint32_t oversized :
       {ppe::kMaxDecodedTableCapacity + 1, 0xffffffffu}) {
    config.table_capacity = oversized;
    EXPECT_FALSE(NatConfig::parse(config.serialize()).has_value()) << oversized;
  }
}

TEST(StaticNat, TranslationForQueriesTable) {
  StaticNat nat;
  nat.add_mapping(ip(10, 1, 1, 1), ip(2, 2, 2, 2));
  EXPECT_EQ(nat.translation_for(ip(10, 1, 1, 1)), ip(2, 2, 2, 2));
  EXPECT_FALSE(nat.translation_for(ip(10, 1, 1, 2)).has_value());
}

}  // namespace
}  // namespace flexsfp::apps
