#include "apps/nat.hpp"

#include "net/builder.hpp"
#include "net/checksum.hpp"
#include "ppe/registry.hpp"

namespace flexsfp::apps {

namespace {

// Byte-peek shape check in front of the parser. kSlowPath means "use the
// full parser"; the fast shapes are frames where parse_packet is GUARANTEED
// to succeed with fixed offsets (l3 = 14, l4 = 34): untagged Ethernet +
// IPv4 (version 4, ihl 5, not a fragment) carrying either TCP with a
// 20-byte header or non-VXLAN UDP, with every header fully present.
// Anything else — VLAN tags, IPv6, options, fragments, GRE/ICMP/other
// protocols, VXLAN's UDP port, truncations — goes through the parser, so
// the shape check can never classify a frame differently than it would.
constexpr std::uint8_t kSlowPath = 0;
constexpr std::uint8_t kFastTcp = 1;
constexpr std::uint8_t kFastUdp = 2;

std::uint8_t fast_path_shape(const net::Bytes& b) {
  if (b.size() < 14 + 20) return kSlowPath;
  if (b[12] != 0x08 || b[13] != 0x00) return kSlowPath;  // not plain IPv4
  if (b[14] != 0x45) return kSlowPath;  // version 4, ihl 5 (no options)
  if ((b[20] & 0x3f) != 0 || b[21] != 0) return kSlowPath;  // MF/fragment
  const std::uint8_t proto = b[23];
  if (proto == 6) {
    if (b.size() < 34 + 20) return kSlowPath;
    if ((b[34 + 12] >> 4) != 5) return kSlowPath;  // TCP options present
    return kFastTcp;
  }
  if (proto == 17) {
    if (b.size() < 34 + 8) return kSlowPath;
    if (net::read_be16(b, 34 + 2) == net::VxlanHeader::udp_port) {
      return kSlowPath;  // parse_packet would attempt VXLAN decap
    }
    return kFastUdp;
  }
  return kSlowPath;
}

}  // namespace

net::Bytes NatConfig::serialize() const {
  net::Bytes out(6);
  out[0] = static_cast<std::uint8_t>(direction);
  out[1] = static_cast<std::uint8_t>(miss_action);
  net::write_be32(out, 2, table_capacity);
  return out;
}

std::optional<NatConfig> NatConfig::parse(net::BytesView data) {
  if (data.size() < 6) return std::nullopt;
  if (data[0] > 1 || data[1] > 2) return std::nullopt;
  NatConfig config;
  config.direction = static_cast<NatDirection>(data[0]);
  config.miss_action = static_cast<NatMissAction>(data[1]);
  config.table_capacity = net::read_be32(data, 2);
  if (config.table_capacity == 0 ||
      config.table_capacity > ppe::kMaxDecodedTableCapacity) {
    return std::nullopt;
  }
  return config;
}

StaticNat::StaticNat(NatConfig config)
    : config_(config),
      // Entry layout: 32 b key (IPv4 address), 64 b value (translated
      // address + metadata), +4 valid/version = 100 bits/entry -> the
      // paper's 160 LSRAM blocks at 32,768 entries.
      table_("nat", config.table_capacity, 32, 64),
      stats_("nat_stats", 3) {}

ppe::Verdict StaticNat::process(ppe::PacketContext& ctx) {
  const bool source = config_.direction == NatDirection::source;
  const std::size_t addr_offset = source ? 26 : 30;  // l3 14 + 12/16
  const std::uint8_t shape = fast_path_shape(ctx.packet().data());
  // Canonical frames skip building the full ParsedPacket: the match
  // address sits at addr_offset and the parser is guaranteed to agree.
  const net::ParsedPacket* parsed = nullptr;
  std::uint32_t old_value = 0;
  if (shape != kSlowPath) {
    old_value = net::read_be32(ctx.packet().data(), addr_offset);
  } else {
    parsed = &ctx.parsed();
    if (!parsed->ok() || !parsed->outer.ipv4) {
      stats_.add(2, ctx.packet().size());
      return ppe::Verdict::forward;  // NAT is IPv4-only; pass others through
    }
    old_value = (source ? parsed->outer.ipv4->src : parsed->outer.ipv4->dst)
                    .value();
  }

  const auto hit = table_.lookup(old_value);
  if (!hit) {
    stats_.add(1, ctx.packet().size());
    switch (config_.miss_action) {
      case NatMissAction::forward: return ppe::Verdict::forward;
      case NatMissAction::drop: return ppe::Verdict::drop;
      case NatMissAction::punt: return ppe::Verdict::to_control_plane;
    }
    return ppe::Verdict::forward;
  }

  const auto new_value = static_cast<std::uint32_t>(*hit);
  net::Bytes& b = ctx.bytes();
  if (parsed != nullptr) {
    // Cannot fail: the parse is ok and carries an outer IPv4 header.
    const net::Ipv4Address translated{new_value};
    if (source) {
      net::rewrite_ipv4_src(b, *parsed, translated);
    } else {
      net::rewrite_ipv4_dst(b, *parsed, translated);
    }
  } else if (old_value != new_value) {
    // The exact edits rewrite_ipv4_src/dst performs on this shape: address
    // write plus RFC 1624 incremental patches of the IPv4 checksum and the
    // L4 pseudo-header checksum.
    net::write_be32(b, addr_offset, new_value);
    net::write_be16(b, 24, net::checksum_incremental_update32(
                               net::read_be16(b, 24), old_value, new_value));
    if (shape == kFastTcp) {
      net::write_be16(b, 34 + 16,
                      net::checksum_incremental_update32(
                          net::read_be16(b, 34 + 16), old_value, new_value));
    } else if (net::read_be16(b, 34 + 6) != 0) {
      std::uint16_t patched = net::checksum_incremental_update32(
          net::read_be16(b, 34 + 6), old_value, new_value);
      if (patched == 0) patched = 0xffff;
      net::write_be16(b, 34 + 6, patched);
    }
  }
  // An identity mapping still counts as translated, as the rewrite helpers
  // report success for it.
  ctx.invalidate_parse();
  stats_.add(0, ctx.packet().size());
  return ppe::Verdict::forward;
}

hw::ResourceBreakdown StaticNat::resource_breakdown(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceBreakdown breakdown;
  // Eth (14) + IPv4 (20) + L4 ports (4) examined by the parser.
  breakdown.add("parser", RM::parser(38, w));
  breakdown.add("nat_table", RM::exact_match_table(config_.table_capacity,
                                                   32, 64));
  breakdown.add("addr_edit", RM::field_edit_unit(1, w));
  breakdown.add("checksum_patch", RM::checksum_patch_unit());
  breakdown.add("deparser", RM::deparser(w));
  breakdown.add("csr", RM::csr_block(24));
  breakdown.add("ingress_fifo", RM::stream_fifo(128, 72));
  breakdown.add("egress_fifo", RM::stream_fifo(128, 72));
  breakdown.add("lookup_fifo", RM::stream_fifo(128, 72));
  breakdown.add("pipeline_fsm", RM::control_fsm(18, w));
  return breakdown;
}

hw::ResourceUsage StaticNat::resource_usage(
    const hw::DatapathConfig& datapath) const {
  return resource_breakdown(datapath).total();
}

ppe::StageProfile StaticNat::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set(
      {HeaderKind::ethernet, HeaderKind::ipv4, HeaderKind::tcp,
       HeaderKind::udp});
  // Address rewrite plus incremental IPv4/L4 checksum patches.
  profile.writes = ppe::header_set(
      {HeaderKind::ipv4, HeaderKind::tcp, HeaderKind::udp});
  profile.tables.push_back(ppe::TableProfile{
      .name = table_.name(),
      .kind = ppe::TableKind::exact_match,
      .capacity = table_.capacity(),
      .key_bits = table_.key_bits(),
      .value_bits = table_.value_bits(),
      .key_sources = ppe::header_bit(HeaderKind::ipv4)});
  profile.counter_banks.push_back({"nat_stats", stats_.size(), 2});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

bool StaticNat::add_mapping(net::Ipv4Address original,
                            net::Ipv4Address translated) {
  return table_.insert(original.value(), translated.value());
}

bool StaticNat::remove_mapping(net::Ipv4Address original) {
  return table_.erase(original.value());
}

std::optional<net::Ipv4Address> StaticNat::translation_for(
    net::Ipv4Address original) const {
  const auto hit = table_.lookup(original.value());
  if (!hit) return std::nullopt;
  return net::Ipv4Address{static_cast<std::uint32_t>(*hit)};
}

bool StaticNat::table_insert(std::string_view table, std::uint64_t key,
                             std::uint64_t value) {
  return table == "nat" && table_.insert(key, value);
}

bool StaticNat::table_erase(std::string_view table, std::uint64_t key) {
  return table == "nat" && table_.erase(key);
}

std::optional<std::uint64_t> StaticNat::table_lookup(std::string_view table,
                                                     std::uint64_t key) const {
  if (table != "nat") return std::nullopt;
  return table_.lookup(key);
}

std::vector<ppe::CounterSnapshot> StaticNat::counters() const {
  return {
      {"nat_stats", 0, stats_.packets(0), stats_.bytes(0)},
      {"nat_stats", 1, stats_.packets(1), stats_.bytes(1)},
      {"nat_stats", 2, stats_.packets(2), stats_.bytes(2)},
  };
}

namespace {
const bool registered = ppe::register_ppe_app(
    "nat", [](net::BytesView config) -> ppe::PpeAppPtr {
      if (config.empty()) return std::make_unique<StaticNat>();
      const auto parsed = NatConfig::parse(config);
      if (!parsed) return nullptr;
      return std::make_unique<StaticNat>(*parsed);
    });
}  // namespace

/// Force-link hook used by register_builtin_apps().
void link_nat_app() { (void)registered; }

}  // namespace flexsfp::apps
