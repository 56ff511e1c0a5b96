// The paper's §5.1 case study: a static, one-to-one source NAT translating
// IPv4 source addresses at 10 Gb/s line rate, with a 32,768-flow hash table
// in LSRAM. Checksums are patched incrementally (RFC 1624) so the edit cost
// is independent of packet size.
#pragma once

#include <cstdint>

#include "ppe/app.hpp"
#include "ppe/tables.hpp"

namespace flexsfp::apps {

enum class NatDirection : std::uint8_t {
  source = 0,       // rewrite source address (outbound path)
  destination = 1,  // rewrite destination address (return path)
};

enum class NatMissAction : std::uint8_t {
  forward = 0,  // pass untranslated traffic through
  drop = 1,
  punt = 2,     // hand to the embedded control plane
};

struct NatConfig {
  NatDirection direction = NatDirection::source;
  NatMissAction miss_action = NatMissAction::forward;
  /// Table geometry (the paper's build: 32,768 flows).
  std::uint32_t table_capacity = 32768;

  [[nodiscard]] net::Bytes serialize() const;
  [[nodiscard]] static std::optional<NatConfig> parse(net::BytesView data);
};

class StaticNat final : public ppe::PpeApp {
 public:
  explicit StaticNat(NatConfig config = {});

  /// Registry name: "nat".
  [[nodiscard]] std::string name() const override { return "nat"; }

  /// Plain untagged IPv4 TCP/UDP frames are classified and rewritten at
  /// fixed offsets; every other frame goes through the parser.
  [[nodiscard]] ppe::Verdict process(ppe::PacketContext& ctx) override;

  /// Component breakdown matching the paper's Table 1 "NAT app" row:
  /// parser, hash+table control, field edit, checksum patch, deparser,
  /// CSRs, three stream FIFOs (36 uSRAM) and the pipeline FSM.
  [[nodiscard]] hw::ResourceUsage resource_usage(
      const hw::DatapathConfig& datapath) const override;
  [[nodiscard]] hw::ResourceBreakdown resource_breakdown(
      const hw::DatapathConfig& datapath) const;

  [[nodiscard]] net::Bytes serialize_config() const override {
    return config_.serialize();
  }
  [[nodiscard]] ppe::StageProfile profile() const override;

  /// Add a translation original -> translated.
  bool add_mapping(net::Ipv4Address original, net::Ipv4Address translated);
  bool remove_mapping(net::Ipv4Address original);
  [[nodiscard]] std::optional<net::Ipv4Address> translation_for(
      net::Ipv4Address original) const;

  [[nodiscard]] const NatConfig& config() const { return config_; }
  [[nodiscard]] const ppe::ExactMatchTable& table() const { return table_; }

  // Control-plane surface.
  [[nodiscard]] std::vector<std::string> table_names() const override {
    return {"nat"};
  }
  bool table_insert(std::string_view table, std::uint64_t key,
                    std::uint64_t value) override;
  bool table_erase(std::string_view table, std::uint64_t key) override;
  [[nodiscard]] std::optional<std::uint64_t> table_lookup(
      std::string_view table, std::uint64_t key) const override;
  [[nodiscard]] std::vector<ppe::CounterSnapshot> counters() const override;

 private:
  NatConfig config_;
  ppe::ExactMatchTable table_;
  ppe::CounterBank stats_;  // 0 = translated, 1 = missed, 2 = non-ipv4
};

}  // namespace flexsfp::apps
