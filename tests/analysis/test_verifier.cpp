// Golden-diagnostics tests: one suite per rule id. Feasible reference
// designs verify clean; each deliberately broken design produces exactly
// the diagnostic its rule promises.
#include "analysis/verifier.hpp"

#include <gtest/gtest.h>

#include "analysis/catalog.hpp"
#include "apps/acl.hpp"
#include "apps/bpf_filter.hpp"
#include "apps/chain.hpp"
#include "apps/nat.hpp"
#include "apps/rate_limiter.hpp"
#include "apps/register.hpp"
#include "apps/softwire.hpp"
#include "apps/telemetry.hpp"
#include "hw/bitstream.hpp"

namespace flexsfp::analysis {
namespace {

/// Minimal app whose StageProfile is injected verbatim — lets each rule be
/// driven with exactly the profile shape it checks.
class StubApp final : public ppe::PpeApp {
 public:
  explicit StubApp(ppe::StageProfile profile) : profile_(std::move(profile)) {}

  [[nodiscard]] std::string name() const override { return profile_.stage; }
  [[nodiscard]] ppe::Verdict process(ppe::PacketContext&) override {
    return ppe::Verdict::forward;
  }
  [[nodiscard]] hw::ResourceUsage resource_usage(
      const hw::DatapathConfig&) const override {
    return {};
  }
  [[nodiscard]] ppe::StageProfile profile() const override { return profile_; }

 private:
  ppe::StageProfile profile_;
};

/// Errors and warnings only — notes (e.g. the always-present utilization
/// note) don't count against cleanliness.
bool clean(const DiagnosticReport& report) {
  return !report.has_errors() && !report.has_warnings();
}

TEST(VerifierFSL000, UnknownAppInBitstream) {
  apps::register_builtin_apps();
  const auto bitstream =
      hw::Bitstream::create("no-such-app", {}, hw::AuthKey{1});
  const auto report = PipelineVerifier{}.verify_bitstream(bitstream);
  ASSERT_EQ(report.by_rule("FSL000").size(), 1u);
  EXPECT_EQ(report.by_rule("FSL000")[0].severity, Severity::error);
  EXPECT_TRUE(report.has_errors());
}

TEST(VerifierFSL000, RejectedConfigInBitstream) {
  apps::register_builtin_apps();
  // A truncated NAT config the factory's parse() refuses.
  const auto bitstream =
      hw::Bitstream::create("nat", net::Bytes{0x01}, hw::AuthKey{1});
  const auto report = PipelineVerifier{}.verify_bitstream(bitstream);
  ASSERT_EQ(report.by_rule("FSL000").size(), 1u);
  EXPECT_EQ(report.by_rule("FSL000")[0].severity, Severity::error);
}

TEST(VerifierFSL000, OversizedTableCapacityInBitstream) {
  // A hostile capacity is refused by the config decoder before the factory
  // builds (and zero-fills) the table, so the gate reports instead of
  // throwing bad_alloc.
  apps::register_builtin_apps();
  apps::NatConfig nat;
  nat.table_capacity = 0xffffffffu;
  apps::LwAftrConfig lwaftr;
  lwaftr.binding_capacity = 0xffffffffu;
  apps::FlowStatsConfig flowstats;
  flowstats.cache_capacity = 0xffffffffu;
  apps::RateLimiterConfig ratelimit;
  ratelimit.max_subscribers = 0xffffffffu;
  const std::pair<const char*, net::Bytes> designs[] = {
      {"nat", nat.serialize()},
      {"lwaftr", lwaftr.serialize()},
      {"flowstats", flowstats.serialize()},
      {"ratelimit", ratelimit.serialize()}};
  for (const auto& [app, config] : designs) {
    const auto bitstream = hw::Bitstream::create(app, config, hw::AuthKey{1});
    const auto report = PipelineVerifier{}.verify_bitstream(bitstream);
    ASSERT_EQ(report.by_rule("FSL000").size(), 1u) << app;
    EXPECT_NE(report.by_rule("FSL000")[0].message.find("factory rejected"),
              std::string::npos)
        << app;
  }
}

TEST(VerifierFSL001, PaperNatFitsWithUtilizationNote) {
  const apps::StaticNat nat;
  const auto report = PipelineVerifier{}.verify(nat);
  EXPECT_TRUE(clean(report)) << report.to_text();
  // The paper's verdict, statically: the design fits the MPF200T and the
  // report says by how much.
  const auto notes = report.by_rule("FSL001");
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].severity, Severity::note);
  EXPECT_NE(notes[0].message.find("MPF200T"), std::string::npos);
  EXPECT_NE(notes[0].message.find('%'), std::string::npos);
}

TEST(VerifierFSL001, OversizedNatRejected) {
  const apps::StaticNat nat(apps::NatConfig{.table_capacity = 524288});
  const auto report = PipelineVerifier{}.verify(nat);
  EXPECT_TRUE(report.has_errors());
  bool lsram_error = false;
  for (const auto& diagnostic : report.by_rule("FSL001")) {
    if (diagnostic.severity == Severity::error &&
        diagnostic.message.find("LSRAM") != std::string::npos) {
      lsram_error = true;
    }
  }
  EXPECT_TRUE(lsram_error) << report.to_text();
}

TEST(VerifierFSL001, SmallerDeviceChangesTheVerdict) {
  // The same NAT that fits the MPF200T must overflow a device with no
  // LSRAM headroom at all: verify against the smallest family member with
  // the shell included and a table far beyond its SRAM.
  VerifierOptions options;
  options.device = *hw::FpgaDevice::by_name("MPF100T");
  const apps::StaticNat oversized(apps::NatConfig{.table_capacity = 131072});
  const auto report = PipelineVerifier{options}.verify(oversized);
  EXPECT_TRUE(report.has_errors()) << report.to_text();
}

TEST(VerifierFSL002, SequentialProgramOverBudgetIsBottleneck) {
  std::vector<apps::BpfInsn> code;
  for (int i = 0; i < 47; ++i) code.push_back({apps::BpfOp::alu_add, 1, 0, 0});
  code.push_back({apps::BpfOp::ret_accept, 0, 0, 0});
  const apps::BpfFilter filter(*apps::BpfProgram::assemble(std::move(code)));

  const auto report = PipelineVerifier{}.verify(filter);
  const auto errors = report.by_rule("FSL002");
  ASSERT_EQ(errors.size(), 1u) << report.to_text();
  EXPECT_EQ(errors[0].severity, Severity::error);
  EXPECT_EQ(errors[0].component, "bpf");
  EXPECT_NE(errors[0].message.find("48 cycles"), std::string::npos);
  EXPECT_NE(errors[0].message.find("bottleneck"), std::string::npos);
}

TEST(VerifierFSL002, CompactProgramFitsTheBudget) {
  const apps::BpfFilter filter(apps::bpf_programs::drop_tcp_dport_compact(23));
  const auto report = PipelineVerifier{}.verify(filter);
  EXPECT_TRUE(report.by_rule("FSL002").empty()) << report.to_text();
  EXPECT_TRUE(clean(report));
}

TEST(VerifierFSL002, GeneralTcpDportProgramIsOverBudget) {
  // The IHL-parsing variant is exactly why the compact program exists: its
  // sequential worst case exceeds the 64 B cycle budget.
  const apps::BpfFilter filter(apps::bpf_programs::drop_tcp_dport(23));
  const auto report = PipelineVerifier{}.verify(filter);
  const auto errors = report.by_rule("FSL002");
  ASSERT_EQ(errors.size(), 1u) << report.to_text();
  // The cost charged is the abstract interpreter's longest terminating
  // path (12 instructions), not the program size (13): the honest budget
  // is still one over the 11-cycle line.
  EXPECT_NE(errors[0].message.find("12 cycles"), std::string::npos)
      << errors[0].message;
}

TEST(VerifierFSL003, KeyWiderThanSourceFields) {
  ppe::StageProfile profile;
  profile.stage = "stub";
  profile.reads = ppe::header_bit(ppe::HeaderKind::ipv4);
  profile.tables.push_back({.name = "flows",
                            .kind = ppe::TableKind::exact_match,
                            .capacity = 16,
                            .key_bits = 200,  // > the 160 ipv4 field bits
                            .value_bits = 32,
                            .key_sources =
                                ppe::header_bit(ppe::HeaderKind::ipv4)});
  const StubApp app(profile);
  const auto report = PipelineVerifier{}.verify(app);
  const auto errors = report.by_rule("FSL003");
  ASSERT_EQ(errors.size(), 1u) << report.to_text();
  EXPECT_EQ(errors[0].severity, Severity::error);
  EXPECT_EQ(errors[0].component, "stub/table:flows");
  EXPECT_NE(errors[0].message.find("200 bits"), std::string::npos);
}

TEST(VerifierFSL004, SingleTableBeyondDeviceSram) {
  const apps::StaticNat nat(apps::NatConfig{.table_capacity = 524288});
  const auto report = PipelineVerifier{}.verify(nat);
  const auto errors = report.by_rule("FSL004");
  ASSERT_EQ(errors.size(), 1u) << report.to_text();
  EXPECT_EQ(errors[0].severity, Severity::error);
  EXPECT_EQ(errors[0].component, "nat/table:nat");
}

TEST(VerifierFSL004, HugeTcamEmulationWarns) {
  ppe::StageProfile profile;
  profile.stage = "stub";
  profile.tables.push_back({.name = "rules",
                            .kind = ppe::TableKind::ternary,
                            .capacity = 2048,
                            .key_bits = 40,
                            .value_bits = 8});
  const StubApp app(profile);
  const auto report = PipelineVerifier{}.verify(app);
  const auto findings = report.by_rule("FSL004");
  ASSERT_EQ(findings.size(), 1u) << report.to_text();
  // 2048 rules x 40 key bits x 2 FFs fits the MPF200T's FF budget, so the
  // design is deployable — but the emulation cost deserves a warning.
  EXPECT_EQ(findings[0].severity, Severity::warning);
}

TEST(VerifierFSL005, ShadowedAclRuleWarns) {
  apps::AclFirewall acl;
  // Broad rule first (all TCP), then a more specific one at lower priority
  // that the broad rule fully covers: it can never match.
  apps::AclRuleSpec broad;
  broad.protocol = 6;
  broad.action = apps::AclAction::deny;
  broad.priority = 100;
  ASSERT_GT(acl.add_rule(broad), 0u);
  apps::AclRuleSpec specific;
  specific.protocol = 6;
  specific.dst_port_range = {{23, 23}};
  specific.action = apps::AclAction::permit;
  specific.priority = 10;
  ASSERT_GT(acl.add_rule(specific), 0u);

  const auto report = PipelineVerifier{}.verify(acl);
  const auto warnings = report.by_rule("FSL005");
  ASSERT_EQ(warnings.size(), 1u) << report.to_text();
  EXPECT_EQ(warnings[0].severity, Severity::warning);
  EXPECT_EQ(warnings[0].component, "acl/table:acl");
  EXPECT_NE(warnings[0].message.find("shadowed"), std::string::npos);
}

TEST(VerifierFSL005, CleanAclRulesDoNotWarn) {
  const auto* design = find_design("acl-edge");
  ASSERT_NE(design, nullptr);
  const auto report = PipelineVerifier{}.verify(*design->build());
  EXPECT_TRUE(report.by_rule("FSL005").empty()) << report.to_text();
}

TEST(VerifierFSL006, IntSinkAloneWarnsAboutUnproducedShim) {
  const apps::IntStamper sink(
      apps::IntStamperConfig{.role = apps::StamperRole::sink});
  const auto report = PipelineVerifier{}.verify(sink);
  const auto warnings = report.by_rule("FSL006");
  ASSERT_EQ(warnings.size(), 1u) << report.to_text();
  EXPECT_EQ(warnings[0].severity, Severity::warning);
  EXPECT_NE(warnings[0].message.find("telemetry-shim"), std::string::npos);
  // Warning severity: deployable (another module may insert the shim).
  EXPECT_FALSE(report.has_errors());
}

TEST(VerifierFSL006, SourceBeforeSinkIsClean) {
  apps::AppChain chain;
  chain.append(std::make_unique<apps::IntStamper>(
      apps::IntStamperConfig{.role = apps::StamperRole::source}));
  chain.append(std::make_unique<apps::IntStamper>(
      apps::IntStamperConfig{.role = apps::StamperRole::sink}));
  const auto report = PipelineVerifier{}.verify(chain);
  EXPECT_TRUE(report.by_rule("FSL006").empty()) << report.to_text();
}

TEST(VerifierFSL007, StagesBehindConstantDropAreUnreachable) {
  apps::AppChain chain;
  chain.append(std::make_unique<apps::BpfFilter>(
      *apps::BpfProgram::assemble({{apps::BpfOp::ret_drop, 0, 0, 0}})));
  chain.append(std::make_unique<apps::AclFirewall>());
  const auto report = PipelineVerifier{}.verify(chain);
  const auto errors = report.by_rule("FSL007");
  ASSERT_EQ(errors.size(), 1u) << report.to_text();
  EXPECT_EQ(errors[0].severity, Severity::error);
  EXPECT_EQ(errors[0].component, "bpf");
  EXPECT_NE(errors[0].message.find("unreachable"), std::string::npos);
}

TEST(VerifierFSL007, ConstantForwardIsJustANote) {
  const apps::BpfFilter filter;  // accept_all
  const auto report = PipelineVerifier{}.verify(filter);
  const auto findings = report.by_rule("FSL007");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::note);
  EXPECT_FALSE(report.has_errors());
}

TEST(VerifierFSL008, CounterIndexBeyondBankErrors) {
  ppe::StageProfile profile;
  profile.stage = "stub";
  profile.counter_banks.push_back({"stats", 4, 4});  // index 4 of 4 slots
  const StubApp app(profile);
  const auto report = PipelineVerifier{}.verify(app);
  const auto errors = report.by_rule("FSL008");
  ASSERT_EQ(errors.size(), 1u) << report.to_text();
  EXPECT_EQ(errors[0].severity, Severity::error);
  EXPECT_EQ(errors[0].component, "stub/counters:stats");
}

// --- golden diagnostics for the softwire catalog entries --------------------

TEST(VerifierSoftwire, EdgeDesignProvablyFitsTheDevice) {
  const DeployableDesign* design = find_design("softwire-edge");
  ASSERT_NE(design, nullptr);
  const auto report = PipelineVerifier{}.verify(*design->build());
  EXPECT_TRUE(clean(report)) << report.to_text();
  // The paper's feasibility question answered statically: the 32768-lease
  // AFTR fits the MPF200T, and the note quantifies the headroom.
  const auto notes = report.by_rule("FSL001");
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].severity, Severity::note);
  EXPECT_NE(notes[0].message.find("MPF200T"), std::string::npos);
}

TEST(VerifierSoftwire, OversizedBindingTableRejectedWithNamedTables) {
  const DeployableDesign* design = find_design("softwire-oversized");
  ASSERT_NE(design, nullptr);
  ASSERT_FALSE(design->expect_feasible);
  const auto report = PipelineVerifier{}.verify(*design->build());
  EXPECT_TRUE(report.has_errors()) << report.to_text();
  // FSL001: the aggregate exceeds device LSRAM.
  bool lsram_error = false;
  for (const auto& diagnostic : report.by_rule("FSL001")) {
    if (diagnostic.severity == Severity::error &&
        diagnostic.message.find("LSRAM") != std::string::npos) {
      lsram_error = true;
    }
  }
  EXPECT_TRUE(lsram_error) << report.to_text();
  // FSL004 names the offending table: the million-lease binding store.
  bool binding_named = false;
  for (const auto& diagnostic : report.by_rule("FSL004")) {
    if (diagnostic.severity == Severity::error &&
        diagnostic.component == "lwaftr/table:binding") {
      binding_named = true;
    }
  }
  EXPECT_TRUE(binding_named) << report.to_text();
}

TEST(VerifierCatalog, EveryDesignMatchesItsExpectedVerdict) {
  const PipelineVerifier verifier;
  for (const auto& design : deployable_designs()) {
    const auto report = verifier.verify(*design.build());
    EXPECT_EQ(!report.has_errors(), design.expect_feasible)
        << design.name << ":\n"
        << report.to_text();
  }
}

TEST(VerifierCatalog, FeasibleDesignsRaiseNoSpuriousWarningsExceptIntSink) {
  const PipelineVerifier verifier;
  for (const auto& design : deployable_designs()) {
    if (!design.expect_feasible) continue;
    const auto report = verifier.verify(*design.build());
    if (design.name == "int-sink-edge") {
      EXPECT_TRUE(report.has_warnings());  // the documented FSL006 warning
    } else {
      EXPECT_TRUE(clean(report)) << design.name << ":\n" << report.to_text();
    }
  }
}

TEST(RuleCatalog, CoversEveryRuleIdInOrder) {
  const auto& catalog = rule_catalog();
  ASSERT_EQ(catalog.size(), 15u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const std::string expected =
        (i < 10 ? "FSL00" : "FSL0") + std::to_string(i);
    EXPECT_EQ(catalog[i].id, expected);
    EXPECT_FALSE(catalog[i].summary.empty());
  }
  // Maximum severities match the header's rule table.
  EXPECT_EQ(catalog[5].max_severity, Severity::warning);   // FSL005
  EXPECT_EQ(catalog[6].max_severity, Severity::warning);   // FSL006
  EXPECT_EQ(catalog[7].max_severity, Severity::error);     // FSL007
  EXPECT_EQ(catalog[9].max_severity, Severity::error);     // FSL009
  EXPECT_EQ(catalog[10].max_severity, Severity::warning);  // FSL010
  EXPECT_EQ(catalog[11].max_severity, Severity::warning);  // FSL011
  EXPECT_EQ(catalog[12].max_severity, Severity::warning);  // FSL012
  EXPECT_EQ(catalog[13].max_severity, Severity::error);    // FSL013
  EXPECT_EQ(catalog[14].max_severity, Severity::warning);  // FSL014
}

}  // namespace
}  // namespace flexsfp::analysis
