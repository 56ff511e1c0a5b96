// Transparent ppe::PpeApp decorators: TracedApp times every packet call;
// MirrorFirstApp is the self-tests' conservation fault.
//
// Both forward every virtual of the wrapped app — packet processing, static
// introspection, configuration, table operations and counters — so the
// simulator sees the same app: registry series are labeled by the forwarded
// name(), counters are read through the forwarded counters(), and the
// verifier and flow exporter reach the concrete app through the forwarded
// visit_stages()/find_stage(). The traced run's modeled digest must equal
// the untraced run's; the benchmark checks that on every traced run.
#pragma once

#include "ppe/app.hpp"
#include "spans.hpp"

namespace perfbench {

/// What one decorated app saw: per-call spans plus the burst sizes the
/// engine handed to process_batch.
struct AppCallStats {
  SpanAggregate calls;
  std::uint64_t batches = 0;
  std::uint64_t batched_packets = 0;
};

/// Forwards every PpeApp virtual to the wrapped app.
class ForwardingApp : public flexsfp::ppe::PpeApp {
 public:
  explicit ForwardingApp(flexsfp::ppe::PpeAppPtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] flexsfp::ppe::Verdict process(
      flexsfp::ppe::PacketContext& ctx) override {
    return inner_->process(ctx);
  }

  void process_batch(flexsfp::ppe::PacketContext* const* ctxs,
                     flexsfp::ppe::Verdict* out, std::size_t n) override {
    inner_->process_batch(ctxs, out, n);
  }

  [[nodiscard]] flexsfp::hw::ResourceUsage resource_usage(
      const flexsfp::hw::DatapathConfig& datapath) const override {
    return inner_->resource_usage(datapath);
  }
  [[nodiscard]] std::uint64_t pipeline_latency_cycles() const override {
    return inner_->pipeline_latency_cycles();
  }
  [[nodiscard]] flexsfp::ppe::StageProfile profile() const override {
    return inner_->profile();
  }
  [[nodiscard]] std::vector<flexsfp::ppe::StageProfile> stage_profiles()
      const override {
    return inner_->stage_profiles();
  }
  void visit_stages(const std::function<void(const flexsfp::ppe::PpeApp&)>&
                        visit) const override {
    inner_->visit_stages(visit);
  }
  [[nodiscard]] flexsfp::net::Bytes serialize_config() const override {
    return inner_->serialize_config();
  }
  [[nodiscard]] std::vector<std::string> table_names() const override {
    return inner_->table_names();
  }
  bool table_insert(std::string_view table, std::uint64_t key,
                    std::uint64_t value) override {
    return inner_->table_insert(table, key, value);
  }
  bool table_erase(std::string_view table, std::uint64_t key) override {
    return inner_->table_erase(table, key);
  }
  [[nodiscard]] std::optional<std::uint64_t> table_lookup(
      std::string_view table, std::uint64_t key) const override {
    return inner_->table_lookup(table, key);
  }
  [[nodiscard]] std::vector<flexsfp::ppe::CounterSnapshot> counters()
      const override {
    return inner_->counters();
  }
  [[nodiscard]] flexsfp::ppe::PpeApp* find_stage(
      std::string_view stage_name) override {
    return inner_->find_stage(stage_name);
  }

 protected:
  flexsfp::ppe::PpeAppPtr inner_;
};

/// Times every process / process_batch call and counts burst sizes.
class TracedApp final : public ForwardingApp {
 public:
  TracedApp(flexsfp::ppe::PpeAppPtr inner, AppCallStats& stats)
      : ForwardingApp(std::move(inner)), stats_(stats) {}

  [[nodiscard]] flexsfp::ppe::Verdict process(
      flexsfp::ppe::PacketContext& ctx) override {
    const std::int64_t start = now_ns();
    const flexsfp::ppe::Verdict verdict = inner_->process(ctx);
    stats_.calls.record(start, now_ns());
    return verdict;
  }

  void process_batch(flexsfp::ppe::PacketContext* const* ctxs,
                     flexsfp::ppe::Verdict* out, std::size_t n) override {
    const std::int64_t start = now_ns();
    inner_->process_batch(ctxs, out, n);
    stats_.calls.record(start, now_ns());
    ++stats_.batches;
    stats_.batched_packets += n;
  }

 private:
  AppCallStats& stats_;
};

/// Self-test fault for workloads whose sinks the benchmark cannot reach:
/// asks the engine to mirror the first packet to the control plane. The
/// copy lands in shell.control_punts although no source injected it, so
/// the conservation ledger must come out one packet off.
class MirrorFirstApp final : public ForwardingApp {
 public:
  using ForwardingApp::ForwardingApp;

  [[nodiscard]] flexsfp::ppe::Verdict process(
      flexsfp::ppe::PacketContext& ctx) override {
    mirror_first(ctx);
    return inner_->process(ctx);
  }

  void process_batch(flexsfp::ppe::PacketContext* const* ctxs,
                     flexsfp::ppe::Verdict* out, std::size_t n) override {
    if (n > 0) mirror_first(*ctxs[0]);
    inner_->process_batch(ctxs, out, n);
  }

 private:
  void mirror_first(flexsfp::ppe::PacketContext& ctx) {
    if (mirrored_) return;
    mirrored_ = true;
    ctx.request_mirror();
  }

  bool mirrored_ = false;
};

}  // namespace perfbench
