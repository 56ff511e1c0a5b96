// The benchmark's workloads: each drives the simulator through the public
// APIs of fabric::, apps:: and sim:: in three phases the harness times
// separately — set-up (testbed, apps, tables), the run call(s), and the
// check (conservation ledger + digest of the modeled outputs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  /// Multiplies every workload's simulated duration; the self-tests use
  /// short runs. Expected digests are recorded for scale 1 only.
  double scale = 1.0;
  /// Self-test fault that must fail the conservation check: ModuleTestbed
  /// workloads lose one delivered packet without counting it; the parallel
  /// workloads, whose sinks are built inside run(), mirror one packet that
  /// no source injected (MirrorFirstApp).
  bool unbalance_one = false;
};

/// Work counts read from the run's public obs::MetricSnapshot and
/// Simulation accessors, summed over shards unless noted.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t queue_pushed = 0;
  std::uint64_t boxed_closures = 0;
  std::uint64_t window_rebuilds = 0;
  std::uint64_t pool_fresh = 0;
  std::uint64_t pool_heap_fallbacks = 0;
  std::uint64_t pool_high_watermark = 0;  // max over shards
  std::uint64_t engine_forwarded = 0;
  std::uint64_t engine_app_drops = 0;
  std::uint64_t flight_hops = 0;  // ModuleTestbed workloads only
  std::uint64_t rounds = 0;       // conservative-sync windows (fabric)
  std::uint64_t xbar_enqueued = 0;
  /// Filled by the app decorator on traced runs.
  std::uint64_t app_batches = 0;
  std::uint64_t app_batched_packets = 0;
};

/// What one repetition produced.
struct RepOutcome {
  /// Packets the traffic sources injected (the sim_pkts_per_s numerator).
  std::uint64_t packets = 0;
  /// Ledger left side: generated packets plus fault-injected duplicates.
  std::uint64_t injected = 0;
  /// Packets the ledger cannot account for: |injected - delivered - named
  /// drops - in flight|, plus any disagreement between the testbed's own
  /// tallies and the registry's.
  std::uint64_t unaccounted = 0;
  /// FNV-1a over the modeled outputs (see digest_snapshot()).
  std::uint64_t digest = 0;
  LayerCounts counts;
};

/// Which metrics a workload can observe from outside the program; the rest
/// are reported as 0 and flagged n/a.
struct Observability {
  bool flight_hops = false;
  bool fabric_rounds = false;
  bool parallel_shards = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Pieces of one repetition that the harness sets up (all of them), then
  /// runs, one by one and timed apart: softwire_churn builds its shards in
  /// turn and runs each in windows. The other workloads are one piece.
  [[nodiscard]] virtual std::size_t setup_parts() const { return 1; }
  [[nodiscard]] virtual std::size_t run_parts() const { return 1; }
  /// Threads the run call(s) use.
  [[nodiscard]] virtual unsigned workers() const { return 1; }
  /// Build testbed(s), apps and tables of piece `part`. `trace` is null when
  /// tracing is off; when set, apps are wrapped in the TracedApp decorator
  /// and set-up calls get spans. Every piece is set up before the first runs.
  virtual void setup(std::size_t part, SpanRecorder* trace) = 0;
  /// The timed phase: the run call(s) of piece `part`.
  virtual void run(std::size_t part, SpanRecorder* trace) = 0;
  /// Check conservation, digest the modeled outputs, release the testbeds.
  [[nodiscard]] virtual RepOutcome finish(SpanRecorder* trace) = 0;

  [[nodiscard]] virtual Observability observability() const = 0;
};

/// Null for an unknown name. Builds the seeded inputs (not timed).
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Options& options);

}  // namespace perfbench
