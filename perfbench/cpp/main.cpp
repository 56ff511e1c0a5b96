// perfbench: host-performance benchmark of the simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--expect-digest <hex>] [--trace-out <file>]
//             [--record <file>] [--unbalance-one]
//
// Repeats set-up -> run call -> check of one workload until `seconds` have
// passed (at least kMinReps times) and prints, as its last stdout line, one
// JSON object {"correct","attempted","failed","metrics"}.
//
// --trace 0 reports the end-to-end metrics, measured with tracing off; each
// host time is reduced over the run's repetitions (see Timings).
// --trace 1 interleaves untraced and traced repetitions and reports the
// per-layer metrics: work counts from the run's registry snapshot, times
// from spans the benchmark records around its calls into each layer, and
// the tracing overhead. Every repetition is checked: the conservation
// ledger must close, the modeled digest must repeat across repetitions
// (traced ones included) and, when --expect-digest is given, equal it.
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 5000;

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double wall_seconds() { return double(now_ns()) * 1e-9; }

/// The process's peak resident set, from VmHWM. getrusage's ru_maxrss
/// would not do: Linux carries it across exec, so under a parent larger
/// than the benchmark (the Python driver) it reports the parent's size.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  Options options;
  double seconds = 10;
  int trace = 0;
  std::string expect_digest;
  std::string trace_out;
  std::string record;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--unbalance-one") {
      args.options.unbalance_one = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = int(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--scale") {
      args.options.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--expect-digest") {
      args.expect_digest = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--record") {
      args.record = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args.workload.empty() && args.seconds >= 0 &&
         (args.trace == 0 || args.trace == 1) && args.options.scale > 0;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Where and how the figures were taken; timings from a Debug or sanitized
/// build are not comparable with the default optimized build.
std::string run_record(bool& comparable) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  comparable = build_type != "Debug" && sanitize.empty() &&
               flags.find("-fsanitize") == std::string::npos;
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%ld,\"hardware_concurrency\":%u,"
                "\"compiler\":\"%s\",\"build_type\":\"%s\",\"cxx_flags\":\"%s\","
                "\"sanitizers\":\"%s\",\"comparable\":%s}",
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                build_type.c_str(), flags.c_str(), sanitize.c_str(),
                comparable ? "true" : "false");
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool applicable = true;
};

/// One timed repetition; times per piece (Workload::setup_parts(),
/// Workload::run_parts()).
struct Rep {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  RepOutcome outcome;
  bool traced = false;
  bool warmup = false;
  std::size_t first_span = 0;  // traced: spans [first_span, end_span)
  std::size_t end_span = 0;
  int root = -1;
};

Rep run_rep(Workload& workload, SpanRecorder* trace) {
  Rep rep;
  rep.traced = trace != nullptr;
  if (trace != nullptr) rep.first_span = trace->spans().size();
  Scope root(trace, "rep", "bench");
  rep.root = root.id();
  {
    Scope span(trace, "setup", "bench");
    for (std::size_t p = 0; p < workload.setup_parts(); ++p) {
      const double t0 = wall_seconds();
      workload.setup(p, trace);
      rep.setup_s.push_back(wall_seconds() - t0);
    }
  }
  {
    Scope span(trace, "run", "bench");
    for (std::size_t p = 0; p < workload.run_parts(); ++p) {
      const double t0 = wall_seconds();
      const double cpu0 = process_cpu_seconds();
      workload.run(p, trace);
      rep.cpu_s.push_back(process_cpu_seconds() - cpu0);
      rep.run_s.push_back(wall_seconds() - t0);
    }
  }
  rep.outcome = workload.finish(trace);
  return rep;
}

/// The host figures of the repetitions of one kind (untraced or traced).
///
/// Each piece's times are reduced over the run's repetitions to a low
/// quantile, then summed over pieces. Other tenants of a shared host slow a
/// repetition down, in stretches of seconds to minutes, so a mean or median
/// over a 30 s run follows how much of it the host happened to be busy.
/// A single thread is slowed by contention for its CPU's caches and
/// memory (CPU time grows with wall time); the fastest of hundreds of short
/// repetitions, spread over the CPUs (see main), stays put, so those
/// workloads report the minimum. A repetition on several workers also
/// loses wall time whenever the host deschedules any of their vCPUs (CPU
/// time does not grow); its minimum is a rare moment when every CPU was
/// quiet at once, so those report the 5th percentile. Every repetition
/// produces the same packets (its digest is checked), so the reduced times
/// describe one repetition.
struct Timings {
  double quantile = 0;
  std::vector<std::vector<double>> setup_s, run_s, cpu_s;  // [piece][rep]
  double packets = 0;  // per repetition
  double total_run_s = 0;
  double total_cpu_s = 0;
  std::vector<double> rates;  // per repetition, for the spread report

  void add(const Rep& rep) {
    append(setup_s, rep.setup_s);
    append(run_s, rep.run_s);
    append(cpu_s, rep.cpu_s);
    packets = double(rep.outcome.packets);
    total_run_s += sum(rep.run_s);
    total_cpu_s += sum(rep.cpu_s);
    rates.push_back(ratio(packets, sum(rep.run_s)));
  }
  static void append(std::vector<std::vector<double>>& t,
                     const std::vector<double>& rep) {
    t.resize(rep.size());
    for (std::size_t p = 0; p < rep.size(); ++p) t[p].push_back(rep[p]);
  }
  [[nodiscard]] double reduce(const std::vector<std::vector<double>>& t) const {
    double total = 0;
    for (std::vector<double> v : t) {
      const auto nth = v.begin() + std::ptrdiff_t(quantile * double(v.size() - 1));
      std::nth_element(v.begin(), nth, v.end());
      total += *nth;
    }
    return total;
  }
  [[nodiscard]] double setup_time() const { return reduce(setup_s); }
  [[nodiscard]] double run_time() const { return reduce(run_s); }
  [[nodiscard]] double pps() const { return ratio(packets, run_time()); }
  [[nodiscard]] double cpu_ns_per_pkt() const {
    return ratio(reduce(cpu_s) * 1e9, packets);
  }
};

/// Per-layer metrics of one traced repetition, from its spans.
struct TracedFigures {
  std::map<std::string, std::pair<std::int64_t, std::uint64_t>> busy_calls;
  std::vector<double> churn_ms;
  std::int64_t loop_self_ns = 0;
  std::int64_t fanout_merge_ns = 0;
  double shard_imbalance = 0;
};

TracedFigures traced_figures(const SpanRecorder& trace, const Rep& rep) {
  TracedFigures f;
  const std::vector<Span>& spans = trace.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<double> windows;
  for (std::size_t i = rep.first_span; i < rep.end_span; ++i) {
    const Span& s = spans[i];
    auto& bc = f.busy_calls[s.name];
    bc.first += s.busy_ns;
    bc.second += s.calls;
    if (s.name == "apps.churn") f.churn_ms.push_back(double(s.busy_ns) / 1e6);
    if (s.name == "sim.run" || s.name == "sim.shard_window") {
      f.loop_self_ns += self[i];
    }
    if (s.name == "sim.shard_window") windows.push_back(double(s.busy_ns));
    if (s.name == "fabric.run") f.fanout_merge_ns += self[i];
  }
  if (!windows.empty()) {
    double sum = 0;
    for (double w : windows) sum += w;
    f.shard_imbalance =
        *std::max_element(windows.begin(), windows.end()) /
        (sum / double(windows.size()));
  }
  return f;
}

void print_layer_table(const SpanRecorder& trace, const Rep& rep) {
  const std::vector<LayerRow> rows = layer_table(trace.spans(), rep.root);
  const double root_ms = double(trace.spans()[std::size_t(rep.root)].busy_ns) / 1e6;
  std::printf("\nself time by layer (one traced repetition; parallel runs "
              "follow the critical shard):\n");
  std::printf("  %-7s %-22s %12s %12s %8s\n", "layer", "span", "calls",
              "self ms", "share");
  double sum_ms = 0;
  for (const LayerRow& row : rows) {
    const double ms = double(row.self_ns) / 1e6;
    sum_ms += ms;
    std::printf("  %-7s %-22s %12llu %12.3f %7.2f%%\n", row.layer.c_str(),
                row.span.c_str(), static_cast<unsigned long long>(row.calls),
                ms, 100.0 * ratio(ms, root_ms));
  }
  std::printf("  %-30s %12s %12.3f (root span 'rep': %.3f ms)\n", "sum", "",
              sum_ms, root_ms);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale <f>] [--expect-digest <hex>] "
                 "[--trace-out <file>] [--record <file>] [--unbalance-one]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.options);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  bool comparable = true;
  const std::string record = run_record(comparable);
  std::printf("run record: %s\n", record.c_str());
  if (!comparable) {
    std::printf("WARNING: debug or sanitized build; timings are not "
                "comparable with the default build\n");
  }

  // Repetition 0 warms caches and the allocator and is checked but not
  // timed. After it, untraced and (with --trace 1) traced repetitions
  // alternate, so drift on the machine hits both sides alike.
  //
  // A single-thread workload moves to the next allowed CPU every
  // repetition. On a shared host each CPU is slowed by its own neighbours
  // (a sibling hardware thread, its share of cache) and the scheduler
  // keeps a thread where it is, so a run left alone can sit on one busy CPU
  // for all of its seconds; rotating lets the best times (see Timings)
  // come from whichever CPU was quiet.
  const std::vector<int> cpus = allowed_cpus();
  const bool rotate = workload->workers() == 1 && cpus.size() > 1;
  SpanRecorder recorder;
  std::vector<Rep> reps;
  const double start = wall_seconds();
  int timed_reps = 0;
  int traced_reps = 0;
  for (int i = 0; i < kMaxReps; ++i) {
    if (timed_reps >= kMinReps && (args.trace == 0 || traced_reps >= kMinReps) &&
        wall_seconds() - start >= args.seconds) {
      break;
    }
    SpanRecorder* trace = args.trace == 1 && i % 2 == 0 && i > 0 ? &recorder
                                                                  : nullptr;
    int& kind_reps = trace != nullptr ? traced_reps : timed_reps;
    kind_reps += i > 0 ? 1 : 0;
    if (rotate) pin_to_cpu(cpus[std::size_t(kind_reps) % cpus.size()]);
    Rep rep = run_rep(*workload, trace);
    rep.warmup = i == 0;
    if (trace != nullptr) rep.end_span = recorder.spans().size();
    std::printf("rep %3d%s: setup %.6f s, run %.6f s, cpu %.6f s, %.6g packets/s\n",
                i, rep.warmup ? " warm-up" : trace != nullptr ? " traced" : "",
                sum(rep.setup_s), sum(rep.run_s), sum(rep.cpu_s),
                ratio(double(rep.outcome.packets), sum(rep.run_s)));
    reps.push_back(std::move(rep));
  }

  // --- correctness --------------------------------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::uint64_t digest = reps.front().outcome.digest;
  bool digest_ok = true;
  for (const Rep& rep : reps) {
    attempted += rep.outcome.injected;
    bool rep_ok = rep.outcome.digest == digest;
    if (!args.expect_digest.empty()) {
      rep_ok = rep_ok && hex(rep.outcome.digest) == args.expect_digest;
    }
    digest_ok = digest_ok && rep_ok;
    // A repetition whose modeled outputs are wrong counts as wholly failed.
    failed += rep_ok ? std::min(rep.outcome.unaccounted, rep.outcome.injected)
                     : rep.outcome.injected;
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  const double failed_share = double(failed) / double(attempted);
  const bool correct = failed == 0 && digest_ok;

  // --- metrics ------------------------------------------------------------
  // Times per piece reduced over the timed repetitions (see Timings).
  Timings untraced, traced_timings;
  untraced.quantile = traced_timings.quantile =
      workload->workers() == 1 ? 0.0 : 0.05;
  for (const Rep& rep : reps) {
    if (!rep.warmup) (rep.traced ? traced_timings : untraced).add(rep);
  }
  const Rep* last_traced = nullptr;
  for (const Rep& rep : reps) {
    if (rep.traced) last_traced = &rep;
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"sim_pkts_per_s", untraced.pps(), "packets/s"},
        {"cpu_ns_per_pkt", untraced.cpu_ns_per_pkt(), "ns"},
        {"setup_s", untraced.setup_time(), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"accounted_share", 1.0 - failed_share, "ratio"},
    };
  } else {
    const Observability obs = workload->observability();
    // Counts repeat exactly across repetitions; the decorator's come from
    // traced ones only (the loop above always runs kMinReps of them).
    const RepOutcome& last = last_traced->outcome;
    const LayerCounts& c = last.counts;
    const double packets = double(std::max<std::uint64_t>(last.packets, 1));
    std::vector<TracedFigures> traced;
    for (const Rep& rep : reps) {
      if (rep.traced) traced.push_back(traced_figures(recorder, rep));
    }
    const auto traced_median = [&](auto&& get) {
      std::vector<double> v;
      for (const TracedFigures& f : traced) v.push_back(get(f));
      return median(v);
    };
    const auto ns_per_call = [&](const std::string& span) {
      return traced_median([&](const TracedFigures& f) {
        const auto it = f.busy_calls.find(span);
        return it == f.busy_calls.end()
                   ? 0.0
                   : ratio(double(it->second.first), double(it->second.second));
      });
    };
    std::vector<double> churn;
    for (const TracedFigures& f : traced) {
      churn.insert(churn.end(), f.churn_ms.begin(), f.churn_ms.end());
    }
    const bool softwire = args.workload == "softwire_churn";
    const bool rounds = obs.fabric_rounds && c.rounds > 0;
    metrics = {
        {"sim.events_per_pkt", double(c.events) / packets, "events/pkt"},
        {"sim.queue.pushed_per_pkt", double(c.queue_pushed) / packets,
         "pushes/pkt"},
        {"sim.queue.boxed_closures", double(c.boxed_closures), "count"},
        {"sim.queue.window_rebuilds", double(c.window_rebuilds), "count"},
        {"sim.loop_self_ns_per_pkt",
         traced_median([](const TracedFigures& f) { return double(f.loop_self_ns); }) /
             packets,
         "ns"},
        {"net.pool.fresh_per_pkt", double(c.pool_fresh) / packets, "allocs/pkt"},
        {"net.pool.heap_fallbacks", double(c.pool_heap_fallbacks), "count"},
        {"net.pool.high_watermark", double(c.pool_high_watermark), "packets"},
        {"ppe.batch_mean_n",
         ratio(double(c.app_batched_packets), double(c.app_batches)), "pkts/batch"},
        {"ppe.engine.forwarded_per_pkt", double(c.engine_forwarded) / packets,
         "ratio"},
        {"ppe.engine.app_drops", double(c.engine_app_drops), "count"},
        {"apps.nat.ns_per_call", ns_per_call("apps.nat"), "ns", !softwire},
        {"apps.softwire.ns_per_call", ns_per_call("apps.softwire"), "ns",
         softwire},
        {"apps.softwire.rebind_ms_per_burst_median", median(churn), "ms",
         softwire},
        {"apps.softwire.rebind_ms_per_burst_max",
         churn.empty() ? 0.0 : *std::max_element(churn.begin(), churn.end()),
         "ms", softwire},
        {"apps.table_setup_s", traced_median([](const TracedFigures& f) {
           const auto it = f.busy_calls.find("apps.table_setup");
           return it == f.busy_calls.end() ? 0.0 : double(it->second.first) / 1e9;
         }),
         "s"},
        {"fabric.rounds", double(c.rounds), "count", rounds},
        {"fabric.wall_us_per_round",
         rounds ? untraced.run_time() * 1e6 / double(c.rounds) : 0.0, "us", rounds},
        {"fabric.events_per_round",
         rounds ? double(c.events) / double(c.rounds) : 0.0, "events", rounds},
        {"fabric.xbar.enqueued_per_pkt", double(c.xbar_enqueued) / packets,
         "ratio", rounds},
        {"fabric.cpu_over_wall",
         ratio(untraced.total_cpu_s, untraced.total_run_s), "ratio",
         obs.parallel_shards},
        {"fabric.parallel.fanout_merge_s", traced_median([](const TracedFigures& f) {
           return double(f.fanout_merge_ns) / 1e9;
         }),
         "s", obs.parallel_shards},
        {"fabric.parallel.shard_imbalance",
         traced_median([](const TracedFigures& f) { return f.shard_imbalance; }),
         "ratio", obs.parallel_shards},
        {"obs.flight.hops_per_pkt", double(c.flight_hops) / packets, "hops/pkt",
         obs.flight_hops},
        {"trace.overhead_share", 1.0 - ratio(traced_timings.pps(), untraced.pps()),
         "ratio"},
    };
  }

  // --- report -------------------------------------------------------------
  std::printf("workload %s seed %llu scale %g: %zu repetitions (%zu traced), "
              "%llu packets per repetition\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.options.seed),
              args.options.scale, reps.size(), traced_timings.rates.size(),
              static_cast<unsigned long long>(reps.back().outcome.packets));
  if (!untraced.rates.empty()) {
    const auto [lo, hi] =
        std::minmax_element(untraced.rates.begin(), untraced.rates.end());
    std::printf("untraced packets/s per repetition: n=%zu median %.6g min %.6g "
                "max %.6g\n",
                untraced.rates.size(), median(untraced.rates), *lo, *hi);
  }
  std::printf("check: digest %s%s, ledger unaccounted %llu of %llu injected, "
              "failed_share %.6g -> %s\n",
              hex(digest).c_str(), digest_ok ? "" : " (MISMATCH)",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted), failed_share,
              correct ? "correct" : "FAILED");
  for (const Metric& m : metrics) {
    std::printf("  %-42s %16.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.applicable ? "" : "  (n/a on this workload)");
  }
  if (args.trace == 0) {
    std::printf("  %-42s %16.6g ratio  (the JSON carries accounted_share = "
                "1 - failed_share)\n",
                "failed_share", failed_share);
  }
  if (args.trace == 1) {
    print_layer_table(recorder, *last_traced);
    if (!self_times_consistent(recorder.spans())) {
      std::printf("WARNING: child spans exceed their parent; self times are "
                  "not meaningful\n");
    }
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << recorder.chrome_trace_json();
      std::printf("trace written to %s\n", args.trace_out.c_str());
    }
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  if (!args.record.empty()) {
    std::ofstream(args.record) << "{\"run_record\": " << record
                               << ", \"workload\": \"" << args.workload
                               << "\", \"seed\": " << args.options.seed
                               << ", \"trace\": " << args.trace
                               << ", \"digest\": \"" << hex(digest)
                               << "\", \"result\": " << json << "}\n";
  }
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
