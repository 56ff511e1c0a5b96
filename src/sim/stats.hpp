// Measurement primitives: counters, byte/packet meters and a log-bucketed
// latency histogram with percentile queries.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace flexsfp::sim {

/// Packets + bytes observed, with derived rates over a given span.
///
/// Dual-mode: a meter starts as a plain local tally (merge accumulators in
/// sim::Stats stay value types), and live datapath instances bind() to the
/// run's MetricRegistry so their counts are `<name>.packets` /
/// `<name>.bytes` series there — the registry is then the single tally and
/// every read goes through it. Don't record() through two copies of a bound
/// meter: they share the same series.
class TrafficMeter {
 public:
  TrafficMeter() = default;

  /// Back this meter by registry series; pre-bind counts carry over.
  void bind(obs::MetricRegistry& registry, const std::string& name,
            obs::Labels labels = {}) {
    registry_ = &registry;
    packets_id_ = registry.counter(name + ".packets", labels);
    bytes_id_ = registry.counter(name + ".bytes", std::move(labels));
    registry.add(packets_id_, packets_);
    registry.add(bytes_id_, bytes_);
    packets_ = bytes_ = 0;
  }
  [[nodiscard]] bool bound() const { return registry_ != nullptr; }

  void record(std::size_t bytes) { accumulate(1, bytes); }

  [[nodiscard]] std::uint64_t packets() const {
    return registry_ != nullptr ? registry_->value(packets_id_) : packets_;
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return registry_ != nullptr ? registry_->value(bytes_id_) : bytes_;
  }
  /// Average bit rate over `span` (payload bits, no wire overhead).
  [[nodiscard]] double bits_per_second(TimePs span) const {
    return span > 0 ? double(bytes()) * 8.0 / to_seconds(span) : 0.0;
  }
  [[nodiscard]] double packets_per_second(TimePs span) const {
    return span > 0 ? double(packets()) / to_seconds(span) : 0.0;
  }
  /// Fold raw counts in — the shard-merge and bind-carry primitive.
  void accumulate(std::uint64_t packets, std::uint64_t bytes) {
    if (registry_ != nullptr) {
      registry_->add(packets_id_, packets);
      registry_->add(bytes_id_, bytes);
    } else {
      packets_ += packets;
      bytes_ += bytes;
    }
  }
  /// Fold another meter in (shard merge). Order-independent.
  void merge(const TrafficMeter& other) {
    accumulate(other.packets(), other.bytes());
  }
  void reset() {
    if (registry_ != nullptr) {
      registry_->zero(packets_id_);
      registry_->zero(bytes_id_);
    }
    packets_ = 0;
    bytes_ = 0;
  }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  obs::MetricRegistry* registry_ = nullptr;
  obs::MetricId packets_id_;
  obs::MetricId bytes_id_;
};

/// Latency histogram: geometric buckets from 1 ns to ~17 ms, 16 buckets per
/// octave, ~4% relative resolution — plenty for datapath latencies while
/// staying allocation-free after construction.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(TimePs latency);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] TimePs min() const { return count_ > 0 ? min_ : 0; }
  [[nodiscard]] TimePs max() const { return max_; }
  [[nodiscard]] double mean_ns() const {
    return count_ > 0 ? sum_ns_ / double(count_) : 0.0;
  }
  /// Percentile in [0, 100]; returns the representative value of the bucket
  /// containing the requested rank.
  [[nodiscard]] TimePs percentile(double p) const;
  [[nodiscard]] std::string summary() const;
  /// Fold another histogram in (shard merge): buckets add element-wise, so
  /// percentiles of the merge equal percentiles of the union of samples.
  /// Merge shards in a fixed order when bit-identical means are required —
  /// sum_ns_ is floating point and addition is not associative.
  void merge(const LatencyHistogram& other);
  void reset();

 private:
  [[nodiscard]] std::size_t bucket_for(TimePs latency) const;
  [[nodiscard]] TimePs bucket_value(std::size_t index) const;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0;
  TimePs min_ = 0;
  TimePs max_ = 0;
};

/// The canonical mergeable bundle of run statistics: everything a testbed
/// shard measures, foldable across shards at a barrier so a parallel run
/// reports exactly what the sequential run would.
struct Stats {
  TrafficMeter sent;
  TrafficMeter received;
  LatencyHistogram latency;
  std::uint64_t queue_drops = 0;  // engine ingress FIFO overflows
  std::uint64_t app_drops = 0;    // Verdict::drop from the app
  std::uint64_t dark_drops = 0;   // lost while booting/rebooting/failed
  std::uint64_t events = 0;       // simulation events executed

  /// Fold `other` in. Counter fields are order-independent; latency means
  /// are bit-identical only when shards merge in a fixed order (see
  /// LatencyHistogram::merge).
  void merge(const Stats& other);

  [[nodiscard]] std::uint64_t total_drops() const {
    return queue_drops + app_drops + dark_drops;
  }
  [[nodiscard]] double loss_rate() const {
    return sent.packets() > 0
               ? 1.0 - double(received.packets()) / double(sent.packets())
               : 0.0;
  }
};

/// Sliding-window rate estimator used by the microburst detector: counts
/// bytes in fixed windows and reports the previous window's rate.
class WindowedRate {
 public:
  explicit WindowedRate(TimePs window) : window_(window) {}

  void record(TimePs now, std::size_t bytes);
  /// Rate of the most recently *completed* window, bits/second.
  [[nodiscard]] double last_window_bps() const { return last_bps_; }
  /// Highest completed-window rate seen so far.
  [[nodiscard]] double peak_bps() const { return peak_bps_; }
  [[nodiscard]] TimePs window() const { return window_; }

 private:
  void roll(TimePs now);

  TimePs window_;
  TimePs window_start_ = 0;
  std::uint64_t window_bytes_ = 0;
  double last_bps_ = 0.0;
  double peak_bps_ = 0.0;
};

}  // namespace flexsfp::sim
