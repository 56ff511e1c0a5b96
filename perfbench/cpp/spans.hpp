// Span recording for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into the
// simulator's layers (set-up calls, the run call, the app decorator, the
// softwire emitters, lease-churn bursts, the post-run snapshot digest). They
// are kept in memory and written at exit as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly.
//
// Per-packet spans (app calls, emitter injections) are far too many to keep
// one by one, so they are folded into an aggregate node: `calls` spans whose
// summed duration is `busy_ns`, occupying the window [start_ns, end_ns]. The
// first few of them are kept individually as samples for the trace file.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small stable id of the calling thread, for the trace file's tid field.
[[nodiscard]] int thread_index();

/// Many short spans of one kind on one shard. Each instance is written by
/// one thread at a time (a shard never runs on two threads at once), so it
/// needs no synchronization; the owner reads it after the run joined.
struct SpanAggregate {
  static constexpr std::size_t kSamples = 256;

  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;
  std::int64_t first_start = 0;
  std::int64_t last_end = 0;
  int tid = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> samples;

  void record(std::int64_t start, std::int64_t end) {
    if (calls == 0) {
      first_start = start;
      tid = thread_index();
      samples.reserve(kSamples);
    }
    ++calls;
    busy_ns += end - start;
    last_end = end;
    if (samples.size() < kSamples) samples.emplace_back(start, end);
  }
};

/// One node of the span tree. busy_ns is the time the node itself covers:
/// end - start for a plain span, the summed call durations for an aggregate.
struct Span {
  std::string name;
  std::string layer;
  int parent = -1;
  int shard = -1;
  int tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 1;
  std::vector<std::pair<std::int64_t, std::int64_t>> samples;
};

/// Span tree of one traced run. begin()/end() nest on the calling thread
/// (the benchmark's main thread); add() attaches finished or aggregate
/// nodes under an explicit parent.
class SpanRecorder {
 public:
  int begin(std::string name, std::string layer, int shard = -1);
  void end(int id);
  /// Attach a finished node; returns its id.
  int add(Span span);
  /// Attach `aggregate` as a node under `parent` (skipped when it holds no
  /// calls; returns -1 then).
  int add_aggregate(const SpanAggregate& aggregate, std::string name,
                    std::string layer, int parent, int shard);

  /// The innermost span open on the main thread, -1 when none.
  [[nodiscard]] int current() const {
    return open_.empty() ? -1 : open_.back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] Span& at(int id) { return spans_.at(std::size_t(id)); }

  /// Chrome trace-event JSON ("X" complete events, microsecond times).
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// busy_ns minus the children's busy_ns, per node. Over a tree whose
/// children never overlap one another, the self times of a subtree add up
/// to its root's busy_ns exactly.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// True when every node's children sum to no more than the node itself —
/// the condition under which self times are meaningful.
[[nodiscard]] bool self_times_consistent(const std::vector<Span>& spans);

struct LayerRow {
  std::string layer;
  std::string span;
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

/// Self time summed per (layer, span name) over the subtree under `root`,
/// in first-seen order.
[[nodiscard]] std::vector<LayerRow> layer_table(const std::vector<Span>& spans,
                                                int root);

/// RAII span on a recorder that may be null (tracing off).
class Scope {
 public:
  Scope(SpanRecorder* recorder, std::string name, std::string layer,
        int shard = -1)
      : recorder_(recorder),
        id_(recorder != nullptr
                ? recorder->begin(std::move(name), std::move(layer), shard)
                : -1) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
