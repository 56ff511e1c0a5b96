#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

int SpanRecorder::begin(std::string name, std::string layer, int shard) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = current();
  span.shard = shard;
  span.tid = thread_index();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int id = int(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order: " + at(id).name);
  }
  open_.pop_back();
  Span& span = at(id);
  span.end_ns = now_ns();
  span.busy_ns = span.end_ns - span.start_ns;
}

int SpanRecorder::add(Span span) {
  spans_.push_back(std::move(span));
  return int(spans_.size()) - 1;
}

int SpanRecorder::add_aggregate(const SpanAggregate& aggregate,
                                std::string name, std::string layer,
                                int parent, int shard) {
  if (aggregate.calls == 0) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = parent;
  span.shard = shard;
  span.tid = aggregate.tid;
  span.start_ns = aggregate.first_start;
  span.end_ns = aggregate.last_end;
  span.busy_ns = aggregate.busy_ns;
  span.calls = aggregate.calls;
  span.samples = aggregate.samples;
  return add(std::move(span));
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].busy_ns;
  for (const Span& span : spans) {
    if (span.parent >= 0) self.at(std::size_t(span.parent)) -= span.busy_ns;
  }
  return self;
}

bool self_times_consistent(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  return std::all_of(self.begin(), self.end(),
                     [](std::int64_t ns) { return ns >= 0; });
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans, int root) {
  // A node is in the subtree when walking its parents reaches `root`;
  // parents always precede children, so one forward pass decides it.
  std::vector<bool> inside(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    inside[i] = int(i) == root ||
                (spans[i].parent >= 0 && inside[std::size_t(spans[i].parent)]);
  }
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!inside[i]) continue;
    auto row = std::find_if(rows.begin(), rows.end(), [&](const LayerRow& r) {
      return r.layer == spans[i].layer && r.span == spans[i].name;
    });
    if (row == rows.end()) {
      rows.push_back(LayerRow{spans[i].layer, spans[i].name, 0, 0});
      row = rows.end() - 1;
    }
    row->calls += spans[i].calls;
    row->self_ns += self[i];
  }
  return rows;
}

namespace {

void append_event(std::string& out, const std::string& name,
                  const std::string& layer, int tid, std::int64_t start,
                  std::int64_t end, std::int64_t origin, const char* args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                double(start - origin) / 1e3, double(end - start) / 1e3, tid);
  if (out.size() > 1) out += ",\n";
  out += "{\"name\":\"" + name + "\",\"cat\":\"" + layer +
         "\",\"ph\":\"X\"," + buf + ",\"args\":{" + args + "}}";
}

}  // namespace

std::string SpanRecorder::chrome_trace_json() const {
  std::int64_t origin = 0;
  for (const Span& span : spans_) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  std::string events = "[";
  char args[160];
  for (const Span& span : spans_) {
    std::snprintf(args, sizeof args,
                  "\"calls\":%llu,\"busy_us\":%.3f,\"shard\":%d,\"parent\":%d",
                  static_cast<unsigned long long>(span.calls),
                  double(span.busy_ns) / 1e3, span.shard, span.parent);
    // An aggregate's window overlaps the main-thread spans it is folded
    // under, so it goes on its own track.
    const bool aggregate = span.calls > 1 || !span.samples.empty();
    const int tid = aggregate ? 1000 + span.shard + 1 : span.tid;
    append_event(events, span.name + (aggregate ? " (window)" : ""),
                 span.layer, tid, span.start_ns, span.end_ns, origin, args);
    for (const auto& [start, end] : span.samples) {
      append_event(events, span.name, span.layer, span.tid, start, end,
                   origin, "\"sample\":true");
    }
  }
  return "{\"displayTimeUnit\":\"ns\",\"traceEvents\":" + events + "]}\n";
}

}  // namespace perfbench
