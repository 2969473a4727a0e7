#include "obs/trace.h"

#include <algorithm>
#include <atomic>

#include "obs/json_util.h"
#include "parallel/thread_pool.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace gmark {

using obs_internal::JsonEscape;

namespace {

std::atomic<Tracer*> g_tracer{nullptr};

/// True when `s` is an integer literal (attributes set via the int64
/// overload are exported unquoted).
bool IsIntegerLiteral(const std::string& s) {
  if (s.empty()) return false;
  size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

}  // namespace

Span::Span(Tracer* tracer, std::string name, std::string category)
    : tracer_(tracer) {
  event_.name = std::move(name);
  event_.category = std::move(category);
  event_.ts_nanos = WallTimer::Now() - tracer->epoch_nanos();
}

void Span::SetAttribute(const std::string& key, const std::string& value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(key, value);
}

void Span::SetAttribute(const std::string& key, int64_t value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(key, std::to_string(value));
}

void Span::End() {
  if (tracer_ == nullptr) return;
  event_.dur_nanos =
      WallTimer::Now() - tracer_->epoch_nanos() - event_.ts_nanos;
  event_.tid = ThreadPool::CurrentWorkerId();
  tracer_->AddCompleteEvent(std::move(event_));
  tracer_ = nullptr;
}

Tracer::Tracer(size_t shard_count) : epoch_nanos_(WallTimer::Now()) {
  if (shard_count == 0) {
    shard_count = static_cast<size_t>(ThreadPool::DefaultThreads()) + 1;
  }
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Span Tracer::StartSpan(std::string name, std::string category) {
  return Span(this, std::move(name), std::move(category));
}

void Tracer::AddCompleteEvent(TraceEvent event) {
  const size_t id = static_cast<size_t>(ThreadPool::CurrentWorkerId());
  Shard& shard = *shards_[id % shards_.size()];
  MutexLock lock(shard.mu);
  shard.events.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> events;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    events.insert(events.end(), shard->events.begin(), shard->events.end());
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_nanos != b.ts_nanos) return a.ts_nanos < b.ts_nanos;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.name < b.name;
            });
  return events;
}

size_t Tracer::event_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    n += shard->events.size();
  }
  return n;
}

Status Tracer::WriteChromeTrace(std::ostream& os) const {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : Snapshot()) {
    // Microseconds with nanosecond resolution kept as decimals.
    StrAppend(&out, first ? "\n" : ",\n", "{\"name\": \"", JsonEscape(e.name),
              "\", \"cat\": \"",
              JsonEscape(e.category.empty() ? "gmark" : e.category),
              "\", \"ph\": \"X\", \"ts\": ",
              FormatFixed(static_cast<double>(e.ts_nanos) / 1000.0, 3),
              ", \"dur\": ",
              FormatFixed(static_cast<double>(e.dur_nanos) / 1000.0, 3),
              ", \"pid\": 1, \"tid\": ", e.tid);
    first = false;
    if (!e.args.empty()) {
      out.append(", \"args\": {");
      bool afirst = true;
      for (const auto& [key, value] : e.args) {
        StrAppend(&out, afirst ? "" : ", ", '"', JsonEscape(key), "\": ");
        if (IsIntegerLiteral(value)) {
          out.append(value);
        } else {
          StrAppend(&out, '"', JsonEscape(value), '"');
        }
        afirst = false;
      }
      out.push_back('}');
    }
    out.push_back('}');
  }
  StrAppend(&out, first ? "" : "\n", "], \"displayTimeUnit\": \"ms\"}\n");
  // One unformatted write: the stream's locale and flags never apply.
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!os) return Status::IOError("trace stream write failed");
  return Status::OK();
}

Tracer* GlobalTracer() { return g_tracer.load(std::memory_order_relaxed); }

void SetGlobalTracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

}  // namespace gmark
