// pipebench: the gMark pipeline benchmark, end to end and per layer.
//
// One process and one closed-loop client run one workload:
//
//   generate    LSN graph (2 generation threads) -> N-Triples -> query
//               workload (all shapes and selectivity classes) -> the
//               four query syntaxes -> workload XML. No evaluation.
//   eval-paths  Len + Rec presets on Bib graphs, engines S (2 eval
//               threads), G and D; identity plans.
//   eval-joins  Con preset on Bib graphs, engines P and D, planned.
//
// Protocol: set up several times (each set-up builds the workload's
// configuration and inputs and runs one untimed warm-up pass; the
// median is setup_s), then run timed passes until --seconds have
// elapsed, then check the outputs. The timed passes also run a fixed
// reference job between their units (a unit is one evaluation, one batch
// of translations or one generation phase); the timed metrics are each
// unit's median time over the passes at the reference's nominal speed
// (see HostReference). Every layer is timed from outside,
// around the calls this file makes into the library; with --trace 1
// those calls get spans on a gmark::Tracer, traced and untraced passes
// alternate, and the per-layer numbers come from the traced passes.
//
// The last line of stdout is the result object; the full record
// (provenance, every metric with its samples and quartiles, the gate's
// findings, the per-layer self times) goes to <out-dir>/records/. A
// failed correctness check prints the result with "correct": false and
// exits 1; an error exits 2 without a result. See pipebench/README.md.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/use_cases.h"
#include "engine/engines.h"
#include "engine/evaluator.h"
#include "graph/graph_io.h"
#include "obs/json_util.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/parallel_generator.h"
#include "plan/planner.h"
#include "translate/translator.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

using namespace gmark;

namespace {

// ------------------------------------------------------------ settings

constexpr int kWorkers = 2;       // Generation and S-engine threads.
constexpr int kSetups = 3;        // Set-ups per run; setup_s is their median.
constexpr size_t kMinPasses = 3;  // Timed passes even if --seconds is short.

constexpr int64_t kGenerateNodes = 1000000;
constexpr size_t kGenerateQueries = 20000;
// Translation latency is read per batch of this many queries, so that a
// reading lasts milliseconds, not the ~25 us of one query, and p95 still
// has ten batches beyond it.
constexpr size_t kTranslateBatch = 100;

constexpr int64_t kEvalNodes = 5000;
constexpr uint64_t kEvalSuiteSeed = 7;  // The eval query suite (fixed).
// Each eval query runs on this many graph instances of its own, so one
// instance's hubs do not make every query of a run heavy at once.
constexpr size_t kEvalReplicas = 1;
// The deterministic kill. Near it a completed query costs about what a
// kill costs; higher ceilings make the pass time a property of which
// few queries land near it (see README.md).
constexpr size_t kTupleCeiling = 100000;
constexpr double kTimeCeilingS = 30.0;  // Safety net only.
// Evaluations between two runs of the host-speed reference job.
constexpr size_t kReferenceEvery = 8;
constexpr size_t kReferenceTuples = 20000000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out_dir = ".bench_build/pipebench";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "pipebench: %s\n", msg.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

// ---------------------------------------------------------- statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Quartiles by the exclusive method, as Python's
/// statistics.quantiles(n=4).
std::pair<double, double> Quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double x = v.empty() ? 0.0 : v[0];
    return {x, x};
  }
  std::sort(v.begin(), v.end());
  const double m = static_cast<double>(v.size()) + 1.0;
  auto at = [&](double pos) {  // 1-based fractional position.
    pos = std::clamp(pos, 1.0, static_cast<double>(v.size()));
    const size_t lo = static_cast<size_t>(std::floor(pos));
    if (lo >= v.size()) return v.back();
    return v[lo - 1] + (pos - static_cast<double>(lo)) * (v[lo] - v[lo - 1]);
  };
  return {at(m * 0.25), at(m * 0.75)};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// -------------------------------------------------------------- digest

/// 64-bit content digest of a byte stream, independent of how the
/// stream is split into Update calls (whole 8-byte words are mixed; a
/// partial word carries over).
class Digest {
 public:
  void Update(const char* data, size_t n) {
    bytes_ += n;
    while (n > 0 && tail_len_ != 0) {
      tail_[tail_len_++] = *data++;
      --n;
      if (tail_len_ == 8) {
        Mix(tail_.data());
        tail_len_ = 0;
      }
    }
    for (; n >= 8; n -= 8, data += 8) Mix(data);
    for (; n > 0; --n) tail_[tail_len_++] = *data++;
  }
  uint64_t Finish() const {
    uint64_t w = 0;
    std::memcpy(&w, tail_.data(), tail_len_);
    return SplitMix64(h_ ^ SplitMix64(w ^ (bytes_ << 3)));
  }
  uint64_t bytes() const { return bytes_; }

 private:
  void Mix(const char* p) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h_ ^= w * 0x9E3779B97F4A7C15ULL;
    h_ = ((h_ << 31) | (h_ >> 33)) * 0xC2B2AE3D27D4EB4FULL;
  }
  uint64_t h_ = 0x243F6A8885A308D3ULL;
  uint64_t bytes_ = 0;
  std::array<char, 8> tail_{};
  size_t tail_len_ = 0;
};

/// Byte-counting, digesting ostream target: serialization cost without
/// disk I/O.
class DigestBuf : public std::streambuf {
 public:
  DigestBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }
  const Digest& digest() {
    Drain();
    return digest_;
  }

 protected:
  int_type overflow(int_type ch) override {
    Drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    Drain();
    return 0;
  }

 private:
  void Drain() {
    digest_.Update(pbase(), static_cast<size_t>(pptr() - pbase()));
    setp(buf_.data(), buf_.data() + buf_.size());
  }
  std::array<char, 1 << 16> buf_;
  Digest digest_;
};

std::string Hex(uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

// ---------------------------------------------------------- host speed

/// The host's speed, measured with a fixed reference job. On a shared VM
/// the speed of the same code drifts by tens of percent over minutes:
/// other tenants load the machine. The timed passes run the reference
/// job between their units (evaluations, translation batches, phases),
/// and a pass's times are scaled by the job's nominal time over its
/// measured time in that pass. The scaled times are what the same pass
/// takes at a fixed host speed, so two runs of the same code agree.
///
/// The job is this file's own code, not the library's, so a change to
/// the library does not change the yardstick: BFS over a random graph
/// and a hash join with std::unordered_multimap, the kinds of work the
/// engines do. It is built once per process from a fixed seed.
class HostReference {
 public:
  /// A round figure near the job's time on the VM the bounds were set on
  /// (Intel Xeon, 2.1 GHz). It fixes the scale of the normalized times.
  static constexpr double kNominalS = 1e-3;

  HostReference() {
    uint64_t x = 0x5EEDULL;
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t i = 0; i < kEdges; ++i) {
      x = SplitMix64(x);
      edges.push_back({static_cast<uint32_t>(x % kNodes),
                       static_cast<uint32_t>((x >> 32) % kNodes)});
    }
    std::sort(edges.begin(), edges.end());
    offsets_.assign(kNodes + 1, 0);
    for (const auto& [from, to] : edges) {
      ++offsets_[from + 1];
      targets_.push_back(to);
    }
    for (uint32_t v = 0; v < kNodes; ++v) offsets_[v + 1] += offsets_[v];
    for (uint32_t i = 0; i < kPairs; ++i) {
      x = SplitMix64(x);
      left_.push_back({static_cast<uint32_t>(x % kNodes),
                       static_cast<uint32_t>((x >> 32) % kNodes)});
      x = SplitMix64(x);
      right_.push_back({static_cast<uint32_t>(x % kNodes),
                        static_cast<uint32_t>((x >> 32) % kNodes)});
    }
  }

  /// Runs the job once and adds its wall seconds to the pass's tally.
  void Run(double* seconds, size_t* runs) {
    const int64_t t0 = WallTimer::Now();
    uint64_t reached = 0;
    std::vector<char> seen(kNodes);
    std::vector<uint32_t> queue;
    for (uint32_t source : {0u, kNodes / 2}) {
      std::fill(seen.begin(), seen.end(), 0);
      queue.assign(1, source);
      seen[source] = 1;
      for (size_t head = 0; head < queue.size(); ++head) {
        for (uint32_t e = offsets_[queue[head]]; e < offsets_[queue[head] + 1];
             ++e) {
          if (!seen[targets_[e]]) {
            seen[targets_[e]] = 1;
            queue.push_back(targets_[e]);
          }
        }
      }
      reached += queue.size();
    }
    std::unordered_multimap<uint32_t, uint32_t> index;
    index.reserve(left_.size());
    for (const auto& [a, b] : left_) index.emplace(b, a);
    std::vector<std::pair<uint32_t, uint32_t>> joined;
    for (const auto& [b, c] : right_) {
      const auto [lo, hi] = index.equal_range(b);
      for (auto it = lo; it != hi; ++it) joined.push_back({it->second, c});
    }
    sink_ = reached + joined.size();
    *seconds += static_cast<double>(WallTimer::Now() - t0) * 1e-9;
    ++*runs;
  }

 private:
  static constexpr uint32_t kNodes = 5000;
  static constexpr uint32_t kEdges = 30000;
  static constexpr uint32_t kPairs = 6000;
  std::vector<uint32_t> offsets_, targets_;
  std::vector<std::pair<uint32_t, uint32_t>> left_, right_;
  volatile uint64_t sink_ = 0;  // Keeps the job's result alive.
};

/// The reference job's tally within one pass.
struct HostTally {
  double seconds = 0.0;
  size_t runs = 0;
  /// Factor from this pass's wall times to times at the nominal speed.
  double Scale() const {
    return static_cast<double>(runs) * HostReference::kNominalS / seconds;
  }
};

// ------------------------------------------------------------- tracing

/// A span around one library call when the pass is traced (`tracer`
/// non-null); a no-op span otherwise.
Span Trace(Tracer* tracer, const char* name, const char* layer) {
  return tracer == nullptr ? Span() : tracer->StartSpan(name, layer);
}

/// Serializes `graph` as N-Triples into `buf` under a graph_io span.
void DigestNTriples(const Graph& graph, const GraphSchema& schema,
                    DigestBuf* buf, Tracer* tracer) {
  std::ostream os(buf);
  Span span = Trace(tracer, "WriteNTriples", "graph_io");
  Status st = WriteNTriples(graph, schema, &os);
  if (!st.ok()) Die("WriteNTriples: " + st.ToString());
  os.flush();
}

double SpanSeconds(const std::vector<TraceEvent>& events, const char* name) {
  int64_t ns = 0;
  for (const TraceEvent& e : events) {
    if (e.name == name) ns += e.dur_nanos;
  }
  return static_cast<double>(ns) * 1e-9;
}

/// Per layer (span category): total seconds, and self seconds — a
/// span's duration minus what its direct children cover. Children are
/// found by time containment, as trace viewers nest same-thread spans.
using LayerTimes = std::map<std::string, std::pair<double, double>>;
void AddLayerTimes(std::vector<TraceEvent> events, LayerTimes* out) {
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_nanos != b.ts_nanos ? a.ts_nanos < b.ts_nanos
                                              : a.dur_nanos > b.dur_nanos;
            });
  std::vector<int64_t> child_ns(events.size(), 0);
  std::vector<size_t> open;
  for (size_t i = 0; i < events.size(); ++i) {
    while (!open.empty() && events[open.back()].ts_nanos +
                                    events[open.back()].dur_nanos <=
                                events[i].ts_nanos) {
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += events[i].dur_nanos;
    open.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    auto& cell = (*out)[events[i].category];
    cell.first += static_cast<double>(events[i].dur_nanos) * 1e-9;
    cell.second +=
        static_cast<double>(events[i].dur_nanos - child_ns[i]) * 1e-9;
  }
}

// -------------------------------------------------------------- output

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  return "\"" + obs_internal::JsonEscape(s) + "\"";
}

/// Ordered name -> (value, unit) table.
struct MetricTable {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;

  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& row : rows) {
      if (row.first == name) {
        row.second = {value, unit};
        return;
      }
    }
    rows.push_back({name, {value, unit}});
  }
  double Get(const std::string& name) const {
    for (const auto& row : rows) {
      if (row.first == name) return row.second.first;
    }
    return 0.0;
  }
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < rows.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(rows[i].first) +
             ": {\"value\": " + JsonNumber(rows[i].second.first) +
             ", \"unit\": " + JsonString(rows[i].second.second) + "}";
    }
    return out + "}";
  }
};

/// A timed quantity with its per-pass samples, for the record.
struct Sampled {
  std::string name;
  std::string unit;
  std::vector<double> samples;

  double value() const { return Median(samples); }
  std::string ToJson() const {
    const auto [q1, q3] = Quartiles(samples);
    std::string out = "{\"name\": " + JsonString(name) +
                      ", \"unit\": " + JsonString(unit) +
                      ", \"value\": " + JsonNumber(value()) +
                      ", \"samples\": " + std::to_string(samples.size()) +
                      ", \"q1\": " + JsonNumber(q1) +
                      ", \"q3\": " + JsonNumber(q3) + ", \"all\": [";
    for (size_t i = 0; i < samples.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonNumber(samples[i]);
    }
    return out + "]}";
  }
};

// ------------------------------------------------------------ run state

/// What a workload run hands back to main for output.
struct RunReport {
  MetricTable end_to_end;
  MetricTable per_layer;
  std::vector<Sampled> detail;  // Every timed quantity with its samples.
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::string> gate_failures;
  std::vector<std::string> flags;        // Steadiness defects (time kills).
  std::vector<std::string> evaluations;  // JSON rows of one timed pass.
  double peak_rss_mb = 0.0;  // Read after the timed passes, before the gate.
  LayerTimes layer_times;
  std::unique_ptr<Tracer> exported;  // The traced pass written out.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The timed passes of a run. Pass ids index the run's pass vector;
/// set-ups take the first ids.
struct PassLog {
  std::vector<int> untraced, traced;
  std::vector<double> untraced_s, traced_s;
  std::vector<std::unique_ptr<Tracer>> tracers;  // Parallel to `traced`.
};

/// Runs timed passes until `seconds` have elapsed (and at least
/// kMinPasses, or with tracing two of each kind, alternating).
/// `run_pass(tracer)` runs one pass, traced when `tracer` is non-null,
/// and returns its wall seconds.
template <typename PassFn>
void RunTimedPasses(const Options& opt, int first_pass, PassLog* log,
                    PassFn run_pass) {
  const int64_t budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
  const int64_t start = WallTimer::Now();
  const size_t min_each = opt.trace ? 2 : kMinPasses;
  for (int pass = first_pass;; ++pass) {
    std::unique_ptr<Tracer> tracer;
    if (opt.trace && (pass - first_pass) % 2 == 1) {
      tracer = std::make_unique<Tracer>(1);
    }
    const double s = run_pass(tracer.get());
    if (tracer != nullptr) {
      log->traced.push_back(pass);
      log->traced_s.push_back(s);
      log->tracers.push_back(std::move(tracer));
    } else {
      log->untraced.push_back(pass);
      log->untraced_s.push_back(s);
    }
    const bool enough = log->untraced.size() >= min_each &&
                        (!opt.trace || log->traced.size() >= min_each);
    if (enough && WallTimer::Now() - start >= budget_ns) break;
  }
}

/// Per-layer self/total times over the traced passes; the first traced
/// pass moves into the report, to be exported as a Chrome trace.
void RecordLayerTimes(PassLog* log, RunReport* rep) {
  for (const auto& tracer : log->tracers) {
    AddLayerTimes(tracer->Snapshot(), &rep->layer_times);
  }
  rep->exported = std::move(log->tracers.front());
}

/// Each unit's median time over the untraced timed passes, every reading
/// scaled to the nominal host speed by its own pass's HostTally.
template <typename Pass, typename Units>
std::vector<double> NormalizedUnitMedians(const std::vector<Pass>& passes,
                                          const std::vector<int>& ids,
                                          Units units) {
  std::vector<std::vector<double>> readings;
  for (int id : ids) {
    const double scale = passes[id].host.Scale();
    const std::vector<double> u = units(passes[id]);
    readings.resize(u.size());
    for (size_t k = 0; k < u.size(); ++k) readings[k].push_back(u[k] * scale);
  }
  std::vector<double> medians;
  for (const std::vector<double>& r : readings) medians.push_back(Median(r));
  return medians;
}

/// The timed end-to-end metrics: setup_s, the median set-up (wall time);
/// pass_norm_s, the sum of the units' normalized median times; and
/// percentiles over `latency_ms`, one normalized median latency per
/// query or evaluation. The record keeps the host speed of every pass.
template <typename Pass>
void SetTimedMetrics(const std::vector<double>& setup_s, double pass_s,
                     const std::vector<double>& latency_ms,
                     const std::vector<Pass>& passes, const PassLog& log,
                     RunReport* rep) {
  rep->end_to_end.Set("setup_s", Median(setup_s), "s");
  rep->end_to_end.Set("pass_norm_s", pass_s, "s");
  rep->end_to_end.Set("query_p50_norm_ms", Percentile(latency_ms, 50), "ms");
  rep->end_to_end.Set("query_p95_norm_ms", Percentile(latency_ms, 95), "ms");
  rep->params.push_back({"timed_passes", std::to_string(log.untraced.size())});
  rep->params.push_back({"latency_samples",
                         std::to_string(latency_ms.size())});
  Sampled speed{"host_speed", "ratio", {}};  // Above 1: faster than nominal.
  for (int id : log.untraced) speed.samples.push_back(passes[id].host.Scale());
  rep->detail.push_back({"setup_s", "s", setup_s});
  rep->detail.push_back({"pass_wall_s", "s", log.untraced_s});
  rep->detail.push_back(speed);
}

// ============================================================ generate

struct GeneratePass {
  double seconds = 0.0;  // Without the reference job's runs.
  HostTally host;
  GenerateStats stats;
  double graph_s = 0.0;
  uint64_t ntriples_digest = 0;
  uint64_t ntriples_bytes = 0;
  double ntriples_s = 0.0;
  double workload_s = 0.0;
  size_t generated = 0;
  size_t skipped = 0;
  double translate_s = 0.0;
  size_t translate_failed = 0;
  uint64_t translate_bytes = 0;
  std::vector<double> batch_s;  // Each batch of kTranslateBatch queries.
  uint64_t xml_digest = 0;
  uint64_t xml_bytes = 0;
  double xml_s = 0.0;
};

WorkloadConfiguration GenerateWorkloadConfig(uint64_t seed) {
  WorkloadConfiguration w;
  w.name = "pipebench-generate";
  w.num_queries = kGenerateQueries;
  w.seed = seed;
  w.arity = IntRange::Exactly(2);
  w.shapes = {QueryShape::kChain, QueryShape::kStar, QueryShape::kCycle,
              QueryShape::kStarChain};
  w.selectivities = {QuerySelectivity::kConstant, QuerySelectivity::kLinear,
                     QuerySelectivity::kQuadratic};
  w.recursion_probability = 0.3;
  w.size.rules = IntRange::Exactly(1);
  w.size.conjuncts = IntRange::Between(1, 3);
  w.size.disjuncts = IntRange::Between(1, 2);
  w.size.path_length = IntRange::Between(1, 3);
  w.selectivity_control = true;
  return w;
}

GeneratePass RunGeneratePass(const GraphConfiguration& config,
                             const WorkloadConfiguration& wconfig,
                             HostReference* ref, Tracer* tracer) {
  GeneratePass out;
  auto measure_host = [&] { ref->Run(&out.host.seconds, &out.host.runs); };
  const int64_t t0 = WallTimer::Now();
  measure_host();
  {
    GeneratorOptions gopts;
    gopts.num_threads = kWorkers;
    WallTimer t;
    std::optional<Graph> graph;
    {
      Span span = Trace(tracer, "ParallelGenerateGraph", "graph");
      graph.emplace(Must(ParallelGenerateGraph(config, gopts, &out.stats),
                         "ParallelGenerateGraph"));
    }
    out.graph_s = t.ElapsedSeconds();
    measure_host();
    t.Restart();
    DigestBuf buf;
    DigestNTriples(*graph, config.schema, &buf, tracer);
    out.ntriples_s = t.ElapsedSeconds();
    measure_host();
    out.ntriples_digest = buf.digest().Finish();
    out.ntriples_bytes = buf.digest().bytes();
  }  // The graph is released before the query pipeline runs.

  WallTimer t;
  std::optional<Workload> workload;
  {
    Span span = Trace(tracer, "QueryGenerator::Generate", "workload");
    QueryGenerator generator(&config.schema);
    workload.emplace(
        Must(generator.Generate(wconfig), "QueryGenerator::Generate"));
  }
  out.workload_s = t.ElapsedSeconds();
  measure_host();
  out.generated = workload->queries.size();
  out.skipped = workload->skipped.size();

  static const char* const kSpanNames[] = {
      "TranslateQuery/sparql", "TranslateQuery/cypher", "TranslateQuery/sql",
      "TranslateQuery/datalog"};
  const std::vector<QueryLanguage> langs = AllQueryLanguages();
  TranslateOptions topts;
  topts.count_distinct = true;
  const std::vector<GeneratedQuery>& queries = workload->queries;
  for (size_t b = 0; b < queries.size(); b += kTranslateBatch) {
    const size_t end = std::min(queries.size(), b + kTranslateBatch);
    const int64_t q0 = WallTimer::Now();
    for (size_t q = b; q < end; ++q) {
      for (size_t l = 0; l < langs.size(); ++l) {
        Span span = Trace(tracer, kSpanNames[l], "translate");
        Result<std::string> text =
            TranslateQuery(queries[q].query, config.schema, langs[l], topts);
        if (text.ok()) {
          out.translate_bytes += text.ValueOrDie().size();
        } else {
          ++out.translate_failed;
        }
      }
    }
    out.batch_s.push_back(static_cast<double>(WallTimer::Now() - q0) * 1e-9);
    out.translate_s += out.batch_s.back();
    if (out.batch_s.size() % 2 == 0) measure_host();
  }

  t.Restart();
  std::string xml;
  {
    Span span = Trace(tracer, "Workload::ToXml", "query");
    xml = workload->ToXml(config.schema);
  }
  out.xml_s = t.ElapsedSeconds();
  Digest d;
  d.Update(xml.data(), xml.size());
  out.xml_digest = d.Finish();
  out.xml_bytes = d.bytes();
  measure_host();
  out.seconds =
      static_cast<double>(WallTimer::Now() - t0) * 1e-9 - out.host.seconds;
  return out;
}

RunReport RunGenerate(const Options& opt) {
  const uint64_t graph_seed = DeriveSeed(opt.seed, 1);
  const uint64_t query_seed = DeriveSeed(opt.seed, 2);
  RunReport rep;
  rep.params = {{"schema", "LSN"},
                {"nodes", std::to_string(kGenerateNodes)},
                {"gen_threads", std::to_string(kWorkers)},
                {"queries", std::to_string(kGenerateQueries)},
                {"shapes", "chain,star,cycle,starchain"},
                {"selectivities", "constant,linear,quadratic"},
                {"recursion_probability", "0.3"},
                {"languages", "sparql,cypher,sql,datalog"},
                {"engines", "none"},
                {"graph_seed", std::to_string(graph_seed)},
                {"query_seed", std::to_string(query_seed)}};

  HostReference host;
  std::vector<GeneratePass> passes;
  std::vector<double> setup_s;
  GraphConfiguration config;
  WorkloadConfiguration wconfig;
  for (int s = 0; s < kSetups; ++s) {
    WallTimer t;
    config = MakeLsnConfig(kGenerateNodes, graph_seed);
    wconfig = GenerateWorkloadConfig(query_seed);
    passes.push_back(
        RunGeneratePass(config, wconfig, &host, nullptr));  // Warm-up.
    setup_s.push_back(t.ElapsedSeconds());
  }
  PassLog log;
  RunTimedPasses(opt, kSetups, &log, [&](Tracer* tracer) {
    Span span = Trace(tracer, "pass", "bench");
    passes.push_back(RunGeneratePass(config, wconfig, &host, tracer));
    return passes.back().seconds;
  });
  rep.peak_rss_mb = PeakRssMb();

  // ----- gate: digests repeat across passes and match a 1-thread build.
  const GeneratePass& ref = passes.front();
  for (size_t i = 1; i < passes.size(); ++i) {
    if (passes[i].ntriples_digest != ref.ntriples_digest ||
        passes[i].ntriples_bytes != ref.ntriples_bytes) {
      rep.gate_failures.push_back("N-Triples digest differs in pass " +
                                  std::to_string(i));
    }
    if (passes[i].xml_digest != ref.xml_digest) {
      rep.gate_failures.push_back("workload XML digest differs in pass " +
                                  std::to_string(i));
    }
    if (passes[i].skipped != ref.skipped ||
        passes[i].translate_failed != ref.translate_failed ||
        passes[i].translate_bytes != ref.translate_bytes) {
      rep.gate_failures.push_back("query pipeline counts differ in pass " +
                                  std::to_string(i));
    }
  }
  {
    GeneratorOptions serial;
    serial.num_threads = 1;
    Graph g = Must(ParallelGenerateGraph(config, serial), "1-thread build");
    DigestBuf buf;
    DigestNTriples(g, config.schema, &buf, nullptr);
    if (buf.digest().Finish() != ref.ntriples_digest) {
      rep.gate_failures.push_back(
          "N-Triples digest of the 2-thread build differs from the "
          "1-thread build");
    }
  }
  const uint64_t attempted_per_pass = kGenerateQueries + 4 * ref.generated;
  const uint64_t failed_per_pass = ref.skipped + ref.translate_failed;
  const double failed_ratio = static_cast<double>(failed_per_pass) /
                              static_cast<double>(attempted_per_pass);
  rep.params.push_back({"edges", std::to_string(ref.stats.total_edges)});
  rep.params.push_back({"ntriples_digest", Hex(ref.ntriples_digest)});
  rep.params.push_back({"workload_xml_digest", Hex(ref.xml_digest)});
  rep.params.push_back({"failed_ratio", JsonNumber(failed_ratio)});
  rep.attempted = attempted_per_pass * log.untraced.size();
  rep.failed = failed_per_pass * log.untraced.size();

  // ----- end-to-end metrics (untraced passes), and the per-phase
  // throughputs the record keeps beside them.
  auto sample = [&](const char* name, const char* unit, auto f) {
    Sampled s{name, unit, {}};
    for (int id : log.untraced) s.samples.push_back(f(passes[id]));
    rep.detail.push_back(s);
  };
  const std::vector<double> unit_s = NormalizedUnitMedians(
      passes, log.untraced, [](const GeneratePass& g) {
        std::vector<double> u = {g.graph_s, g.ntriples_s, g.workload_s,
                                 g.xml_s};
        u.insert(u.end(), g.batch_s.begin(), g.batch_s.end());
        return u;
      });
  std::vector<double> query_ms;  // Per query, from its batch.
  for (size_t b = 0; b < ref.batch_s.size(); ++b) {
    const size_t n =
        std::min(kTranslateBatch, ref.generated - b * kTranslateBatch);
    query_ms.push_back(unit_s[4 + b] * 1e3 / static_cast<double>(n));
  }
  double pass_s = 0.0;
  for (double x : unit_s) pass_s += x;
  SetTimedMetrics(setup_s, pass_s, query_ms, passes, log, &rep);
  sample("graph_edges_per_s", "1/s", [](const GeneratePass& g) {
    return g.stats.total_edges / g.graph_s;
  });
  sample("ntriples_mb_per_s", "MB/s", [](const GeneratePass& g) {
    return g.ntriples_bytes / 1e6 / g.ntriples_s;
  });
  sample("workload_queries_per_s", "1/s", [](const GeneratePass& g) {
    return g.generated / g.workload_s;
  });
  sample("translate_queries_per_s", "1/s", [](const GeneratePass& g) {
    return g.generated / g.translate_s;
  });
  sample("workload_xml_mb_per_s", "MB/s", [](const GeneratePass& g) {
    return g.xml_bytes / 1e6 / g.xml_s;
  });
  rep.detail.push_back({"pass_wall_s_traced", "s", log.traced_s});
  rep.end_to_end.Set("answered_ratio", 1.0 - failed_ratio, "ratio");

  // ----- per-layer metrics (traced passes).
  if (opt.trace) {
    std::vector<std::vector<TraceEvent>> events;
    for (const auto& tracer : log.tracers) events.push_back(tracer->Snapshot());
    auto span_med = [&](const char* name) {
      std::vector<double> v;
      for (const auto& e : events) v.push_back(SpanSeconds(e, name));
      return Median(v);
    };
    auto stat_med = [&](auto f) {
      std::vector<double> v;
      for (int id : log.traced) v.push_back(f(passes[id].stats));
      return Median(v);
    };
    MetricTable& L = rep.per_layer;
    L.Set("graph.generate_s",
          stat_med([](const GenerateStats& s) { return s.generate_seconds; }),
          "s");
    L.Set("graph.index_s",
          stat_med([](const GenerateStats& s) { return s.index_seconds; }),
          "s");
    L.Set("graph.index_groups",
          static_cast<double>(ref.stats.index_forward_groups +
                              ref.stats.index_transpose_groups),
          "count");
    L.Set("parallel.peak_edge_mb", ref.stats.peak_resident_edge_bytes / 1e6,
          "MB");
    L.Set("graph_io.ntriples_s", span_med("WriteNTriples"), "s");
    L.Set("graph_io.ntriples_mb", ref.ntriples_bytes / 1e6, "MB");
    L.Set("workload.generate_s", span_med("QueryGenerator::Generate"), "s");
    L.Set("workload.skipped", static_cast<double>(ref.skipped), "count");
    L.Set("translate.sparql_s", span_med("TranslateQuery/sparql"), "s");
    L.Set("translate.cypher_s", span_med("TranslateQuery/cypher"), "s");
    L.Set("translate.sql_s", span_med("TranslateQuery/sql"), "s");
    L.Set("translate.datalog_s", span_med("TranslateQuery/datalog"), "s");
    L.Set("translate.mb", ref.translate_bytes / 1e6, "MB");
    L.Set("query.xml_s", span_med("Workload::ToXml"), "s");
    L.Set("query.xml_mb", ref.xml_bytes / 1e6, "MB");
    RecordLayerTimes(&log, &rep);
  }
  return rep;
}

// ================================================================ eval

struct EngineSlot {
  EngineKind kind;
  int threads = 1;
  std::unique_ptr<Executor> executor;
  std::unique_ptr<QueryEngine> engine;
};

/// One evaluation's outcome; equal outcomes across passes are the gate.
struct Outcome {
  enum Kind { kOk, kTupleKill, kTimeKill } kind = kOk;
  uint64_t count = 0;
  bool operator==(const Outcome&) const = default;
};

struct EvalPass {
  double seconds = 0.0;  // Without the reference job's runs.
  HostTally host;
  std::vector<Outcome> outcomes;  // Engine-major over the items.
  std::vector<double> latency_ms;
  std::map<EngineKind, double> engine_s;
  // Counts over the evaluations whose profile is deterministic: every
  // completed one, and the kills of serially evaluating engines (a kill
  // under 2 eval threads stops the workers at a scheduling-dependent
  // point). Peaks are summed over evaluations.
  uint64_t bfs_pops = 0;
  uint64_t bfs_peak_frontier = 0;
  uint64_t fixpoint_rounds = 0;
  uint64_t peak_tuples = 0;
  uint64_t tuples_scanned = 0;
  // Completed evaluations with BFS work: result rows and their pops.
  uint64_t bfs_result_rows = 0;
  uint64_t bfs_result_pops = 0;
  std::vector<double> qerrors;  // Planned steps of completed evaluations.
  // Times over every evaluation.
  double step_s = 0.0;
  double eval_s = 0.0;
  double plan_s = 0.0;
  uint64_t kills_tuple = 0;
  uint64_t kills_time = 0;
};

/// One unit of a pass: a query on the graph instance it runs on.
struct EvalItem {
  size_t query = 0;
  size_t graph = 0;
  std::string label;  // "<preset>/<query>@<instance>"
};

/// Everything a set-up builds: configuration, graphs, queries, engines.
struct EvalState {
  GraphConfiguration config;
  std::vector<Graph> graphs;
  GenerateStats stats;  // Summed over instances (peak: the largest).
  std::vector<Query> queries;
  std::vector<std::string> query_labels;
  std::vector<EvalItem> items;
  size_t skipped = 0;
  std::unique_ptr<Planner> planner;
  std::vector<EngineSlot> engines;
  uint64_t ntriples_digest = 0;
  uint64_t ntriples_bytes = 0;
  uint64_t xml_digest = 0;
  uint64_t xml_bytes = 0;
};

std::vector<WorkloadPreset> EvalPresets(bool joins) {
  if (joins) return {WorkloadPreset::kCon};
  return {WorkloadPreset::kLen, WorkloadPreset::kRec};
}

size_t QueriesPerPreset(bool joins) { return joins ? 120 : 40; }

std::unique_ptr<EvalState> BuildEvalState(bool joins, uint64_t graph_seed,
                                          Tracer* tracer) {
  auto st = std::make_unique<EvalState>();
  st->config = MakeBibConfig(kEvalNodes, graph_seed);
  Digest xml_digest;
  QueryGenerator generator(&st->config.schema);
  for (WorkloadPreset preset : EvalPresets(joins)) {
    const WorkloadConfiguration w = MakePresetWorkload(
        preset, QueriesPerPreset(joins),
        DeriveSeed(kEvalSuiteSeed, static_cast<uint64_t>(preset)));
    std::optional<Workload> wl;
    {
      Span span = Trace(tracer, "QueryGenerator::Generate", "workload");
      wl.emplace(Must(generator.Generate(w), "QueryGenerator::Generate"));
    }
    st->skipped += wl->skipped.size();
    std::string xml;
    {
      Span span = Trace(tracer, "Workload::ToXml", "query");
      xml = wl->ToXml(st->config.schema);
    }
    xml_digest.Update(xml.data(), xml.size());
    for (const GeneratedQuery& gq : wl->queries) {
      st->queries.push_back(gq.query);
      st->query_labels.push_back(std::string(WorkloadPresetName(preset)) +
                                 "/" + gq.query.name);
    }
  }
  st->xml_digest = xml_digest.Finish();
  st->xml_bytes = xml_digest.bytes();
  if (st->queries.empty()) Die("the workload generated no queries");

  // One instance per (replica, query); the digest names them all.
  DigestBuf ntriples;
  const size_t instances = kEvalReplicas * st->queries.size();
  for (size_t i = 0; i < instances; ++i) {
    st->config.seed = DeriveSeed(graph_seed, i);
    GeneratorOptions gopts;
    gopts.num_threads = kWorkers;
    GenerateStats stats;
    {
      Span span = Trace(tracer, "ParallelGenerateGraph", "graph");
      st->graphs.push_back(Must(
          ParallelGenerateGraph(st->config, gopts, &stats),
          "ParallelGenerateGraph"));
    }
    DigestNTriples(st->graphs.back(), st->config.schema, &ntriples, tracer);
    st->stats.total_edges += stats.total_edges;
    st->stats.generate_seconds += stats.generate_seconds;
    st->stats.index_seconds += stats.index_seconds;
    st->stats.index_forward_groups += stats.index_forward_groups;
    st->stats.index_transpose_groups += stats.index_transpose_groups;
    st->stats.peak_resident_edge_bytes = std::max(
        st->stats.peak_resident_edge_bytes, stats.peak_resident_edge_bytes);
    const size_t q = i % st->queries.size();
    st->items.push_back(
        {q, i, st->query_labels[q] + "@" + std::to_string(i)});
  }
  st->ntriples_digest = ntriples.digest().Finish();
  st->ntriples_bytes = ntriples.digest().bytes();

  if (joins) st->planner = std::make_unique<Planner>(&st->config.schema);
  const std::vector<std::pair<EngineKind, int>> kinds =
      joins ? std::vector<std::pair<EngineKind, int>>{
                  {EngineKind::kRelational, 1}, {EngineKind::kDatalog, 1}}
            : std::vector<std::pair<EngineKind, int>>{
                  {EngineKind::kSparql, kWorkers},
                  {EngineKind::kCypher, 1},
                  {EngineKind::kDatalog, 1}};
  for (auto [kind, threads] : kinds) {
    EngineSlot slot;
    slot.kind = kind;
    slot.threads = threads;
    slot.executor = std::make_unique<Executor>(threads);
    EvalOptions eopts;
    eopts.executor = slot.executor.get();
    eopts.planner = st->planner.get();
    slot.engine = MakeEngine(kind, eopts);
    st->engines.push_back(std::move(slot));
  }
  return st;
}

const char* EngineSpanName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kRelational: return "QueryEngine::Evaluate/P";
    case EngineKind::kSparql: return "QueryEngine::Evaluate/S";
    case EngineKind::kCypher: return "QueryEngine::Evaluate/G";
    case EngineKind::kDatalog: return "QueryEngine::Evaluate/D";
  }
  return "QueryEngine::Evaluate";
}

EvalPass RunEvalPass(const EvalState& st, HostReference* ref,
                     Tracer* tracer) {
  EvalPass out;
  const ResourceBudget budget =
      ResourceBudget::Limited(kTimeCeilingS, kTupleCeiling);
  out.outcomes.reserve(st.items.size() * st.engines.size());
  out.latency_ms.reserve(st.items.size() * st.engines.size());
  const int64_t t0 = WallTimer::Now();
  for (const EngineSlot& slot : st.engines) {
    for (const EvalItem& item : st.items) {
      if (out.outcomes.size() % kReferenceEvery == 0) {
        ref->Run(&out.host.seconds, &out.host.runs);
      }
      const Query& query = st.queries[item.query];
      const Graph& graph = st.graphs[item.graph];
      EvalProfile profile;
      EvalContext ctx;
      ctx.profile = &profile;
      const int64_t q0 = WallTimer::Now();
      std::optional<Result<uint64_t>> result;
      {
        Span span = Trace(tracer, EngineSpanName(slot.kind), "engine");
        result.emplace(slot.engine->Evaluate(graph, query, budget, &ctx));
      }
      const double dt = static_cast<double>(WallTimer::Now() - q0) * 1e-9;
      out.latency_ms.push_back(dt * 1e3);
      out.engine_s[slot.kind] += dt;
      out.eval_s += dt;
      for (const ConjunctProfile& c : profile.conjuncts) out.step_s += c.seconds;

      if (result->ok() || slot.threads == 1) {
        out.bfs_pops += profile.bfs_pops;
        out.bfs_peak_frontier += profile.bfs_peak_frontier;
        out.fixpoint_rounds += profile.fixpoint_rounds;
        out.peak_tuples += profile.peak_tuples;
        out.tuples_scanned += profile.tuples_scanned;
      }
      Outcome o;
      if (result->ok()) {
        o.count = result->ValueOrDie();
        if (profile.bfs_pops > 0) {
          out.bfs_result_rows += o.count;
          out.bfs_result_pops += profile.bfs_pops;
        }
        for (const PlanStepProfile& step : profile.plan_steps) {
          if (step.est_rows < 0.0) continue;  // Identity plan.
          const double est = std::max(step.est_rows, 1.0);
          const double act =
              std::max(static_cast<double>(step.actual_rows), 1.0);
          out.qerrors.push_back(std::max(est / act, act / est));
        }
      } else if (result->status().IsResourceExhausted()) {
        // A tuple kill leaves the charge that crossed the ceiling in the
        // profile; anything else exhausted is the wall-clock net.
        o.kind = profile.peak_tuples > kTupleCeiling ? Outcome::kTupleKill
                                                     : Outcome::kTimeKill;
        ++(o.kind == Outcome::kTupleKill ? out.kills_tuple : out.kills_time);
      } else {
        Die(std::string("evaluation error on engine ") +
            EngineKindCode(slot.kind) + ": " + result->status().ToString());
      }
      out.outcomes.push_back(o);
    }
  }
  ref->Run(&out.host.seconds, &out.host.runs);
  out.seconds =
      static_cast<double>(WallTimer::Now() - t0) * 1e-9 - out.host.seconds;
  if (tracer != nullptr && st.planner != nullptr) {
    // The engines plan internally. Repeating each of their plans here,
    // after the pass's time is taken, gives planning a span of its own
    // without adding to the traced pass time.
    for (size_t e = 0; e < st.engines.size(); ++e) {
      for (const EvalItem& item : st.items) {
        Span span = Trace(tracer, "Planner::PlanQuery", "plan");
        const int64_t p0 = WallTimer::Now();
        [[maybe_unused]] const QueryPlan plan = st.planner->PlanQuery(
            st.queries[item.query], st.graphs[item.graph].layout());
        out.plan_s += static_cast<double>(WallTimer::Now() - p0) * 1e-9;
      }
    }
  }
  return out;
}

RunReport RunEval(const Options& opt, bool joins) {
  // The seed draws the graph instances; the query suite is fixed, as a
  // gMark workload is generated from the schema alone and an engine
  // comparison runs one suite over many instances. (Per-query cost is
  // heavy-tailed: a few hundred seed-drawn queries would make every
  // figure a property of the draw.)
  const uint64_t graph_seed = DeriveSeed(opt.seed, 1);
  RunReport rep;
  rep.params = {{"schema", "Bib"},
                {"nodes", std::to_string(kEvalNodes)},
                {"gen_threads", std::to_string(kWorkers)},
                {"presets", joins ? "Con" : "Len,Rec"},
                {"queries_per_preset", std::to_string(QueriesPerPreset(joins))},
                {"replicas", std::to_string(kEvalReplicas)},
                {"engines", joins ? "P(1),D(1)" : "S(2),G(1),D(1)"},
                {"plan", joins ? "on" : "off"},
                {"tuple_ceiling", std::to_string(kTupleCeiling)},
                {"time_ceiling_s", JsonNumber(kTimeCeilingS)},
                {"graph_seed", std::to_string(graph_seed)},
                {"query_seed", std::to_string(kEvalSuiteSeed)}};

  HostReference host;
  std::vector<EvalPass> passes;
  std::vector<double> setup_s;
  std::vector<GenerateStats> setup_stats;
  std::vector<std::vector<TraceEvent>> setup_events;
  std::unique_ptr<EvalState> st;
  for (int s = 0; s < kSetups; ++s) {
    st.reset();  // Each set-up starts from nothing.
    std::unique_ptr<Tracer> tracer;
    if (opt.trace) tracer = std::make_unique<Tracer>(1);
    WallTimer t;
    st = BuildEvalState(joins, graph_seed, tracer.get());
    passes.push_back(RunEvalPass(*st, &host, nullptr));  // Warm-up.
    setup_s.push_back(t.ElapsedSeconds());
    setup_stats.push_back(st->stats);
    if (tracer != nullptr) setup_events.push_back(tracer->Snapshot());
  }
  PassLog log;
  RunTimedPasses(opt, kSetups, &log, [&](Tracer* tracer) {
    Span span = Trace(tracer, "pass", "bench");
    passes.push_back(RunEvalPass(*st, &host, tracer));
    return passes.back().seconds;
  });
  rep.peak_rss_mb = PeakRssMb();

  // ----- gate 1: every outcome and every per-layer count repeats in
  // every pass, warm-ups included.
  const EvalPass& first = passes.front();
  const size_t ni = st->items.size();
  for (size_t i = 1; i < passes.size(); ++i) {
    const EvalPass& b = passes[i];
    for (size_t k = 0; k < first.outcomes.size(); ++k) {
      const Outcome& a = first.outcomes[k];
      if (a == b.outcomes[k]) continue;
      if (a.kind == Outcome::kTimeKill ||
          b.outcomes[k].kind == Outcome::kTimeKill) {
        continue;  // Flagged below; not a divergence of the program.
      }
      rep.gate_failures.push_back(
          "pass " + std::to_string(i) + ": engine " +
          EngineKindCode(st->engines[k / ni].kind) + " on " +
          st->items[k % ni].label + " changed outcome");
    }
    if (first.bfs_pops != b.bfs_pops ||
        first.bfs_peak_frontier != b.bfs_peak_frontier ||
        first.fixpoint_rounds != b.fixpoint_rounds ||
        first.peak_tuples != b.peak_tuples ||
        first.tuples_scanned != b.tuples_scanned ||
        first.qerrors != b.qerrors) {
      rep.gate_failures.push_back("engine counts differ in pass " +
                                  std::to_string(i));
    }
  }
  for (size_t i = 0; i < passes.size(); ++i) {
    if (passes[i].kills_time > 0) {
      rep.flags.push_back("pass " + std::to_string(i) + ": " +
                          std::to_string(passes[i].kills_time) +
                          " evaluation(s) hit the wall-clock ceiling");
    }
  }
  // ----- gate 2: completed counts equal the reference evaluator's
  // (untimed, after the passes). G keeps its openCypher semantics and is
  // compared only with itself (gate 1).
  size_t verified = 0, unverified = 0;
  const ResourceBudget ref_budget =
      ResourceBudget::Limited(kTimeCeilingS, kReferenceTuples);
  for (size_t i = 0; i < ni; ++i) {
    const EvalItem& item = st->items[i];
    const ReferenceEvaluator reference(&st->graphs[item.graph]);
    std::optional<uint64_t> expected;
    for (size_t e = 0; e < st->engines.size(); ++e) {
      const Outcome& o = first.outcomes[e * ni + i];
      if (st->engines[e].kind == EngineKind::kCypher ||
          o.kind != Outcome::kOk) {
        continue;
      }
      if (!expected.has_value()) {
        Result<uint64_t> r =
            reference.CountDistinct(st->queries[item.query], ref_budget);
        if (!r.ok()) {
          ++unverified;
          break;
        }
        expected = r.ValueOrDie();
      }
      if (o.count != *expected) {
        rep.gate_failures.push_back(
            std::string("engine ") + EngineKindCode(st->engines[e].kind) +
            " on " + item.label + ": count " + std::to_string(o.count) +
            ", reference " + std::to_string(*expected));
      } else {
        ++verified;
      }
    }
  }
  const uint64_t attempted = first.outcomes.size();
  const double failed_ratio =
      static_cast<double>(first.kills_tuple + first.kills_time) /
      static_cast<double>(attempted);
  rep.params.push_back({"queries", std::to_string(st->queries.size())});
  rep.params.push_back({"instances", std::to_string(st->graphs.size())});
  rep.params.push_back({"evaluations_per_pass", std::to_string(attempted)});
  rep.params.push_back({"skipped", std::to_string(st->skipped)});
  rep.params.push_back({"edges", std::to_string(st->stats.total_edges)});
  rep.params.push_back({"ntriples_digest", Hex(st->ntriples_digest)});
  rep.params.push_back({"workload_xml_digest", Hex(st->xml_digest)});
  rep.params.push_back({"reference_verified", std::to_string(verified)});
  rep.params.push_back({"reference_unverified", std::to_string(unverified)});
  rep.params.push_back({"failed_ratio", JsonNumber(failed_ratio)});
  for (int id : log.untraced) {
    rep.attempted += passes[id].outcomes.size();
    rep.failed += passes[id].kills_time;
  }
  {
    // Every evaluation of the first timed pass, so a slow or killed
    // query can be explained from the record alone.
    const EvalPass& shown = passes[log.untraced.front()];
    static const char* const kOutcome[] = {"ok", "tuple_kill", "time_kill"};
    for (size_t k = 0; k < shown.outcomes.size(); ++k) {
      const Outcome& o = shown.outcomes[k];
      rep.evaluations.push_back(
          std::string("{\"engine\": \"") +
          EngineKindCode(st->engines[k / ni].kind) + "\", \"item\": " +
          JsonString(st->items[k % ni].label) + ", \"outcome\": \"" +
          kOutcome[o.kind] + "\", \"count\": " + std::to_string(o.count) +
          ", \"ms\": " + JsonNumber(shown.latency_ms[k]) + "}");
    }
  }

  // ----- end-to-end metrics (untraced passes).
  auto sample = [&](const char* name, const char* unit, auto f) {
    Sampled s{name, unit, {}};
    for (int id : log.untraced) s.samples.push_back(f(passes[id]));
    rep.detail.push_back(s);
  };
  const std::vector<double> latency_ms = NormalizedUnitMedians(
      passes, log.untraced, [](const EvalPass& e) { return e.latency_ms; });
  double pass_s = 0.0;
  for (double ms : latency_ms) pass_s += ms * 1e-3;
  SetTimedMetrics(setup_s, pass_s, latency_ms, passes, log, &rep);
  sample("eval_queries_per_s", "1/s",
         [](const EvalPass& e) { return e.outcomes.size() / e.seconds; });
  rep.detail.push_back({"pass_wall_s_traced", "s", log.traced_s});
  rep.end_to_end.Set("answered_ratio", 1.0 - failed_ratio, "ratio");

  // ----- per-layer metrics (traced set-ups and passes).
  if (opt.trace) {
    auto setup_med = [&](auto f) {
      std::vector<double> v;
      for (size_t s = 0; s < setup_stats.size(); ++s) {
        v.push_back(f(setup_stats[s], setup_events[s]));
      }
      return Median(v);
    };
    auto pass_med = [&](auto f) {
      std::vector<double> v;
      for (int id : log.traced) v.push_back(f(passes[id]));
      return Median(v);
    };
    const EvalPass& t0 = passes[log.traced.front()];
    MetricTable& L = rep.per_layer;
    L.Set("graph.generate_s", setup_med([](const GenerateStats& s, auto&) {
            return s.generate_seconds;
          }), "s");
    L.Set("graph.index_s", setup_med([](const GenerateStats& s, auto&) {
            return s.index_seconds;
          }), "s");
    L.Set("graph.index_groups",
          static_cast<double>(st->stats.index_forward_groups +
                              st->stats.index_transpose_groups),
          "count");
    L.Set("parallel.peak_edge_mb", st->stats.peak_resident_edge_bytes / 1e6,
          "MB");
    L.Set("graph_io.ntriples_s", setup_med([](auto&, const auto& e) {
            return SpanSeconds(e, "WriteNTriples");
          }), "s");
    L.Set("graph_io.ntriples_mb", st->ntriples_bytes / 1e6, "MB");
    L.Set("workload.generate_s", setup_med([](auto&, const auto& e) {
            return SpanSeconds(e, "QueryGenerator::Generate");
          }), "s");
    L.Set("workload.skipped", static_cast<double>(st->skipped), "count");
    L.Set("query.xml_s", setup_med([](auto&, const auto& e) {
            return SpanSeconds(e, "Workload::ToXml");
          }), "s");
    L.Set("query.xml_mb", st->xml_bytes / 1e6, "MB");
    L.Set("plan.plan_s", pass_med([](const EvalPass& e) { return e.plan_s; }),
          "s");
    L.Set("plan.qerror_p50", Percentile(t0.qerrors, 50), "ratio");
    L.Set("plan.qerror_p90", Percentile(t0.qerrors, 90), "ratio");
    for (const EngineSlot& slot : st->engines) {
      L.Set(std::string("engine.") + EngineKindCode(slot.kind) + ".eval_s",
            pass_med([&](const EvalPass& e) {
              return e.engine_s.at(slot.kind);
            }),
            "s");
    }
    L.Set("engine.bfs_pops", static_cast<double>(t0.bfs_pops), "count");
    L.Set("engine.bfs_peak_frontier",
          static_cast<double>(t0.bfs_peak_frontier), "count");
    L.Set("engine.rows_per_pop",
          t0.bfs_result_pops == 0
              ? 0.0
              : static_cast<double>(t0.bfs_result_rows) /
                    static_cast<double>(t0.bfs_result_pops),
          "ratio");
    L.Set("engine.fixpoint_rounds", static_cast<double>(t0.fixpoint_rounds),
          "count");
    L.Set("engine.peak_tuples", static_cast<double>(t0.peak_tuples), "count");
    L.Set("engine.tuples_scanned", static_cast<double>(t0.tuples_scanned),
          "count");
    L.Set("engine.step_s", pass_med([](const EvalPass& e) { return e.step_s; }),
          "s");
    L.Set("engine.join_s",
          pass_med([](const EvalPass& e) { return e.eval_s - e.step_s; }),
          "s");
    L.Set("engine.kills_tuple", static_cast<double>(t0.kills_tuple), "count");
    L.Set("engine.kills_time", static_cast<double>(t0.kills_time), "count");
    RecordLayerTimes(&log, &rep);
  }
  return rep;
}

// ================================================================ main

/// The per-layer metrics of BENCHMARK.json, in its order. A workload
/// that does not use a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"graph.generate_s", "s"},        {"graph.index_s", "s"},
      {"graph.index_groups", "count"},  {"parallel.peak_edge_mb", "MB"},
      {"graph_io.ntriples_s", "s"},     {"graph_io.ntriples_mb", "MB"},
      {"workload.generate_s", "s"},     {"workload.skipped", "count"},
      {"translate.sparql_s", "s"},      {"translate.cypher_s", "s"},
      {"translate.sql_s", "s"},         {"translate.datalog_s", "s"},
      {"translate.mb", "MB"},           {"query.xml_s", "s"},
      {"query.xml_mb", "MB"},           {"plan.plan_s", "s"},
      {"plan.qerror_p50", "ratio"},     {"plan.qerror_p90", "ratio"},
      {"engine.P.eval_s", "s"},         {"engine.G.eval_s", "s"},
      {"engine.S.eval_s", "s"},         {"engine.D.eval_s", "s"},
      {"engine.bfs_pops", "count"},     {"engine.bfs_peak_frontier", "count"},
      {"engine.rows_per_pop", "ratio"}, {"engine.fixpoint_rounds", "count"},
      {"engine.peak_tuples", "count"},  {"engine.tuples_scanned", "count"},
      {"engine.step_s", "s"},           {"engine.join_s", "s"},
      {"engine.kills_tuple", "count"},  {"engine.kills_time", "count"},
      {"obs.trace_overhead_ratio", "ratio"}};
  return names;
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Die("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--commit") {
      opt.commit = v;
    } else if (a == "--source-digest") {
      opt.source_digest = v;
    } else {
      Die("unknown flag " + a);
    }
  }
  if (opt.workload != "generate" && opt.workload != "eval-paths" &&
      opt.workload != "eval-joins") {
    Die("--workload must be generate, eval-paths or eval-joins");
  }
  return opt;
}

std::string RecordJson(const Options& opt, const RunReport& rep,
                       bool correct, double wall_s) {
  std::ostringstream r;
  r << "{\"workload\": " << JsonString(opt.workload) << ", \"seed\": "
    << opt.seed << ", \"seconds\": " << JsonNumber(opt.seconds)
    << ", \"trace\": " << (opt.trace ? 1 : 0)
    << ",\n \"provenance\": {\"commit\": " << JsonString(opt.commit)
    << ", \"source_digest\": " << JsonString(opt.source_digest)
    << ", \"compiler\": " << JsonString(__VERSION__)
    << ", \"build_type\": " << JsonString(PIPEBENCH_BUILD_TYPE)
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"workers\": " << kWorkers << ", \"setups\": " << kSetups
    << "},\n \"params\": {";
  for (size_t i = 0; i < rep.params.size(); ++i) {
    r << (i == 0 ? "" : ", ") << JsonString(rep.params[i].first) << ": "
      << JsonString(rep.params[i].second);
  }
  r << "},\n \"end_to_end\": " << rep.end_to_end.ToJson()
    << ",\n \"per_layer\": " << rep.per_layer.ToJson() << ",\n \"samples\": [";
  for (size_t i = 0; i < rep.detail.size(); ++i) {
    r << (i == 0 ? "\n  " : ",\n  ") << rep.detail[i].ToJson();
  }
  r << "],\n \"self_time_s\": {";
  size_t n = 0;
  for (const auto& [layer, ts] : rep.layer_times) {
    r << (n++ == 0 ? "" : ", ") << JsonString(layer) << ": "
      << JsonNumber(ts.second);
  }
  auto list = [&](const char* key, const std::vector<std::string>& items,
                  bool quote) {
    r << "],\n \"" << key << "\": [";
    for (size_t i = 0; i < items.size(); ++i) {
      r << (i == 0 ? "" : ",\n  ") << (quote ? JsonString(items[i]) : items[i]);
    }
  };
  r << "}, \"evaluations\": [";
  for (size_t i = 0; i < rep.evaluations.size(); ++i) {
    r << (i == 0 ? "\n  " : ",\n  ") << rep.evaluations[i];
  }
  list("flags", rep.flags, true);
  list("gate_failures", rep.gate_failures, true);
  r << "],\n \"correct\": " << (correct ? "true" : "false")
    << ", \"wall_s\": " << JsonNumber(wall_s) << "}\n";
  return r.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  WallTimer total;
  RunReport rep = opt.workload == "generate"
                      ? RunGenerate(opt)
                      : RunEval(opt, opt.workload == "eval-joins");
  rep.end_to_end.Set("peak_rss_mb", rep.peak_rss_mb, "MB");
  const bool correct = rep.gate_failures.empty();

  // Tracing overhead: traced against untraced passes of this run.
  double overhead = 0.0;
  if (opt.trace) {
    double untraced = 0.0, traced = 0.0;
    for (const Sampled& s : rep.detail) {
      if (s.name == "pass_wall_s") untraced = s.value();
      if (s.name == "pass_wall_s_traced") traced = s.value();
    }
    overhead = traced / untraced - 1.0;
    MetricTable ordered;
    for (const auto& [name, unit] : PerLayerNames()) {
      ordered.Set(name, rep.per_layer.Get(name), unit);
    }
    ordered.Set("obs.trace_overhead_ratio", overhead, "ratio");
    rep.per_layer = ordered;
  }

  // ----- human-readable summary (stdout, before the result line).
  std::printf("pipebench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const auto& [k, v] : rep.params) {
    std::printf("  %-22s %s\n", k.c_str(), v.c_str());
  }
  std::printf("  %-24s %12s %-5s (passes, q1..q3)\n", "metric", "median",
              "unit");
  for (const Sampled& s : rep.detail) {
    const auto [q1, q3] = Quartiles(s.samples);
    std::printf("  %-24s %12.6g %-5s (n=%zu, %.6g..%.6g)\n", s.name.c_str(),
                s.value(), s.unit.c_str(), s.samples.size(), q1, q3);
  }
  if (opt.trace) {
    std::printf("  per-layer time over traced passes (total / self, s):\n");
    for (const auto& [layer, ts] : rep.layer_times) {
      std::printf("    %-10s %10.4f %10.4f\n", layer.c_str(), ts.first,
                  ts.second);
    }
    std::printf("  tracing overhead: %+.2f%% of untraced pass time\n",
                overhead * 100.0);
  }
  for (const std::string& f : rep.flags) {
    std::printf("  FLAG (time kill): %s\n", f.c_str());
  }
  for (const std::string& f : rep.gate_failures) {
    std::printf("  GATE FAILED: %s\n", f.c_str());
  }
  std::printf("  correctness gate: %s\n", correct ? "passed" : "FAILED");

  // ----- the record, and the trace of one traced pass.
  const std::string stem = opt.workload + "-seed" + std::to_string(opt.seed) +
                           "-trace" + (opt.trace ? "1" : "0");
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir + "/records", ec);
  std::ofstream(opt.out_dir + "/records/" + stem + ".json")
      << RecordJson(opt, rep, correct, total.ElapsedSeconds());
  if (rep.exported != nullptr) {
    std::filesystem::create_directories(opt.out_dir + "/traces", ec);
    std::ofstream trace_file(opt.out_dir + "/traces/" + stem + ".json");
    Status st = rep.exported->WriteChromeTrace(trace_file);
    if (!st.ok()) Die("trace export: " + st.ToString());
  }

  const MetricTable& shown = opt.trace ? rep.per_layer : rep.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              shown.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
