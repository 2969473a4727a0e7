#include "graph/graph.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "parallel/executor.h"

namespace gmark {

namespace {

/// Bucket cursor with its exclusive bound; cursor and bound live in one
/// struct so the replay-mismatch guard costs no second random cache
/// line on the scatter hot path. uint32_t like the offsets they index.
struct Bucket {
  uint32_t cur;
  uint32_t end;
};

/// One chunk group of one predicate's build: a contiguous sub-range of
/// the input (stream chunks for the forward pass, forward-CSR node
/// ranges for the transpose), its private histogram, and its disjoint
/// scatter slices. Tasks touch only their own group, so the fan-out
/// needs no synchronization beyond the executor barriers.
struct ChunkGroup {
  size_t begin = 0;  // First input chunk (forward) / local node (transpose).
  size_t end = 0;    // One past the last.
  /// Private histogram over the bucket range, built by the count phase
  /// and replaced by `buckets` in the scan phase. uint32 keeps G groups
  /// x range counters compact; the forward count pass detects overflow
  /// (a node with 2^32 edges within one group) rather than wrapping.
  std::vector<uint32_t> counts;
  std::vector<Bucket> buckets;
  Status status;
};

/// Below this many edges a chunk group is not worth its task and
/// histogram; small predicates collapse to fewer (often one) groups.
constexpr size_t kMinEdgesPerGroup = 4096;

/// Split `total_units` units (whose per-unit weights are `weights` when
/// non-empty, else 1) into at most `max_groups` contiguous groups of
/// roughly equal weight. Group boundaries never change the build output
/// (chunk order fixes within-bucket order), only its parallelism.
std::vector<ChunkGroup> PartitionGroups(size_t total_units,
                                        const std::vector<size_t>& weights,
                                        size_t max_groups) {
  std::vector<ChunkGroup> groups;
  if (total_units == 0) return groups;
  if (max_groups < 1) max_groups = 1;
  if (max_groups > total_units) max_groups = total_units;

  if (weights.size() == total_units && max_groups > 1) {
    size_t total_weight = 0;
    for (size_t w : weights) total_weight += w;
    const size_t target = std::max(
        (total_weight + max_groups - 1) / max_groups, kMinEdgesPerGroup);
    size_t begin = 0;
    size_t acc = 0;
    for (size_t i = 0; i < total_units; ++i) {
      acc += weights[i];
      // Close a group once it reached its weight share; the tail always
      // lands in the final group, so the count never exceeds the cap.
      if (acc >= target && target > 0 && groups.size() + 1 < max_groups) {
        ChunkGroup g;
        g.begin = begin;
        g.end = i + 1;
        groups.push_back(std::move(g));
        begin = i + 1;
        acc = 0;
      }
    }
    if (begin < total_units) {
      ChunkGroup g;
      g.begin = begin;
      g.end = total_units;
      groups.push_back(std::move(g));
    }
    return groups;
  }

  // No weights: equal unit counts.
  const size_t per_group = (total_units + max_groups - 1) / max_groups;
  for (size_t begin = 0; begin < total_units; begin += per_group) {
    ChunkGroup g;
    g.begin = begin;
    g.end = std::min(begin + per_group, total_units);
    groups.push_back(std::move(g));
  }
  return groups;
}

/// The scan phase of one predicate direction: reduce the groups'
/// histograms over `range` bucket nodes into CSR offsets — summed in 64
/// bits and checked against the uint32_t limit — size the targets, and
/// turn each group's histogram into its disjoint scatter slices: group
/// k's slice for node v starts where groups 0..k-1 left off.
Status ScanGroups(std::vector<ChunkGroup>& groups, size_t range,
                  std::vector<uint32_t>& offsets,
                  std::vector<NodeId>& targets) {
  for (const ChunkGroup& g : groups) GMARK_RETURN_NOT_OK(g.status);
  if (range == 0) return Status::OK();
  offsets.assign(range + 1, 0);
  uint64_t total = 0;
  for (size_t v = 0; v < range; ++v) {
    for (const ChunkGroup& g : groups) total += g.counts[v];
    offsets[v + 1] = static_cast<uint32_t>(total);
  }
  GMARK_RETURN_NOT_OK(Graph::CheckEdgeLimit(total));
  targets.resize(total);
  // `running` walks the bases group by group (one pass per group).
  std::vector<uint32_t> running(offsets.begin(), offsets.end() - 1);
  for (ChunkGroup& g : groups) {
    g.buckets.resize(range);
    for (size_t v = 0; v < range; ++v) {
      const uint32_t n = g.counts[v];
      g.buckets[v] = Bucket{running[v], running[v] + n};
      running[v] += n;
    }
    g.counts = {};
    g.counts.shrink_to_fit();
  }
  return Status::OK();
}

}  // namespace

Status Graph::CheckEdgeLimit(uint64_t edges) {
  if (edges > std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange(
        "predicate exceeds the CSR limit of 2^32 - 1 edges");
  }
  return Status::OK();
}

size_t Graph::IndexBytes() const {
  size_t bytes = 0;
  for (const std::vector<Csr>* direction : {&forward_, &backward_}) {
    for (const Csr& csr : *direction) {
      bytes += csr.offsets.size() * sizeof(uint32_t) +
               csr.targets.size() * sizeof(NodeId);
    }
  }
  return bytes;
}

Graph::Builder::Builder(NodeLayout layout, size_t predicate_count)
    : layout_(std::move(layout)),
      predicate_count_(predicate_count),
      specs_(predicate_count) {}

void Graph::Builder::SetChunkedStream(PredicateId a, StreamSpec spec) {
  specs_[a] = std::move(spec);
}

Result<Graph> Graph::Builder::Build(Executor* executor, BuildStats* stats) && {
  // Hoisted once: every build task captures the tracer pointer instead
  // of paying the global atomic load per task. Null means tracing off.
  Tracer* const tracer = GlobalTracer();
  Span build_span =
      tracer != nullptr ? tracer->StartSpan("csr.build", "build") : Span();
  const NodeId node_limit = static_cast<NodeId>(layout_.total_nodes());
  // Auto grouping: 2x the workers balances stragglers against
  // histogram memory; an inline executor gets one group per predicate —
  // chunking buys nothing serially, it only adds scan passes.
  const size_t max_groups =
      max_groups_ > 0
          ? max_groups_
          : (executor->workers() > 1
                 ? static_cast<size_t>(executor->workers()) * 2
                 : 1);

  /// One predicate's build slot.
  struct Slot {
    StreamSpec spec;
    NodeId src_begin = 0, src_end = 0;  // Resolved hints.
    NodeId trg_begin = 0, trg_end = 0;
    std::vector<ChunkGroup> groups;   // Forward counting-sort groups.
    std::vector<ChunkGroup> tgroups;  // Transpose groups (local nodes).
    Csr forward;
    Csr backward;
    Status status;
    bool active = false;
  };
  std::vector<Slot> slots(predicate_count_);

  // Resolve hints and partition each predicate's chunks into groups.
  for (PredicateId p = 0; p < predicate_count_; ++p) {
    Slot& slot = slots[p];
    slot.spec = std::move(specs_[p]);
    // Unregistered predicate: empty adjacency both ways.
    if (slot.spec.chunk_count == 0 || !slot.spec.stream) continue;
    slot.active = true;
    slot.src_begin = slot.spec.source_begin;
    slot.src_end = slot.spec.source_end;
    if (slot.src_begin == 0 && slot.src_end == 0) slot.src_end = node_limit;
    slot.trg_begin = slot.spec.target_begin;
    slot.trg_end = slot.spec.target_end;
    if (slot.trg_begin == 0 && slot.trg_end == 0) slot.trg_end = node_limit;
    if (slot.src_end > node_limit || slot.trg_end > node_limit ||
        slot.src_begin > slot.src_end || slot.trg_begin > slot.trg_end) {
      slot.status = Status::OutOfRange(
          "stream node-range hint exceeds the layout");
      slot.active = false;
      continue;
    }
    slot.forward.begin = slot.src_begin;
    slot.forward.range = slot.src_end - slot.src_begin;
    slot.groups = PartitionGroups(slot.spec.chunk_count,
                                  slot.spec.chunk_edges, max_groups);
    if (stats != nullptr) stats->forward_groups += slot.groups.size();
  }

  // Phase 1 — count: every group validates its chunk range and counts
  // out-degrees into its private histogram.
  for (PredicateId p = 0; p < predicate_count_; ++p) {
    Slot& slot = slots[p];
    if (!slot.active) continue;
    const Slot* s = &slot;
    for (ChunkGroup& group : slot.groups) {
      ChunkGroup* g = &group;
      executor->Submit([s, g, p, node_limit, tracer] {
        Span span = tracer != nullptr
                        ? tracer->StartSpan("csr.count", "build")
                        : Span();
        if (span.active()) {
          span.SetAttribute("predicate", static_cast<int64_t>(p));
        }
        g->counts.assign(static_cast<size_t>(s->src_end - s->src_begin), 0);
        g->status = s->spec.stream(
            g->begin, g->end, [&](std::span<const Edge> block) -> Status {
              for (const Edge& e : block) {
                if (e.predicate != p) {
                  return Status::Internal(
                      "edge stream for predicate " + std::to_string(p) +
                      " delivered predicate " + std::to_string(e.predicate));
                }
                if (e.source >= node_limit || e.target >= node_limit) {
                  return Status::OutOfRange(
                      "edge references node outside the layout");
                }
                if (e.source < s->src_begin || e.source >= s->src_end ||
                    e.target < s->trg_begin || e.target >= s->trg_end) {
                  return Status::OutOfRange(
                      "edge outside the stream's declared node range");
                }
                uint32_t& c = g->counts[e.source - s->src_begin];
                if (++c == 0) {
                  return Status::OutOfRange(
                      "per-group degree overflows uint32");
                }
              }
              return Status::OK();
            });
      });
    }
  }
  executor->Wait();

  // Phase 2 — scan: one task per predicate reduces the group histograms
  // with an exclusive scan into the forward offsets (local to the source
  // range) and disjoint per-group scatter slices.
  for (Slot& slot : slots) {
    if (!slot.active) continue;
    Slot* s = &slot;
    const auto p = static_cast<int64_t>(&slot - slots.data());
    executor->Submit([s, p, tracer] {
      Span span = tracer != nullptr ? tracer->StartSpan("csr.scan", "build")
                                    : Span();
      if (span.active()) span.SetAttribute("predicate", p);
      s->status = ScanGroups(s->groups, s->forward.range, s->forward.offsets,
                             s->forward.targets);
    });
  }
  executor->Wait();

  // Phase 3 — scatter: every group writes its edges into its disjoint
  // bucket slices. The per-bucket bound check catches a stream that
  // failed to replay identically (it would otherwise corrupt
  // neighboring slices).
  for (Slot& slot : slots) {
    if (!slot.active || !slot.status.ok()) continue;
    const Slot* s = &slot;
    Csr* fwd = &slot.forward;
    const auto p = static_cast<int64_t>(&slot - slots.data());
    for (ChunkGroup& group : slot.groups) {
      ChunkGroup* g = &group;
      executor->Submit([s, g, p, fwd, tracer] {
        Span span = tracer != nullptr
                        ? tracer->StartSpan("csr.scatter", "build")
                        : Span();
        if (span.active()) span.SetAttribute("predicate", p);
        g->status = s->spec.stream(
            g->begin, g->end, [&](std::span<const Edge> block) -> Status {
              for (const Edge& e : block) {
                // Targets must be re-validated too: they index the
                // transpose histograms over [trg_begin, trg_end), so a
                // replay that swaps a target would otherwise pass the
                // bucket guards and corrupt memory in phase 4.
                if (e.source < s->src_begin || e.source >= s->src_end ||
                    e.target < s->trg_begin || e.target >= s->trg_end) {
                  return Status::Internal(
                      "edge stream changed between passes");
                }
                Bucket& b = g->buckets[e.source - s->src_begin];
                if (b.cur >= b.end) {
                  return Status::Internal(
                      "edge stream changed between passes");
                }
                fwd->targets[b.cur++] = e.target;
              }
              return Status::OK();
            });
        if (g->status.ok()) {
          // The in-loop guard only catches overfull buckets; an
          // underfull replay (fewer edges than the count pass saw)
          // would leave value-initialized targets behind, so require
          // every bucket of this group exactly full.
          for (const Bucket& b : g->buckets) {
            if (b.cur != b.end) {
              g->status =
                  Status::Internal("edge stream changed between passes");
              break;
            }
          }
        }
        g->buckets = {};
        g->buckets.shrink_to_fit();
      });
    }
  }
  executor->Wait();

  // Between passes — the streams are never read again: let each
  // predicate's source free what backs it before the transpose
  // allocates. Then plan the transpose groups: contiguous local
  // forward-CSR node ranges balanced by edge count (cheap coordinator
  // walk over the offsets).
  for (Slot& slot : slots) {
    if (!slot.active) continue;
    if (slot.spec.release) slot.spec.release();
    for (const ChunkGroup& g : slot.groups) {
      if (slot.status.ok() && !g.status.ok()) slot.status = g.status;
    }
    slot.groups = {};
    if (!slot.status.ok()) continue;
    const std::vector<uint32_t>& offsets = slot.forward.offsets;
    const size_t total_edges = slot.forward.targets.size();
    if (total_edges == 0) continue;  // The backward CSR stays empty.
    const size_t target = std::max(
        (total_edges + max_groups - 1) / max_groups, kMinEdgesPerGroup);
    const size_t range = slot.forward.range;
    size_t begin = 0;
    for (size_t v = 0; v < range; ++v) {
      if (offsets[v + 1] - offsets[begin] >= target || v + 1 == range) {
        ChunkGroup g;
        g.begin = begin;
        g.end = v + 1;
        slot.tgroups.push_back(std::move(g));
        begin = v + 1;
      }
    }
    if (stats != nullptr) stats->transpose_groups += slot.tgroups.size();
  }

  // Phase 4 — transpose count: every group counts the in-degrees of its
  // forward-CSR node range into its private histogram. The input is the
  // immutable forward CSR, so no validation is needed, and no count can
  // overflow: phase 2 held the predicate under 2^32 edges.
  for (Slot& slot : slots) {
    if (!slot.active || !slot.status.ok()) continue;
    const Slot* s = &slot;
    const auto p = static_cast<int64_t>(&slot - slots.data());
    for (ChunkGroup& group : slot.tgroups) {
      ChunkGroup* g = &group;
      executor->Submit([s, g, p, tracer] {
        Span span = tracer != nullptr
                        ? tracer->StartSpan("csr.transpose_count", "build")
                        : Span();
        if (span.active()) span.SetAttribute("predicate", p);
        g->counts.assign(static_cast<size_t>(s->trg_end - s->trg_begin), 0);
        const Csr& fwd = s->forward;
        for (size_t v = g->begin; v < g->end; ++v) {
          for (uint32_t i = fwd.offsets[v]; i < fwd.offsets[v + 1]; ++i) {
            ++g->counts[fwd.targets[i] - s->trg_begin];
          }
        }
      });
    }
  }
  executor->Wait();

  // Phase 5 — transpose scan: same exclusive scan, bucketed by target.
  for (Slot& slot : slots) {
    if (!slot.active || !slot.status.ok() || slot.tgroups.empty()) continue;
    Slot* s = &slot;
    const auto p = static_cast<int64_t>(&slot - slots.data());
    executor->Submit([s, p, tracer] {
      Span span = tracer != nullptr
                      ? tracer->StartSpan("csr.transpose_scan", "build")
                      : Span();
      if (span.active()) span.SetAttribute("predicate", p);
      s->backward.begin = s->trg_begin;
      s->backward.range = s->trg_end - s->trg_begin;
      s->status = ScanGroups(s->tgroups, s->backward.range,
                             s->backward.offsets, s->backward.targets);
    });
  }
  executor->Wait();

  // Phase 6 — transpose scatter: node ranges ascend across groups and
  // the forward CSR cannot change between passes, so within one
  // backward bucket sources land in forward-CSR order — the documented
  // deterministic order, independent of thread and group counts.
  for (Slot& slot : slots) {
    if (!slot.active || !slot.status.ok()) continue;
    const Slot* s = &slot;
    Csr* bwd = &slot.backward;
    const auto p = static_cast<int64_t>(&slot - slots.data());
    for (ChunkGroup& group : slot.tgroups) {
      ChunkGroup* g = &group;
      executor->Submit([s, g, p, bwd, tracer] {
        Span span = tracer != nullptr
                        ? tracer->StartSpan("csr.transpose_scatter", "build")
                        : Span();
        if (span.active()) span.SetAttribute("predicate", p);
        const Csr& fwd = s->forward;
        for (size_t v = g->begin; v < g->end; ++v) {
          for (uint32_t i = fwd.offsets[v]; i < fwd.offsets[v + 1]; ++i) {
            Bucket& b = g->buckets[fwd.targets[i] - s->trg_begin];
            bwd->targets[b.cur++] = fwd.begin + v;
          }
        }
        g->buckets = {};
        g->buckets.shrink_to_fit();
      });
    }
  }
  executor->Wait();

  for (const Slot& slot : slots) {
    GMARK_RETURN_NOT_OK(slot.status);
  }

  Graph g;
  g.layout_ = std::move(layout_);
  g.predicate_count_ = predicate_count_;
  g.forward_.reserve(predicate_count_);
  g.backward_.reserve(predicate_count_);
  for (Slot& slot : slots) {
    g.num_edges_ += slot.forward.targets.size();
    g.forward_.push_back(std::move(slot.forward));
    g.backward_.push_back(std::move(slot.backward));
  }
  return g;
}

Result<Graph> Graph::Build(NodeLayout layout, size_t predicate_count,
                           std::vector<Edge> edges) {
  const NodeId n = static_cast<NodeId>(layout.total_nodes());
  // One O(E) pass: validate (a filter stream would silently drop edges
  // with unknown predicates instead of rejecting them), record each
  // predicate's endpoint ranges as its node-range hints, and record its
  // maximal runs, so the per-predicate streams replay only their own
  // spans instead of re-scanning the whole vector 2P times. Generated
  // streams are constraint-grouped, so runs are long — each run is one
  // replayable sub-chunk of the predicate's chunked stream.
  struct PredicateRuns {
    std::vector<std::pair<size_t, size_t>> runs;  // (offset, length).
    NodeId src_min = std::numeric_limits<NodeId>::max(), src_max = 0;
    NodeId trg_min = std::numeric_limits<NodeId>::max(), trg_max = 0;
  };
  std::vector<PredicateRuns> per_pred(predicate_count);
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.source >= n || e.target >= n) {
      return Status::OutOfRange("edge references node outside the layout");
    }
    if (e.predicate >= predicate_count) {
      return Status::OutOfRange("edge references unknown predicate");
    }
    PredicateRuns& pr = per_pred[e.predicate];
    if (i > 0 && edges[i - 1].predicate == e.predicate) {
      ++pr.runs.back().second;
    } else {
      pr.runs.emplace_back(i, 1);
    }
    pr.src_min = std::min(pr.src_min, e.source);
    pr.src_max = std::max(pr.src_max, e.source);
    pr.trg_min = std::min(pr.trg_min, e.target);
    pr.trg_max = std::max(pr.trg_max, e.target);
  }

  Builder builder(std::move(layout), predicate_count);
  for (PredicateId p = 0; p < predicate_count; ++p) {
    const PredicateRuns& pr = per_pred[p];
    if (pr.runs.empty()) continue;
    Builder::StreamSpec spec;
    spec.chunk_count = pr.runs.size();
    spec.chunk_edges.reserve(pr.runs.size());
    for (const auto& [offset, length] : pr.runs) {
      (void)offset;
      spec.chunk_edges.push_back(length);
    }
    spec.source_begin = pr.src_min;
    spec.source_end = pr.src_max + 1;
    spec.target_begin = pr.trg_min;
    spec.target_end = pr.trg_max + 1;
    spec.stream = [&edges, r = &pr.runs](
                      size_t chunk_begin, size_t chunk_end,
                      const EdgeBlockVisitor& visit) -> Status {
      for (size_t k = chunk_begin; k < chunk_end; ++k) {
        const auto& [offset, length] = (*r)[k];
        GMARK_RETURN_NOT_OK(visit({edges.data() + offset, length}));
      }
      return Status::OK();
    };
    builder.SetChunkedStream(p, std::move(spec));
  }
  Executor inline_executor(1);
  return std::move(builder).Build(&inline_executor);
}

}  // namespace gmark
