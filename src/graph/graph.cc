#include "graph/graph.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "parallel/executor.h"

namespace gmark {

namespace {

/// Forward histogram cell. The count phase counts a node's edges into
/// `end`; the scan phase rewrites the cell in place into the bucket's
/// cursor and exclusive bound. Cursor and bound share one struct so the
/// replay-mismatch guard costs no second random cache line on the
/// scatter hot path. uint32_t like the offsets they index.
struct Bucket {
  uint32_t cur;
  uint32_t end;
};

/// The count a histogram cell holds before the scan, and the in-place
/// rewrite into a cursor starting at `base`. The transpose's cell is a
/// bare uint32_t: its input, the finished forward CSR, cannot change
/// between passes, so its scatter needs no bound.
uint32_t CountOf(const Bucket& b) { return b.end; }
uint32_t CountOf(uint32_t count) { return count; }
void ToCursor(Bucket& b, uint32_t base) { b = Bucket{base, base + b.end}; }
void ToCursor(uint32_t& count, uint32_t base) { count = base; }

/// One chunk group of one predicate's build: a contiguous sub-range of
/// the input (stream chunks for the forward pass, forward-CSR node
/// ranges for the transpose) and its private histogram over the bucket
/// range, which the scan phase turns into the group's disjoint scatter
/// cursors in place. Tasks touch only their own group, so the fan-out
/// needs no synchronization beyond the executor barriers.
template <typename Cell>
struct ChunkGroup {
  size_t begin = 0;  // First input chunk (forward) / local node (transpose).
  size_t end = 0;    // One past the last.
  std::vector<Cell> cells;
  Status status;
};
using ForwardGroup = ChunkGroup<Bucket>;
using TransposeGroup = ChunkGroup<uint32_t>;

/// Below this many edges a chunk group is not worth its task and
/// histogram: the floor of the build-wide group weight.
constexpr size_t kMinEdgesPerGroup = 4096;

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// Split a stream of `edges` edges into contiguous chunk groups. With
/// chunk weights it gets one group per `weight` edges, at most
/// `max_groups`, of roughly equal edge count; without them it cannot be
/// sized and gets `max_groups` groups of equal chunk count. Group
/// boundaries never change the build output (chunk order fixes
/// within-bucket order), only its parallelism. Pre: chunk_count >= 1.
std::vector<ForwardGroup> PartitionGroups(
    const Graph::Builder::StreamSpec& spec, size_t edges, size_t weight,
    size_t max_groups) {
  const size_t chunk_count = spec.chunk_count;
  const std::vector<size_t>& chunk_edges = spec.chunk_edges;
  const bool weighted = chunk_edges.size() == chunk_count;
  const size_t groups = std::min(
      weighted ? std::clamp<size_t>(CeilDiv(edges, weight), 1, max_groups)
               : max_groups,
      chunk_count);
  std::vector<ForwardGroup> out;
  auto close = [&out](size_t begin, size_t end) {
    ForwardGroup g;
    g.begin = begin;
    g.end = end;
    out.push_back(std::move(g));
  };

  if (weighted && groups > 1) {
    const size_t target =
        std::max(CeilDiv(edges, groups), kMinEdgesPerGroup);
    size_t begin = 0;
    size_t acc = 0;
    for (size_t i = 0; i < chunk_count; ++i) {
      acc += chunk_edges[i];
      // Close a group once it reached its weight share; the tail always
      // lands in the final group, so the count never exceeds the cap.
      if (acc >= target && out.size() + 1 < groups) {
        close(begin, i + 1);
        begin = i + 1;
        acc = 0;
      }
    }
    if (begin < chunk_count) close(begin, chunk_count);
    return out;
  }

  // One group, or no weights: equal chunk counts.
  const size_t per_group = CeilDiv(chunk_count, groups);
  for (size_t begin = 0; begin < chunk_count; begin += per_group) {
    close(begin, std::min(begin + per_group, chunk_count));
  }
  return out;
}

/// The scan phase of one predicate direction: one exclusive scan over
/// the `range` bucket nodes, each node's groups in order, turns every
/// group's histogram into its disjoint scatter cursors in place — group
/// k's slice for node v starts where groups 0..k-1 left off — and fills
/// the CSR offsets. Sums in 64 bits and checks the total against the
/// uint32_t limit before sizing the targets; the cursors a failing scan
/// leaves behind are never used.
template <typename Cell>
Status ScanGroups(std::vector<ChunkGroup<Cell>>& groups, size_t range,
                  std::vector<uint32_t>& offsets,
                  std::vector<uint32_t>& targets) {
  for (const ChunkGroup<Cell>& g : groups) GMARK_RETURN_NOT_OK(g.status);
  if (range == 0) return Status::OK();
  offsets.assign(range + 1, 0);
  uint64_t total = 0;
  for (size_t v = 0; v < range; ++v) {
    for (ChunkGroup<Cell>& g : groups) {
      const uint32_t n = CountOf(g.cells[v]);
      ToCursor(g.cells[v], static_cast<uint32_t>(total));
      total += n;
    }
    offsets[v + 1] = static_cast<uint32_t>(total);
  }
  GMARK_RETURN_NOT_OK(Graph::CheckEdgeLimit(total));
  targets.resize(total);
  return Status::OK();
}

}  // namespace

Status Graph::CheckNodeLimit(int64_t nodes) {
  if (static_cast<uint64_t>(nodes) > std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange(
        "layout exceeds the CSR limit of 2^32 - 1 nodes");
  }
  return Status::OK();
}

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
               csr.targets.size() * sizeof(uint32_t);
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
  GMARK_RETURN_NOT_OK(CheckNodeLimit(layout_.total_nodes()));
  // Hoisted once: every build task captures the tracer pointer instead
  // of paying the global atomic load per task. Null means tracing off.
  Tracer* const tracer = GlobalTracer();
  Span build_span =
      tracer != nullptr ? tracer->StartSpan("csr.build", "build") : Span();
  const NodeId node_limit = static_cast<NodeId>(layout_.total_nodes());
  // Auto cap: 2x the workers balances stragglers against histogram
  // memory; an inline executor gets one group per predicate — chunking
  // buys nothing serially, it only adds scan passes.
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
    size_t edges = 0;  // Sum of chunk_edges (0 without them).
    std::vector<ForwardGroup> groups;     // Forward counting-sort groups.
    std::vector<TransposeGroup> tgroups;  // Transpose groups (local nodes).
    Csr forward;
    Csr backward;
    Status status;
    bool active = false;
  };
  std::vector<Slot> slots(predicate_count_);

  // Resolve hints and sum each predicate's chunk weights.
  size_t build_edges = 0;
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
    for (size_t w : slot.spec.chunk_edges) slot.edges += w;
    build_edges += slot.edges;
  }

  // One build-wide group budget: a group is worth `weight` edges, the
  // build's share per group of the cap, so a predicate gets one group
  // per weight it holds, up to the cap. A predicate below its share is
  // not split and a skewed one still fans out, while every predicate
  // keeps running concurrently in every phase.
  const size_t weight =
      std::max(CeilDiv(build_edges, max_groups), kMinEdgesPerGroup);
  for (Slot& slot : slots) {
    if (!slot.active) continue;
    slot.groups = PartitionGroups(slot.spec, slot.edges, weight, max_groups);
    if (stats != nullptr) stats->forward_groups += slot.groups.size();
  }

  // Phase 1 — count: every group validates its chunk range and counts
  // out-degrees into its private histogram's bucket bounds.
  for (PredicateId p = 0; p < predicate_count_; ++p) {
    Slot& slot = slots[p];
    if (!slot.active) continue;
    const Slot* s = &slot;
    for (ForwardGroup& group : slot.groups) {
      ForwardGroup* g = &group;
      executor->Submit([s, g, p, node_limit, tracer] {
        Span span = tracer != nullptr
                        ? tracer->StartSpan("csr.count", "build")
                        : Span();
        if (span.active()) {
          span.SetAttribute("predicate", static_cast<int64_t>(p));
        }
        g->cells.assign(static_cast<size_t>(s->src_end - s->src_begin),
                        Bucket{0, 0});
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
                uint32_t& c = g->cells[e.source - s->src_begin].end;
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

  // Phase 2 — scan: one task per predicate turns the group histograms,
  // by one exclusive scan, into the forward offsets (local to the source
  // range) and each group's disjoint scatter slices, in place.
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
    for (ForwardGroup& group : slot.groups) {
      ForwardGroup* g = &group;
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
                Bucket& b = g->cells[e.source - s->src_begin];
                if (b.cur >= b.end) {
                  return Status::Internal(
                      "edge stream changed between passes");
                }
                // Fits: CheckNodeLimit bounded every node id.
                fwd->targets[b.cur++] = static_cast<uint32_t>(e.target);
              }
              return Status::OK();
            });
        if (g->status.ok()) {
          // The in-loop guard only catches overfull buckets; an
          // underfull replay (fewer edges than the count pass saw)
          // would leave value-initialized targets behind, so require
          // every bucket of this group exactly full.
          for (const Bucket& b : g->cells) {
            if (b.cur != b.end) {
              g->status =
                  Status::Internal("edge stream changed between passes");
              break;
            }
          }
        }
        g->cells = {};
        g->cells.shrink_to_fit();
      });
    }
  }
  executor->Wait();

  // Between passes — the streams are never read again: let each
  // predicate's source free what backs it before the transpose
  // allocates. Then plan the transpose groups: contiguous local
  // forward-CSR node ranges balanced by edge count (cheap coordinator
  // walk over the offsets), none lighter than the build-wide weight.
  for (Slot& slot : slots) {
    if (!slot.active) continue;
    if (slot.spec.release) slot.spec.release();
    for (const ForwardGroup& g : slot.groups) {
      if (slot.status.ok() && !g.status.ok()) slot.status = g.status;
    }
    slot.groups = {};
    if (!slot.status.ok()) continue;
    const std::vector<uint32_t>& offsets = slot.forward.offsets;
    const size_t total_edges = slot.forward.targets.size();
    if (total_edges == 0) continue;  // The backward CSR stays empty.
    const size_t target = std::max(CeilDiv(total_edges, max_groups), weight);
    const size_t range = slot.forward.range;
    size_t begin = 0;
    for (size_t v = 0; v < range; ++v) {
      if (offsets[v + 1] - offsets[begin] >= target || v + 1 == range) {
        TransposeGroup g;
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
    for (TransposeGroup& group : slot.tgroups) {
      TransposeGroup* g = &group;
      executor->Submit([s, g, p, tracer] {
        Span span = tracer != nullptr
                        ? tracer->StartSpan("csr.transpose_count", "build")
                        : Span();
        if (span.active()) span.SetAttribute("predicate", p);
        g->cells.assign(static_cast<size_t>(s->trg_end - s->trg_begin), 0);
        const Csr& fwd = s->forward;
        for (size_t v = g->begin; v < g->end; ++v) {
          for (uint32_t i = fwd.offsets[v]; i < fwd.offsets[v + 1]; ++i) {
            ++g->cells[fwd.targets[i] - s->trg_begin];
          }
        }
      });
    }
  }
  executor->Wait();

  // Phase 5 — transpose scan: the same in-place exclusive scan, bucketed
  // by target, turns each group's counts into bare cursors.
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
    for (TransposeGroup& group : slot.tgroups) {
      TransposeGroup* g = &group;
      executor->Submit([s, g, p, bwd, tracer] {
        Span span = tracer != nullptr
                        ? tracer->StartSpan("csr.transpose_scatter", "build")
                        : Span();
        if (span.active()) span.SetAttribute("predicate", p);
        const Csr& fwd = s->forward;
        for (size_t v = g->begin; v < g->end; ++v) {
          for (uint32_t i = fwd.offsets[v]; i < fwd.offsets[v + 1]; ++i) {
            uint32_t& cur = g->cells[fwd.targets[i] - s->trg_begin];
            bwd->targets[cur++] = static_cast<uint32_t>(fwd.begin + v);
          }
        }
        g->cells = {};
        g->cells.shrink_to_fit();
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
  GMARK_RETURN_NOT_OK(CheckNodeLimit(layout.total_nodes()));
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
