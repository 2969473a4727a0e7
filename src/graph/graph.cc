#include "graph/graph.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "parallel/executor.h"

namespace gmark {

namespace {

/// Bucket cursor with its exclusive bound; cursor and bound live in one
/// struct so the replay-mismatch guard costs no second random cache
/// line on the scatter hot path.
struct Bucket {
  size_t cur;
  size_t end;
};

/// One chunk group of one predicate's build: a contiguous sub-range of
/// the input (stream chunks for the forward pass, forward-CSR node
/// ranges for the transpose), its private histogram, and its disjoint
/// scatter slices. Tasks touch only their own group, so the fan-out
/// needs no synchronization beyond the executor barriers.
struct ChunkGroup {
  size_t begin = 0;  // First input chunk (forward) / node (transpose).
  size_t end = 0;    // One past the last.
  /// Private histogram over the bucket range, built by the count phase
  /// and replaced by `buckets` in the scan phase. uint32 keeps G groups
  /// x range counters compact; overflow (a single node exceeding 2^32
  /// edges within one group) is detected, not wrapped.
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

}  // namespace

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
  const int64_t num_nodes = layout_.total_nodes();
  const NodeId node_limit = static_cast<NodeId>(num_nodes);
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
    std::vector<ChunkGroup> tgroups;  // Transpose groups (node ranges).
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
    slot.forward.offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
    if (slot.spec.chunk_count == 0 || !slot.spec.stream) {
      // Unregistered predicate: empty adjacency both ways.
      slot.backward.offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
      continue;
    }
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
      slot.backward.offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
      continue;
    }
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
  // with an exclusive scan into global forward offsets and disjoint
  // per-group scatter slices.
  for (Slot& slot : slots) {
    if (!slot.active) continue;
    Slot* s = &slot;
    const auto p = static_cast<int64_t>(&slot - slots.data());
    executor->Submit([s, p, num_nodes, tracer] {
      Span span = tracer != nullptr ? tracer->StartSpan("csr.scan", "build")
                                    : Span();
      if (span.active()) span.SetAttribute("predicate", p);
      for (const ChunkGroup& g : s->groups) {
        if (!g.status.ok()) {
          s->status = g.status;
          return;
        }
      }
      const size_t range = static_cast<size_t>(s->src_end - s->src_begin);
      std::vector<size_t>& offsets = s->forward.offsets;
      for (size_t v = 0; v < range; ++v) {
        size_t total = 0;
        for (const ChunkGroup& g : s->groups) total += g.counts[v];
        offsets[s->src_begin + v + 1] = total;
      }
      for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
      s->forward.targets.resize(offsets.back());

      // Exclusive scan across groups, per node: group k's slice for
      // node v starts where groups 0..k-1 left off. `running` walks the
      // bases group by group (cache-friendly: one pass per group).
      std::vector<size_t> running(range);
      for (size_t v = 0; v < range; ++v) {
        running[v] = offsets[s->src_begin + v];
      }
      for (ChunkGroup& g : s->groups) {
        g.buckets.resize(range);
        for (size_t v = 0; v < range; ++v) {
          const size_t n = g.counts[v];
          g.buckets[v] = Bucket{running[v], running[v] + n};
          running[v] += n;
        }
        g.counts = {};
        g.counts.shrink_to_fit();
      }
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

  // Between passes — the streams are never read again: let the store
  // free each predicate's shards before the transpose allocates. Then
  // plan the transpose groups: contiguous forward-CSR node ranges
  // balanced by edge count (cheap coordinator walk over the offsets).
  for (Slot& slot : slots) {
    if (!slot.active) continue;
    if (slot.spec.release) slot.spec.release();
    for (const ChunkGroup& g : slot.groups) {
      if (slot.status.ok() && !g.status.ok()) slot.status = g.status;
    }
    slot.groups = {};
    if (!slot.status.ok()) continue;
    const std::vector<size_t>& offsets = slot.forward.offsets;
    const size_t total_edges = slot.forward.targets.size();
    if (total_edges == 0) {
      slot.backward.offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
      continue;
    }
    const size_t target = std::max(
        (total_edges + max_groups - 1) / max_groups, kMinEdgesPerGroup);
    size_t begin = static_cast<size_t>(slot.src_begin);
    for (size_t v = begin; v < static_cast<size_t>(slot.src_end); ++v) {
      const bool last_node = v + 1 == static_cast<size_t>(slot.src_end);
      if (offsets[v + 1] - offsets[begin] >= target || last_node) {
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
  // immutable forward CSR, so no validation is needed.
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
          for (size_t i = fwd.offsets[v]; i < fwd.offsets[v + 1]; ++i) {
            uint32_t& c = g->counts[fwd.targets[i] - s->trg_begin];
            if (++c == 0) {
              g->status =
                  Status::OutOfRange("per-group degree overflows uint32");
              return;
            }
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
    executor->Submit([s, p, num_nodes, tracer] {
      Span span = tracer != nullptr
                      ? tracer->StartSpan("csr.transpose_scan", "build")
                      : Span();
      if (span.active()) span.SetAttribute("predicate", p);
      for (const ChunkGroup& g : s->tgroups) {
        if (!g.status.ok()) {
          s->status = g.status;
          return;
        }
      }
      const size_t range = static_cast<size_t>(s->trg_end - s->trg_begin);
      std::vector<size_t>& offsets = s->backward.offsets;
      offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
      for (size_t v = 0; v < range; ++v) {
        size_t total = 0;
        for (const ChunkGroup& g : s->tgroups) total += g.counts[v];
        offsets[s->trg_begin + v + 1] = total;
      }
      for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
      s->backward.targets.resize(offsets.back());
      std::vector<size_t> running(range);
      for (size_t v = 0; v < range; ++v) {
        running[v] = offsets[s->trg_begin + v];
      }
      for (ChunkGroup& g : s->tgroups) {
        g.buckets.resize(range);
        for (size_t v = 0; v < range; ++v) {
          const size_t n = g.counts[v];
          g.buckets[v] = Bucket{running[v], running[v] + n};
          running[v] += n;
        }
        g.counts = {};
        g.counts.shrink_to_fit();
      }
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
          for (size_t i = fwd.offsets[v]; i < fwd.offsets[v + 1]; ++i) {
            Bucket& b = g->buckets[fwd.targets[i] - s->trg_begin];
            bwd->targets[b.cur++] = static_cast<NodeId>(v);
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
  // with unknown predicates instead of rejecting them) and record each
  // predicate's maximal runs, so the per-predicate streams replay only
  // their own spans instead of re-scanning the whole vector 2P times.
  // Generated streams are constraint-grouped, so runs are long — each
  // run is one replayable sub-chunk of the predicate's chunked stream.
  std::vector<std::vector<std::pair<size_t, size_t>>> runs(predicate_count);
  for (size_t i = 0; i < edges.size();) {
    const Edge& e = edges[i];
    if (e.source >= n || e.target >= n) {
      return Status::OutOfRange("edge references node outside the layout");
    }
    if (e.predicate >= predicate_count) {
      return Status::OutOfRange("edge references unknown predicate");
    }
    size_t j = i + 1;
    while (j < edges.size() && edges[j].predicate == e.predicate &&
           edges[j].source < n && edges[j].target < n) {
      ++j;
    }
    runs[e.predicate].emplace_back(i, j - i);
    i = j;
  }

  Builder builder(std::move(layout), predicate_count);
  for (PredicateId p = 0; p < predicate_count; ++p) {
    if (runs[p].empty()) continue;
    Builder::StreamSpec spec;
    spec.chunk_count = runs[p].size();
    spec.chunk_edges.reserve(runs[p].size());
    for (const auto& [offset, length] : runs[p]) {
      (void)offset;
      spec.chunk_edges.push_back(length);
    }
    spec.stream = [&edges, r = &runs[p]](
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
