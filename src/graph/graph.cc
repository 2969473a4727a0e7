#include "graph/graph.h"

#include <algorithm>
#include <limits>
#include <string>
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

/// One predicate's build in one direction: its chunk groups, the bucket
/// range their histograms and the CSR offsets span, the CSR arrays the
/// scan sizes and the scatter fills, and the first failure.
template <typename Cell>
struct Direction {
  std::vector<ChunkGroup<Cell>> groups;  // None: the predicate is skipped.
  size_t range = 0;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> targets;
  Status status;
};

/// Below this many edges a chunk group is not worth its task and
/// histogram: the floor of the build-wide group weight.
constexpr size_t kMinEdgesPerGroup = 4096;

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// Split inputs 0..n-1 into contiguous chunk groups of at least `target`
/// weight, `weight(i)` being input i's edges, and at most `cap` of them:
/// the tail always lands in the final group. Group boundaries never
/// change the build output (input order fixes within-bucket order), only
/// its parallelism.
template <typename Cell, typename Weight>
std::vector<ChunkGroup<Cell>> SplitGroups(size_t n, size_t target,
                                          size_t cap, const Weight& weight) {
  std::vector<ChunkGroup<Cell>> out;
  auto close = [&out](size_t begin, size_t end) {
    ChunkGroup<Cell>& g = out.emplace_back();
    g.begin = begin;
    g.end = end;
  };
  size_t begin = 0;
  size_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += weight(i);
    if (acc >= target && out.size() + 1 < cap) {
      close(begin, i + 1);
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < n) close(begin, n);
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
Status ScanGroups(Direction<Cell>& d) {
  for (const ChunkGroup<Cell>& g : d.groups) GMARK_RETURN_NOT_OK(g.status);
  if (d.range == 0) return Status::OK();
  d.offsets.assign(d.range + 1, 0);
  uint64_t total = 0;
  for (size_t v = 0; v < d.range; ++v) {
    for (ChunkGroup<Cell>& g : d.groups) {
      const uint32_t n = CountOf(g.cells[v]);
      ToCursor(g.cells[v], static_cast<uint32_t>(total));
      total += n;
    }
    d.offsets[v + 1] = static_cast<uint32_t>(total);
  }
  GMARK_RETURN_NOT_OK(Graph::CheckEdgeLimit(total));
  d.targets.resize(total);
  return Status::OK();
}

/// Trace span names of one direction's three phases.
struct PhaseNames {
  const char* count;
  const char* scan;
  const char* scatter;
};

/// The counting sort of one direction, for every predicate at once, in
/// three barrier phases. Count: every group zeroes its histogram and
/// `count(p, group)` fills it. Scan: one task per predicate runs
/// ScanGroups. Scatter: `scatter(p, group, targets)` writes each group's
/// input through its cursors into the predicate's targets. Each phase
/// submits every predicate's groups before its one Wait, so predicates
/// overlap in every phase. A failure is left in the predicate's status,
/// which skips its later phases; the groups are dropped at the end.
template <typename Cell, typename Count, typename Scatter>
void CountScanScatter(std::vector<Direction<Cell>>& dirs,
                      const PhaseNames& names, Executor* executor,
                      Tracer* tracer, const Count& count,
                      const Scatter& scatter) {
  auto submit = [executor, tracer](const char* name, size_t p, auto task) {
    executor->Submit([name, p, tracer, task] {
      Span span =
          tracer != nullptr ? tracer->StartSpan(name, "build") : Span();
      if (span.active()) {
        span.SetAttribute("predicate", static_cast<int64_t>(p));
      }
      task();
    });
  };
  for (size_t p = 0; p < dirs.size(); ++p) {
    for (ChunkGroup<Cell>& group : dirs[p].groups) {
      submit(names.count, p, [&count, g = &group, p, range = dirs[p].range] {
        g->cells.assign(range, Cell{});
        g->status = count(p, *g);
      });
    }
  }
  executor->Wait();

  for (size_t p = 0; p < dirs.size(); ++p) {
    Direction<Cell>* d = &dirs[p];
    if (d->groups.empty()) continue;
    submit(names.scan, p, [d] { d->status = ScanGroups(*d); });
  }
  executor->Wait();

  for (size_t p = 0; p < dirs.size(); ++p) {
    if (!dirs[p].status.ok()) continue;
    uint32_t* targets = dirs[p].targets.data();
    for (ChunkGroup<Cell>& group : dirs[p].groups) {
      submit(names.scatter, p, [&scatter, g = &group, p, targets] {
        g->status = scatter(p, *g, targets);
        g->cells = {};
        g->cells.shrink_to_fit();
      });
    }
  }
  executor->Wait();

  for (Direction<Cell>& d : dirs) {
    for (const ChunkGroup<Cell>& g : d.groups) {
      if (d.status.ok() && !g.status.ok()) d.status = g.status;
    }
    d.groups = {};
  }
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

Result<Graph> Graph::Build(NodeLayout layout,
                           std::vector<StreamSpec> streams,
                           Executor* executor, BuildStats* stats) {
  GMARK_RETURN_NOT_OK(CheckNodeLimit(layout.total_nodes()));
  const NodeId node_limit = static_cast<NodeId>(layout.total_nodes());
  for (const StreamSpec& s : streams) {
    if (s.source_end > node_limit || s.target_end > node_limit ||
        s.source_begin > s.source_end || s.target_begin > s.target_end) {
      return Status::OutOfRange("stream node-range hint exceeds the layout");
    }
  }
  // Hoisted once: every build task captures the tracer pointer instead
  // of paying the global atomic load per task. Null means tracing off.
  Tracer* const tracer = GlobalTracer();
  Span build_span =
      tracer != nullptr ? tracer->StartSpan("csr.build", "build") : Span();
  const size_t predicate_count = streams.size();
  // The group cap: 2x the workers balances stragglers against histogram
  // memory; an inline executor gets one group per predicate — chunking
  // buys nothing serially, it only adds scan passes.
  const size_t max_groups =
      executor->workers() > 1 ? static_cast<size_t>(executor->workers()) * 2
                              : 1;

  // One build-wide group budget: a group is worth `weight` edges, the
  // build's share per group of the cap, so a predicate gets one group
  // per weight it holds, up to the cap. A predicate below its share is
  // not split and a skewed one still fans out, while every predicate
  // keeps running concurrently in every phase. Groups of one predicate
  // are balanced by edge count.
  size_t build_edges = 0;
  for (const StreamSpec& s : streams) {
    for (size_t w : s.chunk_edges) build_edges += w;
  }
  const size_t weight =
      std::max(CeilDiv(build_edges, max_groups), kMinEdgesPerGroup);
  std::vector<Direction<Bucket>> fwd(predicate_count);
  for (size_t p = 0; p < predicate_count; ++p) {
    const std::vector<size_t>& chunk_edges = streams[p].chunk_edges;
    if (chunk_edges.empty()) continue;  // Empty adjacency both ways.
    size_t edges = 0;
    for (size_t w : chunk_edges) edges += w;
    const size_t groups =
        std::min(std::clamp<size_t>(CeilDiv(edges, weight), 1, max_groups),
                 chunk_edges.size());
    fwd[p].range = streams[p].source_end - streams[p].source_begin;
    fwd[p].groups = SplitGroups<Bucket>(
        chunk_edges.size(), std::max(CeilDiv(edges, groups), kMinEdgesPerGroup),
        groups, [&chunk_edges](size_t i) { return chunk_edges[i]; });
    if (stats != nullptr) stats->forward_groups += fwd[p].groups.size();
  }

  // Forward: every group validates its chunk range while counting
  // out-degrees into its histogram's bucket bounds, then replays it into
  // its disjoint bucket slices. The scatter's guards catch a stream that
  // failed to replay identically (it would otherwise corrupt
  // neighboring slices).
  CountScanScatter(
      fwd, {"csr.count", "csr.scan", "csr.scatter"}, executor, tracer,
      [&streams, node_limit](size_t p, ChunkGroup<Bucket>& g) -> Status {
        const StreamSpec& s = streams[p];
        return s.stream(
            g.begin, g.end, [&](std::span<const Edge> block) -> Status {
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
                if (e.source < s.source_begin || e.source >= s.source_end ||
                    e.target < s.target_begin || e.target >= s.target_end) {
                  return Status::OutOfRange(
                      "edge outside the stream's declared node range");
                }
                uint32_t& c = g.cells[e.source - s.source_begin].end;
                if (++c == 0) {
                  return Status::OutOfRange(
                      "per-group degree overflows uint32");
                }
              }
              return Status::OK();
            });
      },
      [&streams](size_t p, ChunkGroup<Bucket>& g, uint32_t* targets)
          -> Status {
        const StreamSpec& s = streams[p];
        GMARK_RETURN_NOT_OK(s.stream(
            g.begin, g.end, [&](std::span<const Edge> block) -> Status {
              for (const Edge& e : block) {
                // Targets must be re-validated too: they index the
                // transpose histograms over the target range, so a
                // replay that swaps a target would otherwise pass the
                // bucket guards and corrupt memory in the transpose.
                if (e.source < s.source_begin || e.source >= s.source_end ||
                    e.target < s.target_begin || e.target >= s.target_end) {
                  return Status::Internal(
                      "edge stream changed between passes");
                }
                Bucket& b = g.cells[e.source - s.source_begin];
                if (b.cur >= b.end) {
                  return Status::Internal(
                      "edge stream changed between passes");
                }
                // Fits: CheckNodeLimit bounded every node id.
                targets[b.cur++] = static_cast<uint32_t>(e.target);
              }
              return Status::OK();
            }));
        // The in-loop guard only catches overfull buckets; an underfull
        // replay (fewer edges than the count pass saw) would leave
        // value-initialized targets behind, so require every bucket of
        // this group exactly full.
        for (const Bucket& b : g.cells) {
          if (b.cur != b.end) {
            return Status::Internal("edge stream changed between passes");
          }
        }
        return Status::OK();
      });

  // Between passes — the streams are never read again: let each
  // predicate's source free what backs it before the transpose
  // allocates. Then plan the transpose groups: contiguous local
  // forward-CSR node ranges balanced by edge count, none lighter than
  // the build-wide weight (which alone bounds their number).
  std::vector<Direction<uint32_t>> bwd(predicate_count);
  for (size_t p = 0; p < predicate_count; ++p) {
    if (streams[p].release) streams[p].release();
    const Direction<Bucket>& f = fwd[p];
    // A failed predicate is not transposed; an edgeless one keeps an
    // empty backward CSR.
    if (!f.status.ok() || f.targets.empty()) continue;
    bwd[p].range = streams[p].target_end - streams[p].target_begin;
    bwd[p].groups = SplitGroups<uint32_t>(
        f.range, std::max(CeilDiv(f.targets.size(), max_groups), weight),
        std::numeric_limits<size_t>::max(),
        [&f](size_t v) { return f.offsets[v + 1] - f.offsets[v]; });
    if (stats != nullptr) stats->transpose_groups += bwd[p].groups.size();
  }

  // Backward: every group counts the in-degrees of its forward-CSR node
  // range, then scatters its sources. The input is the immutable forward
  // CSR, so nothing needs validating and no count can overflow (the
  // forward scan held the predicate under 2^32 edges). Node ranges
  // ascend across groups, so within one backward bucket sources land in
  // forward-CSR order — the documented deterministic order, independent
  // of thread and group counts.
  CountScanScatter(
      bwd, {"csr.transpose_count", "csr.transpose_scan",
            "csr.transpose_scatter"},
      executor, tracer,
      [&streams, &fwd](size_t p, ChunkGroup<uint32_t>& g) -> Status {
        const Direction<Bucket>& f = fwd[p];
        const NodeId base = streams[p].target_begin;
        for (size_t v = g.begin; v < g.end; ++v) {
          for (uint32_t i = f.offsets[v]; i < f.offsets[v + 1]; ++i) {
            ++g.cells[f.targets[i] - base];
          }
        }
        return Status::OK();
      },
      [&streams, &fwd](size_t p, ChunkGroup<uint32_t>& g, uint32_t* targets)
          -> Status {
        const Direction<Bucket>& f = fwd[p];
        const NodeId base = streams[p].target_begin;
        const NodeId source_begin = streams[p].source_begin;
        for (size_t v = g.begin; v < g.end; ++v) {
          for (uint32_t i = f.offsets[v]; i < f.offsets[v + 1]; ++i) {
            uint32_t& cur = g.cells[f.targets[i] - base];
            targets[cur++] = static_cast<uint32_t>(source_begin + v);
          }
        }
        return Status::OK();
      });

  for (size_t p = 0; p < predicate_count; ++p) {
    GMARK_RETURN_NOT_OK(fwd[p].status);
    GMARK_RETURN_NOT_OK(bwd[p].status);
  }

  Graph g;
  g.layout_ = std::move(layout);
  g.predicate_count_ = predicate_count;
  g.forward_.reserve(predicate_count);
  g.backward_.reserve(predicate_count);
  for (size_t p = 0; p < predicate_count; ++p) {
    g.num_edges_ += fwd[p].targets.size();
    g.forward_.push_back(Csr{streams[p].source_begin,
                             static_cast<NodeId>(fwd[p].range),
                             std::move(fwd[p].offsets),
                             std::move(fwd[p].targets)});
    g.backward_.push_back(Csr{streams[p].target_begin,
                              static_cast<NodeId>(bwd[p].range),
                              std::move(bwd[p].offsets),
                              std::move(bwd[p].targets)});
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

  std::vector<StreamSpec> streams(predicate_count);
  for (PredicateId p = 0; p < predicate_count; ++p) {
    const PredicateRuns& pr = per_pred[p];
    if (pr.runs.empty()) continue;
    StreamSpec& spec = streams[p];
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
  }
  Executor inline_executor(1);
  return Build(std::move(layout), std::move(streams), &inline_executor);
}

}  // namespace gmark
