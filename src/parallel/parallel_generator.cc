#include "parallel/parallel_generator.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "util/random.h"
#include "util/timer.h"

namespace gmark {

namespace {

/// Local node index within one type; uint32 keeps slot vectors compact
/// (100M-node scalability runs would need 1.6GB with 64-bit slots).
using SlotIndex = uint32_t;

/// Per-constraint decisions: endpoint geometry, which sides materialize
/// slot vectors, and the expected slot counts of specified sides.
struct ConstraintPlan {
  int64_t n_src = 0;
  int64_t n_trg = 0;
  NodeId src_base = 0;
  NodeId trg_base = 0;
  /// A side is implicit when it is non-specified (uniform sampling is
  /// its definition) or Gaussian under the fast path; implicit sides
  /// are sampled per edge instead of materialized.
  bool out_implicit = true;
  bool in_implicit = true;
  /// Expected slot counts of specified sides (node count x mean
  /// degree); -1 when the side does not constrain the edge count. An
  /// implicit side's count IS its expectation; a materialized side's
  /// realized vector size replaces it.
  int64_t expected_out_slots = -1;
  int64_t expected_in_slots = -1;

  bool empty() const { return n_src == 0 || n_trg == 0; }
};

Result<ConstraintPlan> PlanConstraint(const EdgeConstraint& c,
                                      const NodeLayout& layout,
                                      const GeneratorOptions& options) {
  ConstraintPlan plan;
  plan.n_src = layout.CountOf(c.source_type);
  plan.n_trg = layout.CountOf(c.target_type);
  plan.src_base = layout.OffsetOf(c.source_type);
  plan.trg_base = layout.OffsetOf(c.target_type);
  if (plan.empty()) return plan;

  const bool out_spec = c.out_dist.specified();
  const bool in_spec = c.in_dist.specified();
  plan.out_implicit =
      !out_spec || (options.gaussian_fast_path &&
                    c.out_dist.type == DistributionType::kGaussian);
  plan.in_implicit =
      !in_spec || (options.gaussian_fast_path &&
                   c.in_dist.type == DistributionType::kGaussian);

  // Both materialized slot vectors and the per-edge uniform draws of
  // implicit sides go through SlotIndex, so the limit applies to every
  // constrained type (an unchecked cast would silently wrap implicit
  // draws modulo 2^32 instead of failing).
  if (plan.n_src > std::numeric_limits<SlotIndex>::max() ||
      plan.n_trg > std::numeric_limits<SlotIndex>::max()) {
    return Status::Unsupported(
        "more than 2^32 nodes of one type is not supported");
  }

  if (out_spec) {
    plan.expected_out_slots = static_cast<int64_t>(
        static_cast<double>(plan.n_src) * c.out_dist.Mean(plan.n_trg) + 0.5);
  }
  if (in_spec) {
    plan.expected_in_slots = static_cast<int64_t>(
        static_cast<double>(plan.n_trg) * c.in_dist.Mean(plan.n_src) + 0.5);
  }
  return plan;
}

/// Line 8 of Fig. 5: resolve the emitted edge count from the two slot
/// counts (-1 = side does not constrain), falling back to the predicate
/// occurrence constraint when neither side does.
Result<int64_t> ResolveEdgeCount(const EdgeConstraint& c,
                                 const GraphSchema& schema,
                                 const NodeLayout& layout, int64_t out_slots,
                                 int64_t in_slots) {
  if (out_slots < 0 && in_slots < 0) {
    // Schema validation guarantees an occurrence constraint exists.
    const auto& occ = schema.predicates()[c.predicate].occurrence;
    if (!occ.has_value()) {
      return Status::Internal("unconstrained edge count for predicate " +
                              schema.PredicateName(c.predicate));
    }
    return occ->is_fixed
               ? occ->fixed_count
               : static_cast<int64_t>(
                     occ->proportion *
                         static_cast<double>(layout.total_nodes()) +
                     0.5);
  }
  if (out_slots < 0) return in_slots;
  if (in_slots < 0) return out_slots;
  return std::min(out_slots, in_slots);
}

// RNG stream phases within one constraint. Each (constraint, phase,
// chunk) triple owns an independent SplitMix64-derived stream.
enum StreamPhase : uint64_t {
  kPhaseOutSlots = 0,
  kPhaseInSlots = 1,
  kPhaseOutShuffle = 2,
  kPhaseInShuffle = 3,
  kPhaseEmit = 4,
};

int64_t NumChunks(int64_t total, int64_t chunk_size) {
  if (total <= 0) return 0;
  return (total + chunk_size - 1) / chunk_size;
}

/// One materialized side of one constraint: each local node j of the
/// side appears draw(dist) times in `slots`, in node order, before the
/// side's shuffle.
struct SlotSide {
  const DistributionSpec* dist = nullptr;
  int64_t node_count = 0;
  int64_t support_max = 0;
  uint64_t slots_phase = kPhaseOutSlots;
  std::vector<SlotIndex>* slots = nullptr;
};

/// Builds and shuffles the materialized sides of constraint `ci`. Chunk
/// k of a side draws its nodes' degrees from the (ci, side, k) stream,
/// so the result depends on chunk boundaries but never on scheduling.
/// Three barrier phases fan out over `executor`, each over both sides:
/// draw every chunk's degrees and count its slots; write each chunk's
/// slots at its offset; shuffle each side with its own stream. Every
/// slot vector is allocated once at its exact size, with no chunk
/// buffers or regrowth beside it; the per-node degrees (4 bytes a
/// node) are freed once the slots are written.
Status BuildSlots(const std::vector<SlotSide>& sides, size_t ci,
                  uint64_t seed, int64_t chunk_size, Executor* executor) {
  struct Pass {
    std::vector<uint32_t> degrees;  // Per node.
    std::vector<size_t> offsets;    // Chunk k's slots start at offsets[k].
    std::vector<char> oversized;    // Chunk k drew a degree >= 2^32.
  };
  std::vector<Pass> passes(sides.size());
  for (size_t s = 0; s < sides.size(); ++s) {
    const SlotSide& side = sides[s];
    Pass& pass = passes[s];
    const size_t n_chunks =
        static_cast<size_t>(NumChunks(side.node_count, chunk_size));
    pass.degrees.resize(static_cast<size_t>(side.node_count));
    pass.offsets.assign(n_chunks + 1, 0);
    pass.oversized.assign(n_chunks, 0);
    for (size_t k = 0; k < n_chunks; ++k) {
      executor->Submit([&side, &pass, k, ci, seed, chunk_size] {
        const DegreeSampler sampler(*side.dist, side.support_max);
        RandomEngine rng(DeriveSeed(seed, ci, side.slots_phase, k));
        const int64_t lo = static_cast<int64_t>(k) * chunk_size;
        const int64_t hi = std::min(lo + chunk_size, side.node_count);
        size_t count = 0;
        for (int64_t j = lo; j < hi; ++j) {
          const int64_t degree = std::max<int64_t>(sampler.Draw(&rng), 0);
          if (degree > std::numeric_limits<uint32_t>::max()) {
            pass.oversized[k] = 1;
          }
          pass.degrees[static_cast<size_t>(j)] =
              static_cast<uint32_t>(degree);
          count += static_cast<size_t>(degree);
        }
        pass.offsets[k + 1] = count;
      });
    }
  }
  executor->Wait();
  for (size_t s = 0; s < sides.size(); ++s) {
    const SlotSide& side = sides[s];
    Pass& pass = passes[s];
    for (char oversized : pass.oversized) {
      if (oversized) {
        return Status::Unsupported(
            "a degree of 2^32 or more slots is not supported");
      }
    }
    for (size_t k = 1; k < pass.offsets.size(); ++k) {
      pass.offsets[k] += pass.offsets[k - 1];
    }
    side.slots->resize(pass.offsets.back());
    for (size_t k = 0; k + 1 < pass.offsets.size(); ++k) {
      executor->Submit([&side, &pass, k, chunk_size] {
        const int64_t lo = static_cast<int64_t>(k) * chunk_size;
        const int64_t hi = std::min(lo + chunk_size, side.node_count);
        SlotIndex* out = side.slots->data() + pass.offsets[k];
        for (int64_t j = lo; j < hi; ++j) {
          out = std::fill_n(out, pass.degrees[static_cast<size_t>(j)],
                            static_cast<SlotIndex>(j));
        }
      });
    }
  }
  executor->Wait();
  passes.clear();
  for (const SlotSide& side : sides) {
    executor->Submit([&side, ci, seed] {
      const uint64_t phase = side.slots_phase == kPhaseOutSlots
                                 ? kPhaseOutShuffle
                                 : kPhaseInShuffle;
      RandomEngine rng(DeriveSeed(seed, ci, phase, 0));
      rng.Shuffle(side.slots);
    });
  }
  executor->Wait();
  return Status::OK();
}

/// Edges per block that an emission chunk hands its visitor: one fixed
/// stack buffer, so emitting (or re-emitting) a chunk allocates nothing.
constexpr size_t kEmitBlockEdges = 1024;

/// One constraint whose slot vectors are built and shuffled and whose
/// edge count is resolved: its edges, chunked over the edge index
/// space, are ready to emit, and to re-emit for as long as the slot
/// vectors are kept.
struct ReadyConstraint {
  size_t index = 0;  // Canonical constraint index.
  const EdgeConstraint* constraint = nullptr;
  const ConstraintPlan* plan = nullptr;
  std::vector<SlotIndex> vsrc;  // Empty when the out side is implicit.
  std::vector<SlotIndex> vtrg;  // Empty when the in side is implicit.
  int64_t edges = 0;
  int64_t chunk_size = 1;
  uint64_t seed = 0;

  int64_t chunk_count() const { return NumChunks(edges, chunk_size); }

  size_t ChunkEdges(int64_t k) const {
    return static_cast<size_t>(std::min(chunk_size, edges - k * chunk_size));
  }

  size_t SlotBytes() const {
    return (vsrc.size() + vtrg.size()) * sizeof(SlotIndex);
  }

  /// Drops the slots past `edges`, which no chunk reads (the edge count
  /// is at most either materialized side's size), so a kept constraint
  /// holds 4 bytes per edge per materialized side.
  void TrimSlots() {
    for (std::vector<SlotIndex>* slots : {&vsrc, &vtrg}) {
      if (slots->size() > static_cast<size_t>(edges)) {
        std::vector<SlotIndex>(slots->begin(), slots->begin() + edges)
            .swap(*slots);
      }
    }
  }

  /// Emission chunk k, handed to `visit` in blocks of at most
  /// kEmitBlockEdges edges: implicit sides draw from the (constraint,
  /// kPhaseEmit, k) stream; materialized sides are pure array reads,
  /// so a chunk's edges depend only on its range and every replay
  /// yields the same edges. Safe to call concurrently for any k. A
  /// visitor error stops the chunk.
  template <typename Visit>
  Status EmitChunk(int64_t k, Visit&& visit) const {
    const int64_t lo = k * chunk_size;
    const int64_t hi = std::min(lo + chunk_size, edges);
    RandomEngine rng(
        DeriveSeed(seed, index, kPhaseEmit, static_cast<uint64_t>(k)));
    std::array<Edge, kEmitBlockEdges> block;
    size_t n = 0;
    for (int64_t i = lo; i < hi; ++i) {
      SlotIndex s =
          plan->out_implicit
              ? static_cast<SlotIndex>(rng.UniformInt(0, plan->n_src - 1))
              : vsrc[static_cast<size_t>(i)];
      SlotIndex t =
          plan->in_implicit
              ? static_cast<SlotIndex>(rng.UniformInt(0, plan->n_trg - 1))
              : vtrg[static_cast<size_t>(i)];
      block[n++] = Edge{plan->src_base + s, constraint->predicate,
                        plan->trg_base + t};
      if (n == block.size()) {
        GMARK_RETURN_NOT_OK(visit(std::span<const Edge>(block.data(), n)));
        n = 0;
      }
    }
    if (n == 0) return Status::OK();
    return visit(std::span<const Edge>(block.data(), n));
  }
};

/// Computes every constraint's plan up front (fails fast on an
/// unsupported type size before any work runs).
Result<std::vector<ConstraintPlan>> PlanAll(const GraphConfiguration& config,
                                            const NodeLayout& layout,
                                            const GeneratorOptions& options) {
  std::vector<ConstraintPlan> plans;
  plans.reserve(config.schema.edge_constraints().size());
  for (const EdgeConstraint& c : config.schema.edge_constraints()) {
    GMARK_ASSIGN_OR_RETURN(ConstraintPlan plan,
                           PlanConstraint(c, layout, options));
    plans.push_back(plan);
  }
  return plans;
}

/// Fig. 5 in canonical constraint order. For each non-empty constraint:
/// build and shuffle its materialized sides (fanned out over
/// `executor`), resolve its edge count, and hand it to `emit`, which
/// may drain its chunks and may move the constraint out to keep its
/// slot vectors; otherwise they die before the next constraint starts.
/// Constraint draws are statistically independent (§4), so walking
/// them one at a time changes no stream: every RNG stream is keyed by
/// (constraint, phase, chunk), never by scheduling.
Status WalkConstraints(const GraphConfiguration& config,
                       const NodeLayout& layout,
                       const std::vector<ConstraintPlan>& plans,
                       const GeneratorOptions& options, Executor* executor,
                       const std::function<Status(ReadyConstraint&)>& emit) {
  const auto& constraints = config.schema.edge_constraints();
  const int64_t chunk_size = options.chunk_size < 1 ? 1 : options.chunk_size;
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const ConstraintPlan& plan = plans[ci];
    if (plan.empty()) continue;
    const EdgeConstraint& c = constraints[ci];
    ReadyConstraint ready;
    ready.index = ci;
    ready.constraint = &c;
    ready.plan = &plan;
    ready.chunk_size = chunk_size;
    ready.seed = config.seed;
    std::vector<SlotSide> sides;
    if (!plan.out_implicit) {
      sides.push_back(SlotSide{.dist = &c.out_dist,
                               .node_count = plan.n_src,
                               .support_max = plan.n_trg,
                               .slots_phase = kPhaseOutSlots,
                               .slots = &ready.vsrc});
    }
    if (!plan.in_implicit) {
      sides.push_back(SlotSide{.dist = &c.in_dist,
                               .node_count = plan.n_trg,
                               .support_max = plan.n_src,
                               .slots_phase = kPhaseInSlots,
                               .slots = &ready.vtrg});
    }
    GMARK_RETURN_NOT_OK(
        BuildSlots(sides, ci, config.seed, chunk_size, executor));
    const int64_t out_slots = plan.out_implicit
                                  ? plan.expected_out_slots
                                  : static_cast<int64_t>(ready.vsrc.size());
    const int64_t in_slots = plan.in_implicit
                                 ? plan.expected_in_slots
                                 : static_cast<int64_t>(ready.vtrg.size());
    GMARK_ASSIGN_OR_RETURN(
        ready.edges,
        ResolveEdgeCount(c, config.schema, layout, out_slots, in_slots));
    if (ready.edges > 0) GMARK_RETURN_NOT_OK(emit(ready));
  }
  return Status::OK();
}

/// Streams constraints into an EdgeSink in canonical order. Emission
/// runs in windows of one chunk per worker; each window is appended to
/// the sink in chunk order on the calling thread and freed before the
/// next starts, so the edge set is never staged: resident edges stay
/// ~ workers * chunk_size.
class WindowedDrain {
 public:
  WindowedDrain(EdgeSink* sink, Executor* executor)
      : sink_(sink),
        executor_(executor),
        buffers_(static_cast<size_t>(executor->workers())) {}

  void Drain(const ReadyConstraint& ready) {
    const int64_t window = static_cast<int64_t>(buffers_.size());
    const int64_t n_chunks = ready.chunk_count();
    for (int64_t first = 0; first < n_chunks; first += window) {
      const int64_t last = std::min(first + window, n_chunks);
      for (int64_t k = first; k < last; ++k) {
        std::vector<Edge>* buffer = &buffers_[static_cast<size_t>(k - first)];
        executor_->Submit([&ready, buffer, k] {
          buffer->reserve(ready.ChunkEdges(k));
          // Appending cannot fail, so neither can the emission.
          (void)ready.EmitChunk(k, [buffer](std::span<const Edge> block) {
            buffer->insert(buffer->end(), block.begin(), block.end());
            return Status::OK();
          });
        });
      }
      executor_->Wait();
      size_t window_bytes = 0;
      for (int64_t k = first; k < last; ++k) {
        std::vector<Edge>& buffer = buffers_[static_cast<size_t>(k - first)];
        for (const Edge& e : buffer) {
          sink_->Append(e.source, e.predicate, e.target);
        }
        total_edges_ += buffer.size();
        window_bytes += buffer.size() * sizeof(Edge);
        buffer = std::vector<Edge>();
      }
      peak_bytes_ = std::max(peak_bytes_, window_bytes);
    }
  }

  size_t total_edges() const { return total_edges_; }
  /// Bytes of the largest window.
  size_t peak_bytes() const { return peak_bytes_; }

 private:
  EdgeSink* sink_;
  Executor* executor_;
  std::vector<std::vector<Edge>> buffers_;  // One per window slot.
  size_t total_edges_ = 0;
  size_t peak_bytes_ = 0;
};

/// Emission chunk k of a kept constraint.
struct ChunkRef {
  const ReadyConstraint* constraint;
  int64_t k;
};

/// One predicate's replayable edge stream over its kept constraints:
/// the (constraint, chunk) pairs in canonical order, each weighted by
/// its exact edge count and re-emitted from the slot vectors whenever
/// the build replays it; the hints are the union of the constraints'
/// endpoint ranges, and `release` frees the slot vectors.
Graph::StreamSpec PredicateStream(std::vector<ReadyConstraint>* kept) {
  Graph::StreamSpec spec;
  std::vector<ChunkRef> chunks;
  spec.source_begin = spec.target_begin = std::numeric_limits<NodeId>::max();
  for (const ReadyConstraint& ready : *kept) {
    const ConstraintPlan& plan = *ready.plan;
    spec.source_begin = std::min(spec.source_begin, plan.src_base);
    spec.source_end = std::max(
        spec.source_end, plan.src_base + static_cast<NodeId>(plan.n_src));
    spec.target_begin = std::min(spec.target_begin, plan.trg_base);
    spec.target_end = std::max(
        spec.target_end, plan.trg_base + static_cast<NodeId>(plan.n_trg));
    for (int64_t k = 0; k < ready.chunk_count(); ++k) {
      chunks.push_back(ChunkRef{&ready, k});
      spec.chunk_edges.push_back(ready.ChunkEdges(k));
    }
  }
  spec.stream = [chunks = std::move(chunks)](
                    size_t chunk_begin, size_t chunk_end,
                    const Graph::EdgeBlockVisitor& visit) -> Status {
    for (size_t i = chunk_begin; i < chunk_end; ++i) {
      GMARK_RETURN_NOT_OK(chunks[i].constraint->EmitChunk(chunks[i].k, visit));
    }
    return Status::OK();
  };
  spec.release = [kept] {
    for (ReadyConstraint& ready : *kept) {
      ready.vsrc = std::vector<SlotIndex>();
      ready.vtrg = std::vector<SlotIndex>();
    }
  };
  return spec;
}

}  // namespace

Status ParallelGenerateToSink(const GraphConfiguration& config,
                              EdgeSink* sink, const GeneratorOptions& options,
                              GenerateStats* stats) {
  GMARK_ASSIGN_OR_RETURN(NodeLayout layout, NodeLayout::Create(config));
  Span generate_span = TraceSpan("gen.generate", "gen");
  GMARK_ASSIGN_OR_RETURN(std::vector<ConstraintPlan> plans,
                         PlanAll(config, layout, options));
  Executor executor(options.num_threads);
  WindowedDrain drain(sink, &executor);
  GMARK_RETURN_NOT_OK(WalkConstraints(config, layout, plans, options,
                                      &executor,
                                      [&drain](ReadyConstraint& ready) {
                                        drain.Drain(ready);
                                        return Status::OK();
                                      }));
  generate_span.End();
  if (stats != nullptr) {
    stats->total_edges = drain.total_edges();
    stats->peak_resident_edge_bytes = drain.peak_bytes();
  }
  return Status::OK();
}

Result<Graph> ParallelGenerateGraph(const GraphConfiguration& config,
                                    const GeneratorOptions& options,
                                    GenerateStats* stats, EdgeSink* sink) {
  WallTimer timer;
  Span layout_span = TraceSpan("gen.layout", "gen");
  GMARK_ASSIGN_OR_RETURN(NodeLayout layout, NodeLayout::Create(config));
  // Before any slot is drawn: a graph of 2^32 nodes cannot be indexed.
  GMARK_RETURN_NOT_OK(Graph::CheckNodeLimit(layout.total_nodes()));
  layout_span.End();
  const double layout_seconds = timer.ElapsedSeconds();

  // The walk keeps every constraint's (trimmed) slot vectors, grouped
  // by predicate in canonical order: they are all the build needs to
  // re-emit any chunk, at 4 bytes per slot where a staged edge costs
  // 24. With a sink, each constraint is also drained into it first.
  timer.Restart();
  Span generate_span = TraceSpan("gen.generate", "gen");
  GMARK_ASSIGN_OR_RETURN(std::vector<ConstraintPlan> plans,
                         PlanAll(config, layout, options));
  Executor executor(options.num_threads);
  std::optional<WindowedDrain> drain;
  if (sink != nullptr) drain.emplace(sink, &executor);
  const size_t predicate_count = config.schema.predicate_count();
  std::vector<std::vector<ReadyConstraint>> kept(predicate_count);
  size_t total_edges = 0;
  size_t slot_bytes = 0;
  GMARK_RETURN_NOT_OK(WalkConstraints(
      config, layout, plans, options, &executor,
      [&](ReadyConstraint& ready) -> Status {
        if (drain.has_value()) drain->Drain(ready);
        ready.TrimSlots();
        total_edges += static_cast<size_t>(ready.edges);
        slot_bytes += ready.SlotBytes();
        kept[ready.constraint->predicate].push_back(std::move(ready));
        return Status::OK();
      }));
  generate_span.End();
  const double generate_seconds = timer.ElapsedSeconds();

  // One chunked stream per predicate, weighted by exact chunk edge
  // counts, with the union of its constraints' endpoint ranges as
  // hints. The build splits each stream into balanced chunk groups on
  // the same executor; every group re-emits its chunks once to count
  // and once to scatter, and `release` frees the predicate's slots
  // after the scatter.
  timer.Restart();
  std::vector<Graph::StreamSpec> streams(predicate_count);
  for (PredicateId p = 0; p < predicate_count; ++p) {
    if (!kept[p].empty()) streams[p] = PredicateStream(&kept[p]);
  }
  Graph::BuildStats build_stats;
  Span index_span = TraceSpan("gen.index", "gen");
  Result<Graph> graph = Graph::Build(std::move(layout), std::move(streams),
                                     &executor, &build_stats);
  index_span.End();
  if (stats != nullptr) {
    stats->index_seconds = timer.ElapsedSeconds();
    stats->layout_seconds = layout_seconds;
    stats->generate_seconds = generate_seconds;
    stats->total_edges = total_edges;
    stats->peak_resident_edge_bytes = slot_bytes;
    stats->index_forward_groups = build_stats.forward_groups;
    stats->index_transpose_groups = build_stats.transpose_groups;
    stats->index_bytes = graph.ok() ? graph->IndexBytes() : 0;
    stats->Record(GlobalMetrics());
  }
  return graph;
}

}  // namespace gmark
