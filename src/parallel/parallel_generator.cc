#include "parallel/parallel_generator.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/shard_store.h"
#include "parallel/sharded_sink.h"
#include "parallel/spill_sink.h"
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

/// One constraint whose slot vectors are built and shuffled and whose
/// edge count is resolved: its edges, chunked over the edge index
/// space, are ready to emit.
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

  /// Emission chunk k: implicit sides draw from the (constraint,
  /// kPhaseEmit, k) stream; materialized sides are pure array reads,
  /// so a chunk's edges depend only on its range. Safe to call
  /// concurrently for distinct k.
  std::vector<Edge> Chunk(int64_t k) const {
    const int64_t lo = k * chunk_size;
    const int64_t hi = std::min(lo + chunk_size, edges);
    RandomEngine rng(
        DeriveSeed(seed, index, kPhaseEmit, static_cast<uint64_t>(k)));
    std::vector<Edge> buffer;
    buffer.reserve(static_cast<size_t>(hi - lo));
    for (int64_t i = lo; i < hi; ++i) {
      SlotIndex s =
          plan->out_implicit
              ? static_cast<SlotIndex>(rng.UniformInt(0, plan->n_src - 1))
              : vsrc[static_cast<size_t>(i)];
      SlotIndex t =
          plan->in_implicit
              ? static_cast<SlotIndex>(rng.UniformInt(0, plan->n_trg - 1))
              : vtrg[static_cast<size_t>(i)];
      buffer.push_back(Edge{plan->src_base + s, constraint->predicate,
                            plan->trg_base + t});
    }
    return buffer;
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
/// fans the emission chunks out and returns after its own barrier. The
/// slot vectors die before the next constraint starts, so at most one
/// constraint's slots are ever resident. Constraint draws are
/// statistically independent (§4), so walking them one at a time
/// changes no stream: every RNG stream is keyed by (constraint, phase,
/// chunk), never by scheduling.
Status WalkConstraints(
    const GraphConfiguration& config, const NodeLayout& layout,
    const std::vector<ConstraintPlan>& plans, const GeneratorOptions& options,
    Executor* executor,
    const std::function<Status(const ReadyConstraint&)>& emit) {
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

/// The static shard -> constraint -> predicate mapping of one run:
/// shards are canonically numbered by (constraint, chunk), so each
/// constraint owns one contiguous index range. The shard-native graph
/// build reads per-predicate edge streams straight off these ranges.
struct ConstraintShards {
  PredicateId predicate = 0;
  size_t begin = 0;  // First shard index of this constraint.
  size_t end = 0;    // One past the last.
  // Endpoint id ranges of the constraint's edges — the node-range hints
  // that let the chunked builder size its per-group histograms to the
  // predicate's types instead of the whole layout.
  NodeId src_begin = 0;
  NodeId src_end = 0;
  NodeId trg_begin = 0;
  NodeId trg_end = 0;
};

/// Generates every edge into `store`, which grows by each constraint's
/// shards between barriers; `shards_out` receives the static shard
/// ranges. Surfaces the store's deferred write errors.
Status GenerateShards(const GraphConfiguration& config,
                      const NodeLayout& layout,
                      const std::vector<ConstraintPlan>& plans,
                      const GeneratorOptions& options, Executor* executor,
                      ShardStore* store,
                      std::vector<ConstraintShards>* shards_out) {
  GMARK_RETURN_NOT_OK(WalkConstraints(
      config, layout, plans, options, executor,
      [executor, store, shards_out](const ReadyConstraint& ready) -> Status {
        const size_t base = store->shard_count();
        const int64_t n_chunks = ready.chunk_count();
        GMARK_RETURN_NOT_OK(store->AddShards(static_cast<size_t>(n_chunks)));
        const ConstraintPlan& plan = *ready.plan;
        shards_out->push_back(ConstraintShards{
            ready.constraint->predicate, base, store->shard_count(),
            plan.src_base, plan.src_base + static_cast<NodeId>(plan.n_src),
            plan.trg_base, plan.trg_base + static_cast<NodeId>(plan.n_trg)});
        for (int64_t k = 0; k < n_chunks; ++k) {
          executor->Submit([&ready, store, base, k] {
            store->PutShard(base + static_cast<size_t>(k), ready.Chunk(k));
          });
        }
        executor->Wait();
        return Status::OK();
      }));
  return store->Finish();
}

}  // namespace

namespace internal {

bool ShouldSpill(const GeneratorOptions& options, int64_t total_edges) {
  if (options.spill_threshold_bytes < 0) return false;
  const int64_t edge_bytes =
      total_edges * static_cast<int64_t>(sizeof(Edge));
  return edge_bytes > options.spill_threshold_bytes;
}

}  // namespace internal

Status ParallelGenerateToSink(const GraphConfiguration& config,
                              EdgeSink* sink, const GeneratorOptions& options,
                              GenerateStats* stats) {
  GMARK_ASSIGN_OR_RETURN(NodeLayout layout, NodeLayout::Create(config));
  GMARK_ASSIGN_OR_RETURN(std::vector<ConstraintPlan> plans,
                         PlanAll(config, layout, options));
  Executor executor(options.num_threads);
  // One window = one emission chunk per worker. Each window is drained
  // into `sink` in chunk order and freed before the next is submitted,
  // so the edge set is never staged.
  const int64_t window = executor.workers();
  std::vector<std::vector<Edge>> buffers(static_cast<size_t>(window));
  size_t total_edges = 0;
  size_t peak_bytes = 0;
  GMARK_RETURN_NOT_OK(WalkConstraints(
      config, layout, plans, options, &executor,
      [&](const ReadyConstraint& ready) -> Status {
        const int64_t n_chunks = ready.chunk_count();
        for (int64_t first = 0; first < n_chunks; first += window) {
          const int64_t last = std::min(first + window, n_chunks);
          for (int64_t k = first; k < last; ++k) {
            executor.Submit([&ready, &buffers, first, k] {
              buffers[static_cast<size_t>(k - first)] = ready.Chunk(k);
            });
          }
          executor.Wait();
          size_t window_bytes = 0;
          for (int64_t k = first; k < last; ++k) {
            std::vector<Edge>& buffer = buffers[static_cast<size_t>(k - first)];
            for (const Edge& e : buffer) {
              sink->Append(e.source, e.predicate, e.target);
            }
            total_edges += buffer.size();
            window_bytes += buffer.size() * sizeof(Edge);
            buffer = std::vector<Edge>();
          }
          peak_bytes = std::max(peak_bytes, window_bytes);
        }
        return Status::OK();
      }));
  if (stats != nullptr) {
    stats->total_edges = total_edges;
    stats->peak_resident_edge_bytes = peak_bytes;
    stats->spilled = false;
  }
  return Status::OK();
}

Result<Graph> ParallelGenerateGraph(const GraphConfiguration& config,
                                    const GeneratorOptions& options,
                                    GenerateStats* stats) {
  WallTimer timer;
  Span layout_span = TraceSpan("gen.layout", "gen");
  GMARK_ASSIGN_OR_RETURN(NodeLayout layout, NodeLayout::Create(config));
  layout_span.End();
  const double layout_seconds = timer.ElapsedSeconds();

  timer.Restart();
  Span generate_span = TraceSpan("gen.generate", "gen");
  GMARK_ASSIGN_OR_RETURN(std::vector<ConstraintPlan> plans,
                         PlanAll(config, layout, options));
  // The spill decision must precede the first shard, so it reads the
  // expected edge total (slot means, no draws). It picks where shards
  // stage, never which bytes they hold.
  int64_t expected_edges = 0;
  for (size_t ci = 0; ci < plans.size(); ++ci) {
    if (plans[ci].empty()) continue;
    GMARK_ASSIGN_OR_RETURN(
        int64_t edges,
        ResolveEdgeCount(config.schema.edge_constraints()[ci], config.schema,
                         layout, plans[ci].expected_out_slots,
                         plans[ci].expected_in_slots));
    expected_edges += edges;
  }
  const bool spilled = internal::ShouldSpill(options, expected_edges);
  std::unique_ptr<ShardStore> store;
  if (spilled) {
    SpillSink::Options spill_options;
    spill_options.dir = options.spill_dir;
    store = std::make_unique<SpillSink>(spill_options);
  } else {
    store = std::make_unique<ShardedSink>();
  }
  Executor executor(options.num_threads);
  std::vector<ConstraintShards> shard_ranges;
  GMARK_RETURN_NOT_OK(GenerateShards(config, layout, plans, options,
                                     &executor, store.get(), &shard_ranges));
  generate_span.End();
  const double generate_seconds = timer.ElapsedSeconds();

  // Shard-native indexing: flatten each predicate's static shard ranges
  // (several when multiple constraints share a predicate) into one
  // chunk-addressable stream — chunk = shard, weighted by its exact
  // edge count, endpoint hints = the union of the predicate's
  // constraint ranges — plus a release hook. The builder splits the
  // chunks into balanced groups, so the counting-sort tasks parallelize
  // within a predicate too, on the same executor that just generated
  // the shards; sub-ranges replay independently whether the shards live
  // in memory or on disk.
  timer.Restart();
  const size_t predicate_count = config.schema.predicate_count();
  struct PredicateShards {
    std::vector<size_t> shards;  // Canonical indices, ascending.
    NodeId src_begin = 0, src_end = 0;
    NodeId trg_begin = 0, trg_end = 0;
  };
  std::vector<PredicateShards> per_pred(predicate_count);
  for (const ConstraintShards& cs : shard_ranges) {
    PredicateShards& ps = per_pred[cs.predicate];
    const bool first = ps.shards.empty();
    for (size_t s = cs.begin; s < cs.end; ++s) ps.shards.push_back(s);
    ps.src_begin = first ? cs.src_begin : std::min(ps.src_begin, cs.src_begin);
    ps.src_end = first ? cs.src_end : std::max(ps.src_end, cs.src_end);
    ps.trg_begin = first ? cs.trg_begin : std::min(ps.trg_begin, cs.trg_begin);
    ps.trg_end = first ? cs.trg_end : std::max(ps.trg_end, cs.trg_end);
  }
  Graph::Builder builder(std::move(layout), predicate_count);
  builder.set_max_groups(static_cast<size_t>(
      options.index_max_groups < 0 ? 0 : options.index_max_groups));
  ShardStore* raw_store = store.get();
  for (PredicateId p = 0; p < predicate_count; ++p) {
    PredicateShards& ps = per_pred[p];
    if (ps.shards.empty()) continue;
    Graph::Builder::StreamSpec spec;
    spec.chunk_count = ps.shards.size();
    spec.chunk_edges.reserve(ps.shards.size());
    for (size_t s : ps.shards) {
      spec.chunk_edges.push_back(raw_store->ShardEdgeCount(s));
    }
    spec.source_begin = ps.src_begin;
    spec.source_end = ps.src_end;
    spec.target_begin = ps.trg_begin;
    spec.target_end = ps.trg_end;
    spec.stream = [raw_store, shards = ps.shards](
                      size_t chunk_begin, size_t chunk_end,
                      const Graph::EdgeBlockVisitor& visit) -> Status {
      // Coalesce consecutive shard indices into single VisitRange
      // calls (constraint ranges are contiguous, so runs are long).
      size_t i = chunk_begin;
      while (i < chunk_end) {
        size_t j = i + 1;
        while (j < chunk_end && shards[j] == shards[j - 1] + 1) ++j;
        GMARK_RETURN_NOT_OK(
            raw_store->VisitRange(shards[i], shards[j - 1] + 1, visit));
        i = j;
      }
      return Status::OK();
    };
    spec.release = [raw_store, shards = ps.shards] {
      size_t i = 0;
      while (i < shards.size()) {
        size_t j = i + 1;
        while (j < shards.size() && shards[j] == shards[j - 1] + 1) ++j;
        raw_store->ReleaseRange(shards[i], shards[j - 1] + 1);
        i = j;
      }
    };
    builder.SetChunkedStream(p, std::move(spec));
  }
  Graph::Builder::BuildStats build_stats;
  Span index_span = TraceSpan("gen.index", "gen");
  Result<Graph> graph = std::move(builder).Build(&executor, &build_stats);
  index_span.End();
  if (stats != nullptr) {
    stats->index_seconds = timer.ElapsedSeconds();
    stats->layout_seconds = layout_seconds;
    stats->generate_seconds = generate_seconds;
    stats->total_edges = store->TotalEdges();
    stats->peak_resident_edge_bytes = store->PeakResidentEdgeBytes();
    stats->spilled = spilled;
    stats->index_forward_groups = build_stats.forward_groups;
    stats->index_transpose_groups = build_stats.transpose_groups;
    stats->index_bytes = graph.ok() ? graph->IndexBytes() : 0;
    stats->Record(GlobalMetrics());
  }
  return graph;
}

}  // namespace gmark
