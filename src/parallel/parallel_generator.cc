#include "parallel/parallel_generator.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/shard_store.h"
#include "parallel/sharded_sink.h"
#include "parallel/spill_sink.h"
#include "parallel/thread_pool.h"
#include "util/random.h"
#include "util/timer.h"

namespace gmark {

namespace {

using internal::ConstraintPlan;
using internal::SlotIndex;

/// Chooses the ShardStore once the exact shard/edge totals are known —
/// the auto-spill decision cannot be made earlier because the edge
/// count of a constraint depends on its realized slot vectors. The
/// returned pointer stays owned by the factory's creator.
using ShardStoreFactory =
    std::function<Result<ShardStore*>(size_t shard_count,
                                      int64_t total_edges)>;

/// The static shard -> constraint -> predicate mapping of one run:
/// shards are canonically numbered by (constraint, chunk), so each
/// constraint owns one contiguous index range. The shard-native graph
/// build reads per-predicate edge streams straight off these ranges.
struct ShardPlan {
  struct ConstraintShards {
    PredicateId predicate = 0;
    size_t begin = 0;  // First shard index of this constraint.
    size_t end = 0;    // One past the last.
    // Endpoint id ranges of the constraint's edges — the node-range
    // hints that let the chunked builder size its per-group histograms
    // to the predicate's types instead of the whole layout.
    NodeId src_begin = 0;
    NodeId src_end = 0;
    NodeId trg_begin = 0;
    NodeId trg_end = 0;
  };
  std::vector<ConstraintShards> constraints;
};

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

/// One materialized side of one constraint: chunk build results, the
/// concatenated+shuffled slot vector, and per-chunk error slots.
struct SideBuild {
  size_t constraint_index = 0;
  const DistributionSpec* dist = nullptr;
  int64_t node_count = 0;
  int64_t support_max = 0;
  uint64_t slots_phase = kPhaseOutSlots;
  uint64_t shuffle_phase = kPhaseOutShuffle;
  std::vector<std::vector<SlotIndex>> chunks;
  std::vector<Status> chunk_status;
  std::vector<SlotIndex> slots;
};

/// The full parallel run: three barrier phases (build, shuffle, emit),
/// each fanning out over every constraint at once so cross-constraint
/// and intra-constraint parallelism compose. Tasks run on the caller's
/// `executor` (shared with any downstream indexing). The destination
/// store is created by `factory` between phases 2 and 3, when the exact
/// edge total is known; `plan_out`, if non-null, receives the static
/// shard -> predicate mapping.
Status GenerateShards(const GraphConfiguration& config,
                      const NodeLayout& layout,
                      const GeneratorOptions& options, Executor* executor_ptr,
                      const ShardStoreFactory& factory,
                      ShardPlan* plan_out = nullptr) {
  const auto& constraints = config.schema.edge_constraints();
  const int64_t chunk_size = options.chunk_size < 1 ? 1 : options.chunk_size;
  const uint64_t seed = config.seed;

  std::vector<ConstraintPlan> plans;
  plans.reserve(constraints.size());
  for (const EdgeConstraint& c : constraints) {
    GMARK_ASSIGN_OR_RETURN(ConstraintPlan plan,
                           internal::PlanConstraint(c, layout, options));
    plans.push_back(plan);
  }

  Executor& executor = *executor_ptr;

  // Phase 1 — build slot vectors, chunked over node ranges. Chunk k of
  // a side draws its nodes' degrees from the stream (ci, side, k), so
  // the result depends on chunk boundaries but never on scheduling.
  std::vector<std::unique_ptr<SideBuild>> builds;
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const ConstraintPlan& plan = plans[ci];
    if (plan.empty()) continue;
    if (!plan.out_implicit) {
      auto side = std::make_unique<SideBuild>();
      side->constraint_index = ci;
      side->dist = &constraints[ci].out_dist;
      side->node_count = plan.n_src;
      side->support_max = plan.n_trg;
      side->slots_phase = kPhaseOutSlots;
      side->shuffle_phase = kPhaseOutShuffle;
      builds.push_back(std::move(side));
    }
    if (!plan.in_implicit) {
      auto side = std::make_unique<SideBuild>();
      side->constraint_index = ci;
      side->dist = &constraints[ci].in_dist;
      side->node_count = plan.n_trg;
      side->support_max = plan.n_src;
      side->slots_phase = kPhaseInSlots;
      side->shuffle_phase = kPhaseInShuffle;
      builds.push_back(std::move(side));
    }
  }
  for (auto& side_ptr : builds) {
    SideBuild* side = side_ptr.get();
    const int64_t n_chunks = NumChunks(side->node_count, chunk_size);
    side->chunks.resize(static_cast<size_t>(n_chunks));
    side->chunk_status.assign(static_cast<size_t>(n_chunks), Status::OK());
    for (int64_t k = 0; k < n_chunks; ++k) {
      executor.Submit([side, k, chunk_size, seed] {
        const int64_t lo = k * chunk_size;
        const int64_t hi = std::min(lo + chunk_size, side->node_count);
        RandomEngine rng(DeriveSeed(seed, side->constraint_index,
                                    side->slots_phase,
                                    static_cast<uint64_t>(k)));
        side->chunk_status[static_cast<size_t>(k)] = internal::BuildSlotRange(
            *side->dist, lo, hi, side->support_max, &rng,
            &side->chunks[static_cast<size_t>(k)]);
      });
    }
  }
  executor.Wait();
  for (const auto& side : builds) {
    for (const Status& st : side->chunk_status) {
      GMARK_RETURN_NOT_OK(st);
    }
  }

  // Phase 2 — concatenate chunks in chunk order and shuffle each side
  // with its own stream. One task per materialized side: the shuffle is
  // inherently a global permutation, but sides of different constraints
  // shuffle concurrently.
  for (auto& side_ptr : builds) {
    SideBuild* side = side_ptr.get();
    executor.Submit([side, seed] {
      size_t total = 0;
      for (const auto& chunk : side->chunks) total += chunk.size();
      side->slots.reserve(total);
      for (auto& chunk : side->chunks) {
        side->slots.insert(side->slots.end(), chunk.begin(), chunk.end());
        // Free each chunk as it is absorbed: holding all chunks until
        // the end would double peak memory on the generator's largest
        // data structure.
        chunk = {};
      }
      side->chunks.clear();
      side->chunks.shrink_to_fit();
      RandomEngine rng(
          DeriveSeed(seed, side->constraint_index, side->shuffle_phase, 0));
      rng.Shuffle(&side->slots);
    });
  }
  executor.Wait();

  // Index the shuffled sides back to their constraints.
  std::vector<const std::vector<SlotIndex>*> out_slots_of(constraints.size(),
                                                          nullptr);
  std::vector<const std::vector<SlotIndex>*> in_slots_of(constraints.size(),
                                                         nullptr);
  for (const auto& side : builds) {
    if (side->slots_phase == kPhaseOutSlots) {
      out_slots_of[side->constraint_index] = &side->slots;
    } else {
      in_slots_of[side->constraint_index] = &side->slots;
    }
  }

  // Phase 3 — resolve edge counts, then emit chunked over the edge
  // index space into canonically numbered shards. Implicit sides draw
  // from the (ci, kPhaseEmit, chunk) stream; materialized sides are
  // pure array reads, so a chunk's output depends only on its range.
  std::vector<int64_t> edge_counts(constraints.size(), 0);
  std::vector<size_t> shard_base(constraints.size(), 0);
  size_t total_shards = 0;
  int64_t total_edges = 0;
  if (plan_out != nullptr) plan_out->constraints.clear();
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const ConstraintPlan& plan = plans[ci];
    if (plan.empty()) continue;
    const int64_t out_slots =
        out_slots_of[ci] ? static_cast<int64_t>(out_slots_of[ci]->size())
                         : plan.expected_out_slots;
    const int64_t in_slots =
        in_slots_of[ci] ? static_cast<int64_t>(in_slots_of[ci]->size())
                        : plan.expected_in_slots;
    GMARK_ASSIGN_OR_RETURN(
        edge_counts[ci],
        internal::ResolveEdgeCount(constraints[ci], config.schema, layout,
                                   out_slots, in_slots));
    shard_base[ci] = total_shards;
    total_shards += static_cast<size_t>(NumChunks(edge_counts[ci],
                                                  chunk_size));
    total_edges += edge_counts[ci];
    if (plan_out != nullptr) {
      plan_out->constraints.push_back(ShardPlan::ConstraintShards{
          constraints[ci].predicate, shard_base[ci], total_shards,
          plan.src_base, plan.src_base + static_cast<NodeId>(plan.n_src),
          plan.trg_base, plan.trg_base + static_cast<NodeId>(plan.n_trg)});
    }
  }
  GMARK_ASSIGN_OR_RETURN(ShardStore* out, factory(total_shards, total_edges));
  GMARK_RETURN_NOT_OK(out->Reset(total_shards));

  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const ConstraintPlan& plan = plans[ci];
    const int64_t edges = edge_counts[ci];
    if (plan.empty() || edges == 0) continue;
    const EdgeConstraint& c = constraints[ci];
    const std::vector<SlotIndex>* vsrc = out_slots_of[ci];
    const std::vector<SlotIndex>* vtrg = in_slots_of[ci];
    const int64_t n_chunks = NumChunks(edges, chunk_size);
    for (int64_t k = 0; k < n_chunks; ++k) {
      const size_t shard_index = shard_base[ci] + static_cast<size_t>(k);
      executor.Submit([&c, &plan, vsrc, vtrg, out, shard_index, ci, k, edges,
                       chunk_size, seed] {
        const int64_t lo = k * chunk_size;
        const int64_t hi = std::min(lo + chunk_size, edges);
        RandomEngine rng(
            DeriveSeed(seed, ci, kPhaseEmit, static_cast<uint64_t>(k)));
        std::vector<Edge> buffer;
        buffer.reserve(static_cast<size_t>(hi - lo));
        for (int64_t i = lo; i < hi; ++i) {
          SlotIndex s =
              plan.out_implicit
                  ? static_cast<SlotIndex>(rng.UniformInt(0, plan.n_src - 1))
                  : (*vsrc)[static_cast<size_t>(i)];
          SlotIndex t =
              plan.in_implicit
                  ? static_cast<SlotIndex>(rng.UniformInt(0, plan.n_trg - 1))
                  : (*vtrg)[static_cast<size_t>(i)];
          buffer.push_back(Edge{plan.src_base + s, c.predicate,
                                plan.trg_base + t});
        }
        out->PutShard(shard_index, std::move(buffer));
      });
    }
  }
  executor.Wait();
  return out->Finish();
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

namespace {

/// In-memory-or-spill store selection, shared by the streaming and the
/// indexed entry points; decided once the exact edge total is known.
ShardStoreFactory AutoSpillFactory(const GeneratorOptions& options,
                                   std::unique_ptr<ShardStore>* store,
                                   bool* spilled) {
  return [store, spilled, &options](size_t,
                                    int64_t total_edges) -> Result<ShardStore*> {
    *spilled = internal::ShouldSpill(options, total_edges);
    if (*spilled) {
      SpillSink::Options spill_options;
      spill_options.dir = options.spill_dir;
      *store = std::make_unique<SpillSink>(spill_options);
    } else {
      *store = std::make_unique<ShardedSink>();
    }
    return store->get();
  };
}

}  // namespace

Status ParallelGenerateToSink(const GraphConfiguration& config,
                              EdgeSink* sink, const GeneratorOptions& options,
                              GenerateStats* stats) {
  GMARK_ASSIGN_OR_RETURN(NodeLayout layout, NodeLayout::Create(config));
  std::unique_ptr<ShardStore> store;
  bool spilled = false;
  Executor executor(options.num_threads);
  GMARK_RETURN_NOT_OK(GenerateShards(
      config, layout, options, &executor,
      AutoSpillFactory(options, &store, &spilled)));
  GMARK_RETURN_NOT_OK(store->Drain(sink));
  if (stats != nullptr) {
    stats->total_edges = store->TotalEdges();
    stats->peak_resident_edge_bytes = store->PeakResidentEdgeBytes();
    stats->spilled = spilled;
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

  std::unique_ptr<ShardStore> store;
  bool spilled = false;
  Executor executor(options.num_threads);
  ShardPlan plan;
  timer.Restart();
  {
    Span generate_span = TraceSpan("gen.generate", "gen");
    GMARK_RETURN_NOT_OK(GenerateShards(config, layout, options, &executor,
                                       AutoSpillFactory(options, &store,
                                                        &spilled),
                                       &plan));
  }
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
  for (const ShardPlan::ConstraintShards& cs : plan.constraints) {
    if (cs.end <= cs.begin) continue;
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
    stats->Record(GlobalMetrics());
  }
  return graph;
}

}  // namespace gmark
