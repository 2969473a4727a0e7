// Microbenchmarks for the primitives the generator and evaluator are
// built from: Zipf sampling (rejection-inversion), Gaussian draws,
// slot-vector shuffles, the indexed graph build, CSR neighbor scans,
// workload generation, product-graph BFS,
// regex-to-NFA compilation, and the relational kernels (hash join,
// distinct projection, distinct union, path composition, disjunct
// union, naive and semi-naive closure); and for the text writers:
// N-Triples, workload XML, and the four translators.

#include <benchmark/benchmark.h>

#include <numeric>
#include <ostream>
#include <streambuf>

#include "core/use_cases.h"
#include "engine/engine_common.h"
#include "engine/evaluator.h"
#include "engine/relation.h"
#include "graph/graph_io.h"
#include "parallel/parallel_generator.h"
#include "translate/translator.h"
#include "util/zipf.h"
#include "workload/query_generator.h"

namespace {

using namespace gmark;

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler sampler(2.5, state.range(0));
  RandomEngine rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000);

void BM_GaussianDraw(benchmark::State& state) {
  RandomEngine rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.GaussianInt(3.0, 1.0));
  }
}
BENCHMARK(BM_GaussianDraw);

void BM_SlotVectorShuffle(benchmark::State& state) {
  RandomEngine rng(3);
  std::vector<uint32_t> slots(static_cast<size_t>(state.range(0)));
  std::iota(slots.begin(), slots.end(), 0u);
  for (auto _ : state) {
    rng.Shuffle(&slots);
    benchmark::DoNotOptimize(slots.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlotVectorShuffle)->Arg(100000)->Arg(1000000);

void BM_RpqProductBfs(benchmark::State& state) {
  GraphConfiguration config = MakeBibConfig(state.range(0), 7);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  // Co-authorship: authors . authors^- — a 3-state NFA.
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
  Nfa nfa = Nfa::FromRegex(co).ValueOrDie();
  RpqEvaluator rpq(&graph);
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    benchmark::DoNotOptimize(rpq.CountPairs(nfa, &budget).ValueOr(0));
  }
}
BENCHMARK(BM_RpqProductBfs)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

/// The indexed build: generate a graph and build its CSRs (the
/// build-wide group budget, the in-place histograms). LSN on 2 threads
/// is the shape of pipebench `generate`; WD on 4 threads splits
/// predicates into several chunk groups. `groups` counts the forward
/// plus transpose groups of one build.
void BM_CsrBuild(benchmark::State& state,
                 GraphConfiguration (*make_config)(int64_t, uint64_t),
                 int threads) {
  GraphConfiguration config = make_config(state.range(0), 7);
  GeneratorOptions options;
  options.num_threads = threads;
  GenerateStats stats;
  for (auto _ : state) {
    Graph graph = ParallelGenerateGraph(config, options, &stats).ValueOrDie();
    benchmark::DoNotOptimize(graph.IndexBytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stats.total_edges));
  state.counters["groups"] = static_cast<double>(
      stats.index_forward_groups + stats.index_transpose_groups);
}
BENCHMARK_CAPTURE(BM_CsrBuild, lsn_2_threads, MakeLsnConfig, 2)
    ->Arg(100000)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CsrBuild, wd_4_threads, MakeWdConfig, 4)
    ->Arg(100000)->UseRealTime()->Unit(benchmark::kMillisecond);

/// The engines' adjacency access: fetch the forward and backward span of
/// every node of an LSN graph for every predicate (so nodes outside a
/// predicate's endpoint range are included) and read every neighbor.
void BM_CsrNeighborScan(benchmark::State& state) {
  GraphConfiguration config = MakeLsnConfig(state.range(0), 7);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  const auto n = static_cast<NodeId>(graph.num_nodes());
  for (auto _ : state) {
    NodeId acc = 0;
    for (PredicateId p = 0; p < graph.predicate_count(); ++p) {
      for (NodeId v = 0; v < n; ++v) {
        for (NodeId w : graph.OutNeighbors(p, v)) acc += w;
        for (NodeId u : graph.InNeighbors(p, v)) acc += u;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<int64_t>(graph.num_edges()));
}
BENCHMARK(BM_CsrNeighborScan)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// Join inputs (?0, ?1) and (?1, ?2) of `n` random rows each, ?1 drawn
/// from [0, n]: the output is about n rows.
std::pair<VarRelation, VarRelation> JoinInputs(int64_t n) {
  RandomEngine rng(3);
  std::vector<std::pair<NodeId, NodeId>> left, right;
  for (int64_t i = 0; i < n; ++i) {
    left.emplace_back(static_cast<NodeId>(rng.UniformInt(0, n / 4)),
                      static_cast<NodeId>(rng.UniformInt(0, n)));
    right.emplace_back(static_cast<NodeId>(rng.UniformInt(0, n)),
                       static_cast<NodeId>(rng.UniformInt(0, n / 4)));
  }
  return {VarRelation::FromPairs(0, 1, left),
          VarRelation::FromPairs(1, 2, right)};
}

void BM_HashJoin(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto [a, b] = JoinInputs(n);
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    auto joined = HashJoin(a, b, &budget);
    benchmark::DoNotOptimize(joined.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoin)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// A join killed by a tuple ceiling of `state.range(0)` (pipebench's
/// eval workloads use 100k): BM_HashJoin's inputs at twice the ceiling,
/// whose output is about twice the ceiling.
void BM_HashJoinKilled(benchmark::State& state) {
  const auto ceiling = static_cast<size_t>(state.range(0));
  const int64_t n = 2 * state.range(0);
  const auto [a, b] = JoinInputs(n);
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Limited(60.0, ceiling));
    auto joined = HashJoin(a, b, &budget);
    benchmark::DoNotOptimize(joined.ok());
    if (joined.ok()) {
      state.SkipWithError("join output fits the ceiling");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoinKilled)->Arg(100000)->Unit(benchmark::kMillisecond);

/// `n` random rows of `width` columns, each drawn from [0, range].
VarRelation RandomRelation(std::vector<VarId> vars, int64_t n,
                           int64_t range, uint64_t seed) {
  RandomEngine rng(seed);
  VarRelation rel(std::move(vars));
  std::vector<NodeId> row(rel.width());
  for (int64_t i = 0; i < n; ++i) {
    for (NodeId& v : row) v = static_cast<NodeId>(rng.UniformInt(0, range));
    rel.AppendRow(row);
  }
  return rel;
}

void BM_ProjectDistinct(benchmark::State& state) {
  const int64_t n = state.range(0);
  // Width 3 onto 2 columns: about half the projected rows repeat.
  VarRelation rel = RandomRelation({0, 1, 2}, n, n / 64, 3);
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    auto projected = ProjectDistinct(rel, {2, 0}, &budget);
    benchmark::DoNotOptimize(projected.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProjectDistinct)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_CountDistinctUnion(benchmark::State& state) {
  const int64_t n = state.range(0);
  // Two overlapping rules' heads.
  std::vector<VarRelation> rels{RandomRelation({0, 1}, n, n / 8, 3),
                                RandomRelation({0, 1}, n, n / 8, 5)};
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    benchmark::DoNotOptimize(CountDistinctUnion(rels, &budget).ValueOr(0));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_CountDistinctUnion)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// Co-authorship, authors . authors^-: one predicate, hub-heavy.
RegularExpression CoAuthors() {
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
  return co;
}

void BM_ComposePathPairs(benchmark::State& state) {
  GraphConfiguration config = MakeBibConfig(state.range(0), 7);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  const bool set_semantics = state.range(1) != 0;
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    auto pairs = ComposePathPairs(graph, CoAuthors().disjuncts[0],
                                  set_semantics, &budget);
    benchmark::DoNotOptimize(pairs.ok());
  }
}
BENCHMARK(BM_ComposePathPairs)->ArgNames({"n", "set"})
    ->Args({20000, 0})->Args({20000, 1})->Unit(benchmark::kMillisecond);

/// authors^- . authors + publishedIn . publishedIn^-: papers sharing an
/// author or a conference. Two overlapping disjuncts, one inverse-first,
/// so the source-by-source union has work to do.
void BM_RegexBasePairs(benchmark::State& state) {
  GraphConfiguration config = MakeBibConfig(state.range(0), 7);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  const PredicateId authors =
      config.schema.PredicateIdOf("authors").ValueOrDie();
  const PredicateId published_in =
      config.schema.PredicateIdOf("publishedIn").ValueOrDie();
  RegularExpression expr;
  expr.disjuncts = {{Symbol::Inv(authors), Symbol::Fwd(authors)},
                    {Symbol::Fwd(published_in), Symbol::Inv(published_in)}};
  const bool set_semantics = state.range(1) != 0;
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    auto pairs = RegexBasePairs(graph, expr, set_semantics, &budget);
    benchmark::DoNotOptimize(pairs.ok());
  }
}
BENCHMARK(BM_RegexBasePairs)->ArgNames({"n", "set"})
    ->Args({20000, 0})->Args({20000, 1})->Unit(benchmark::kMillisecond);

/// (authors . authors^-)*: Bib's one self-chaining shape, the Rec
/// preset's closure.
void BM_Closure(benchmark::State& state, bool naive) {
  GraphConfiguration config = MakeBibConfig(state.range(0), 7);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  BudgetTracker base_budget(ResourceBudget::Unlimited());
  NodePairs base =
      RegexBasePairs(graph, CoAuthors(), true, &base_budget).ValueOrDie().value;
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    auto closed = naive ? ClosureNaive(graph, base, &budget)
                        : ClosureSemiNaive(graph, base, &budget);
    benchmark::DoNotOptimize(closed.ok());
  }
}
BENCHMARK_CAPTURE(BM_Closure, naive, true)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Closure, semi_naive, false)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_NfaFromRegex(benchmark::State& state) {
  // A Rec-style expression: three disjuncts, inverses, a star.
  RegularExpression expr;
  expr.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)},
                    {Symbol::Fwd(1), Symbol::Fwd(2), Symbol::Inv(2)},
                    {Symbol::Inv(3)}};
  expr.star = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Nfa::FromRegex(expr).ok());
  }
}
BENCHMARK(BM_NfaFromRegex);

/// Discards everything written to it, counting the bytes.
class NullBuf : public std::streambuf {
 public:
  int64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += n;
    return n;
  }
  int_type overflow(int_type ch) override {
    ++bytes_;
    return traits_type::not_eof(ch);
  }

 private:
  int64_t bytes_ = 0;
};

void BM_NTriplesFormat(benchmark::State& state) {
  GraphConfiguration config = MakeBibConfig(state.range(0), 7);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  NullBuf buf;
  std::ostream out(&buf);
  for (auto _ : state) {
    Status st = WriteNTriples(graph, config.schema, &out);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetBytesProcessed(buf.bytes());
}
BENCHMARK(BM_NTriplesFormat)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_CsvFormat(benchmark::State& state) {
  GraphConfiguration config = MakeBibConfig(state.range(0), 7);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  NullBuf buf;
  std::ostream out(&buf);
  for (auto _ : state) {
    Status st = WriteCsv(graph, config.schema, &out);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetBytesProcessed(buf.bytes());
}
BENCHMARK(BM_CsvFormat)->Arg(100000)->Unit(benchmark::kMillisecond);

/// The per-line path: every edge through NTriplesSink::Append, one
/// stream write per line, as the streaming generator drives it.
void BM_NTriplesSinkAppend(benchmark::State& state) {
  GraphConfiguration config = MakeBibConfig(state.range(0), 7);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  NullBuf buf;
  std::ostream out(&buf);
  for (auto _ : state) {
    NTriplesSink sink(&out, &config.schema);
    for (PredicateId p = 0; p < graph.predicate_count(); ++p) {
      graph.ForEachEdge(p, [&sink, p](NodeId src, NodeId trg) {
        sink.Append(src, p, trg);
      });
    }
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetBytesProcessed(buf.bytes());
}
BENCHMARK(BM_NTriplesSinkAppend)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// The generate workload's query mix: every shape and selectivity
/// class, recursion probability 0.3.
WorkloadConfiguration MixedWorkloadConfig(int64_t queries) {
  WorkloadConfiguration w;
  w.num_queries = static_cast<size_t>(queries);
  w.shapes = {QueryShape::kChain, QueryShape::kStar, QueryShape::kCycle,
              QueryShape::kStarChain};
  w.recursion_probability = 0.3;
  return w;
}

Workload MixedWorkload(const GraphSchema& schema, int64_t queries) {
  return QueryGenerator(&schema)
      .Generate(MixedWorkloadConfig(queries))
      .ValueOrDie();
}

/// Fig. 6 on one thread over the LSN schema: per-workload tables, then
/// nb_path draws through the schema graph and G_sel for every query.
void BM_GenerateWorkload(benchmark::State& state) {
  GraphConfiguration config = MakeLsnConfig(1000, 7);
  QueryGenerator generator(&config.schema);
  const WorkloadConfiguration w = MixedWorkloadConfig(state.range(0));
  for (auto _ : state) {
    Workload workload = generator.Generate(w).ValueOrDie();
    benchmark::DoNotOptimize(workload.queries.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateWorkload)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_WorkloadToXml(benchmark::State& state) {
  GraphConfiguration config = MakeBibConfig(1000, 7);
  Workload workload = MixedWorkload(config.schema, state.range(0));
  int64_t bytes = 0;
  for (auto _ : state) {
    bytes += static_cast<int64_t>(workload.ToXml(config.schema).size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_WorkloadToXml)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_Translate(benchmark::State& state, QueryLanguage lang) {
  GraphConfiguration config = MakeBibConfig(1000, 7);
  Workload workload = MixedWorkload(config.schema, 1000);
  TranslateOptions options;
  options.count_distinct = true;
  int64_t bytes = 0;
  for (auto _ : state) {
    for (const GeneratedQuery& gq : workload.queries) {
      Result<std::string> text =
          TranslateQuery(gq.query, config.schema, lang, options);
      bytes += text.ok() ? static_cast<int64_t>(text.ValueOrDie().size()) : 0;
    }
  }
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.queries.size()));
}
BENCHMARK_CAPTURE(BM_Translate, sparql, QueryLanguage::kSparql)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Translate, cypher, QueryLanguage::kOpenCypher)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Translate, sql, QueryLanguage::kSql)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Translate, datalog, QueryLanguage::kDatalog)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
