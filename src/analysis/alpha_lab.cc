#include "analysis/alpha_lab.h"

#include <cmath>

#include "parallel/parallel_generator.h"

namespace gmark {

Result<AlphaLab> AlphaLab::Create(const GraphConfiguration& base,
                                  const std::vector<int64_t>& sizes) {
  AlphaLab lab;
  for (size_t i = 0; i < sizes.size(); ++i) {
    GraphConfiguration config = base;
    config.num_nodes = sizes[i];
    config.seed = base.seed + i * 0x9E3779B9ULL;
    GMARK_ASSIGN_OR_RETURN(Graph graph, ParallelGenerateGraph(config));
    lab.sizes_.push_back(graph.num_nodes());
    lab.graphs_.push_back(std::move(graph));
  }
  return lab;
}

Result<std::vector<uint64_t>> AlphaLab::Counts(
    const Query& query, const ResourceBudget& budget) const {
  std::vector<uint64_t> counts;
  counts.reserve(graphs_.size());
  for (const Graph& graph : graphs_) {
    ReferenceEvaluator evaluator(&graph);
    GMARK_ASSIGN_OR_RETURN(uint64_t count,
                           evaluator.CountDistinct(query, budget));
    counts.push_back(count);
  }
  return counts;
}

Result<AlphaEstimate> AlphaLab::Measure(const Query& query,
                                        const ResourceBudget& budget) const {
  AlphaEstimate est;
  est.sizes = sizes_;
  GMARK_ASSIGN_OR_RETURN(est.counts, Counts(query, budget));
  GMARK_ASSIGN_OR_RETURN(LinearFit fit, FitPowerLaw(est.sizes, est.counts));
  est.alpha = fit.slope;
  est.beta = std::exp(fit.intercept);
  est.r_squared = fit.r_squared;
  return est;
}

}  // namespace gmark
