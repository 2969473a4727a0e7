#include "graph/generator.h"

#include <cstdint>

#include "obs/metrics.h"

namespace gmark {

void GenerateStats::Record(MetricRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->Add("gen.total_edges", total_edges);
  metrics->GaugeMax("gen.peak_resident_edge_bytes", peak_resident_edge_bytes);
  metrics->Add("gen.layout_nanos", static_cast<uint64_t>(layout_seconds * 1e9));
  metrics->Add("gen.generate_nanos",
               static_cast<uint64_t>(generate_seconds * 1e9));
  metrics->Add("gen.index_nanos", static_cast<uint64_t>(index_seconds * 1e9));
  metrics->Add("gen.index_forward_groups", index_forward_groups);
  metrics->Add("gen.index_transpose_groups", index_transpose_groups);
  metrics->GaugeMax("gen.index_bytes", index_bytes);
}

}  // namespace gmark
