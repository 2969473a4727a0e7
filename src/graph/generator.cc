#include "graph/generator.h"

#include <cstdint>

#include "obs/metrics.h"

namespace gmark {

void GenerateStats::Record(MetricRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->Add(metrics->Counter("gen.total_edges"), total_edges);
  metrics->GaugeMax(metrics->Gauge("gen.peak_resident_edge_bytes"),
                    peak_resident_edge_bytes);
  metrics->Add(metrics->Counter("gen.layout_nanos"),
               static_cast<uint64_t>(layout_seconds * 1e9));
  metrics->Add(metrics->Counter("gen.generate_nanos"),
               static_cast<uint64_t>(generate_seconds * 1e9));
  metrics->Add(metrics->Counter("gen.index_nanos"),
               static_cast<uint64_t>(index_seconds * 1e9));
  metrics->Add(metrics->Counter("gen.index_forward_groups"),
               index_forward_groups);
  metrics->Add(metrics->Counter("gen.index_transpose_groups"),
               index_transpose_groups);
  metrics->GaugeMax(metrics->Gauge("gen.index_bytes"), index_bytes);
}

}  // namespace gmark
