#include "core/consistency.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace gmark {

std::string ConsistencyReport::ToString() const {
  std::string out;
  for (const auto& f : findings) {
    StrAppend(&out, f.consistent ? "[ok]   " : "[WARN] ", f.description, '\n');
  }
  return out;
}

Result<ConsistencyReport> CheckConsistency(const GraphConfiguration& config,
                                           double tolerance) {
  GMARK_ASSIGN_OR_RETURN(NodeLayout layout, NodeLayout::Create(config));
  const GraphSchema& schema = config.schema;
  ConsistencyReport report;
  for (size_t i = 0; i < schema.edge_constraints().size(); ++i) {
    const EdgeConstraint& c = schema.edge_constraints()[i];
    int64_t n_src = layout.CountOf(c.source_type);
    int64_t n_trg = layout.CountOf(c.target_type);
    ConsistencyFinding f;
    f.constraint_index = i;
    f.expected_from_out =
        c.out_dist.specified()
            ? static_cast<double>(n_src) * c.out_dist.Mean(n_trg)
            : 0.0;
    f.expected_from_in =
        c.in_dist.specified()
            ? static_cast<double>(n_trg) * c.in_dist.Mean(n_src)
            : 0.0;
    if (c.out_dist.specified() && c.in_dist.specified()) {
      double hi = std::max(f.expected_from_out, f.expected_from_in);
      double lo = std::min(f.expected_from_out, f.expected_from_in);
      f.relative_gap = hi > 0.0 ? (hi - lo) / hi : 0.0;
      // A surplus on a Zipfian side is benign: the min-rule of Fig. 5
      // then realizes the bounded side exactly, and only the *type* of a
      // Zipfian distribution matters, not its parameters (paper §4).
      const bool surplus_is_zipf =
          (f.expected_from_out >= f.expected_from_in &&
           c.out_dist.IsZipfian()) ||
          (f.expected_from_in >= f.expected_from_out &&
           c.in_dist.IsZipfian());
      f.consistent = f.relative_gap <= tolerance || surplus_is_zipf;
    } else {
      f.relative_gap = 0.0;
      f.consistent = true;
    }
    f.description = StrCat(
        "eta(", schema.TypeName(c.source_type), ',',
        schema.TypeName(c.target_type), ',',
        schema.PredicateName(c.predicate), ") = (", c.in_dist.ToString(),
        ", ", c.out_dist.ToString(), "): out-side edges ~",
        static_cast<int64_t>(f.expected_from_out), ", in-side edges ~",
        static_cast<int64_t>(f.expected_from_in), " (gap ",
        static_cast<int>(f.relative_gap * 100.0), "%)");
    report.all_consistent = report.all_consistent && f.consistent;
    report.findings.push_back(std::move(f));
  }
  return report;
}

}  // namespace gmark
