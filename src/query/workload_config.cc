#include "query/workload_config.h"

#include "util/string_util.h"

namespace gmark {

std::string IntRange::ToString() const {
  return StrCat('[', min, ',', max, ']');
}

Status IntRange::Validate(const std::string& what, int min_allowed) const {
  if (min < min_allowed || max < min) {
    return Status::InvalidArgument("invalid " + what + " range " +
                                   ToString());
  }
  return Status::OK();
}

const char* QueryShapeName(QueryShape shape) {
  switch (shape) {
    case QueryShape::kChain: return "chain";
    case QueryShape::kStar: return "star";
    case QueryShape::kCycle: return "cycle";
    case QueryShape::kStarChain: return "starchain";
  }
  return "?";
}

Result<QueryShape> ParseQueryShape(const std::string& name) {
  if (name == "chain") return QueryShape::kChain;
  if (name == "star") return QueryShape::kStar;
  if (name == "cycle") return QueryShape::kCycle;
  if (name == "starchain" || name == "star-chain") {
    return QueryShape::kStarChain;
  }
  return Status::InvalidArgument("unknown query shape: " + name);
}

const char* QuerySelectivityName(QuerySelectivity sel) {
  switch (sel) {
    case QuerySelectivity::kConstant: return "constant";
    case QuerySelectivity::kLinear: return "linear";
    case QuerySelectivity::kQuadratic: return "quadratic";
  }
  return "?";
}

Result<QuerySelectivity> ParseQuerySelectivity(const std::string& name) {
  if (name == "constant") return QuerySelectivity::kConstant;
  if (name == "linear") return QuerySelectivity::kLinear;
  if (name == "quadratic") return QuerySelectivity::kQuadratic;
  return Status::InvalidArgument("unknown selectivity class: " + name);
}

Status QuerySize::Validate() const {
  GMARK_RETURN_NOT_OK(rules.Validate("rules", 1));
  GMARK_RETURN_NOT_OK(conjuncts.Validate("conjuncts", 1));
  GMARK_RETURN_NOT_OK(disjuncts.Validate("disjuncts", 1));
  GMARK_RETURN_NOT_OK(path_length.Validate("path length", 1));
  return Status::OK();
}

Status WorkloadConfiguration::Validate() const {
  if (num_queries == 0) {
    return Status::InvalidArgument("workload must contain queries");
  }
  GMARK_RETURN_NOT_OK(arity.Validate("arity", 0));
  if (shapes.empty()) {
    return Status::InvalidArgument("no query shapes allowed");
  }
  if (selectivities.empty()) {
    return Status::InvalidArgument("no selectivity classes allowed");
  }
  if (recursion_probability < 0.0 || recursion_probability > 1.0) {
    return Status::InvalidArgument("recursion probability out of [0,1]");
  }
  return size.Validate();
}

}  // namespace gmark
