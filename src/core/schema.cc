#include "core/schema.h"

#include "util/string_util.h"

namespace gmark {

std::string OccurrenceConstraint::ToString() const {
  if (is_fixed) return StrCat("fixed(", fixed_count, ')');
  return FormatDouble(proportion * 100.0) + "%";
}

Result<TypeId> GraphSchema::AddType(const std::string& name,
                                    OccurrenceConstraint occurrence) {
  if (name.empty()) return Status::InvalidArgument("empty type name");
  if (type_index_.count(name) > 0) {
    return Status::AlreadyExists("type already declared: " + name);
  }
  if (!occurrence.is_fixed &&
      (occurrence.proportion < 0.0 || occurrence.proportion > 1.0)) {
    return Status::InvalidArgument("type proportion out of [0,1]: " + name);
  }
  if (occurrence.is_fixed && occurrence.fixed_count < 0) {
    return Status::InvalidArgument("negative fixed count for type " + name);
  }
  TypeId id = static_cast<TypeId>(types_.size());
  types_.push_back(NodeTypeDef{name, occurrence});
  type_index_[name] = id;
  return id;
}

Result<PredicateId> GraphSchema::AddPredicate(
    const std::string& name, std::optional<OccurrenceConstraint> occurrence) {
  if (name.empty()) return Status::InvalidArgument("empty predicate name");
  if (predicate_index_.count(name) > 0) {
    return Status::AlreadyExists("predicate already declared: " + name);
  }
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicates_.push_back(PredicateDef{name, occurrence});
  predicate_index_[name] = id;
  return id;
}

Status GraphSchema::AddEdgeConstraint(TypeId source, TypeId target,
                                      PredicateId pred,
                                      DistributionSpec in_dist,
                                      DistributionSpec out_dist) {
  if (source >= types_.size() || target >= types_.size()) {
    return Status::OutOfRange("edge constraint references unknown type");
  }
  if (pred >= predicates_.size()) {
    return Status::OutOfRange("edge constraint references unknown predicate");
  }
  GMARK_RETURN_NOT_OK(in_dist.Validate());
  GMARK_RETURN_NOT_OK(out_dist.Validate());
  for (const auto& c : constraints_) {
    if (c.source_type == source && c.target_type == target &&
        c.predicate == pred) {
      return Status::AlreadyExists(
          "eta(" + TypeName(source) + "," + TypeName(target) + "," +
          PredicateName(pred) + ") already constrained");
    }
  }
  constraints_.push_back(
      EdgeConstraint{source, target, pred, in_dist, out_dist});
  return Status::OK();
}

Status GraphSchema::AddEdgeConstraintByName(const std::string& source,
                                            const std::string& predicate,
                                            const std::string& target,
                                            DistributionSpec in_dist,
                                            DistributionSpec out_dist) {
  GMARK_ASSIGN_OR_RETURN(TypeId s, TypeIdOf(source));
  GMARK_ASSIGN_OR_RETURN(TypeId t, TypeIdOf(target));
  GMARK_ASSIGN_OR_RETURN(PredicateId p, PredicateIdOf(predicate));
  return AddEdgeConstraint(s, t, p, in_dist, out_dist);
}

Result<TypeId> GraphSchema::TypeIdOf(const std::string& name) const {
  auto it = type_index_.find(name);
  if (it == type_index_.end()) {
    return Status::NotFound("unknown node type: " + name);
  }
  return it->second;
}

Result<PredicateId> GraphSchema::PredicateIdOf(const std::string& name) const {
  auto it = predicate_index_.find(name);
  if (it == predicate_index_.end()) {
    return Status::NotFound("unknown predicate: " + name);
  }
  return it->second;
}

Status GraphSchema::Validate() const {
  if (types_.empty()) return Status::InvalidArgument("schema has no types");
  double proportion_sum = 0.0;
  for (const auto& t : types_) {
    if (!t.occurrence.is_fixed) proportion_sum += t.occurrence.proportion;
  }
  if (proportion_sum > 1.0 + 1e-9) {
    return Status::InvalidArgument(
        "type proportions sum to more than 100%: " +
        std::to_string(proportion_sum * 100.0));
  }
  for (const auto& c : constraints_) {
    if (!c.in_dist.specified() && !c.out_dist.specified() &&
        !predicates_[c.predicate].occurrence.has_value()) {
      return Status::InvalidArgument(
          "eta constraint on '" + PredicateName(c.predicate) +
          "' has neither degree distributions nor a predicate occurrence "
          "constraint; the edge count is undetermined");
    }
  }
  return Status::OK();
}

}  // namespace gmark
