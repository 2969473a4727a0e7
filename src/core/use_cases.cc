#include "core/use_cases.h"

#include <cassert>

namespace gmark {

namespace {

/// Schema-building helpers: the built-in schemas are code we control, so
/// registration failures are programming errors, not runtime conditions.
TypeId MustAddType(GraphSchema* s, const std::string& name,
                   OccurrenceConstraint occ) {
  auto r = s->AddType(name, occ);
  assert(r.ok());
  return r.ValueOrDie();
}

PredicateId MustAddPredicate(GraphSchema* s, const std::string& name,
                             std::optional<OccurrenceConstraint> occ =
                                 std::nullopt) {
  auto r = s->AddPredicate(name, occ);
  assert(r.ok());
  return r.ValueOrDie();
}

void MustAddEdge(GraphSchema* s, const std::string& src,
                 const std::string& pred, const std::string& trg,
                 DistributionSpec in, DistributionSpec out) {
  Status st = s->AddEdgeConstraintByName(src, pred, trg, in, out);
  assert(st.ok());
  (void)st;
}

DistributionSpec U(int64_t lo, int64_t hi) {
  return DistributionSpec::Uniform(lo, hi);
}
DistributionSpec G(double mu, double sigma) {
  return DistributionSpec::Gaussian(mu, sigma);
}
DistributionSpec Z(double s = 2.5) { return DistributionSpec::Zipfian(s); }
DistributionSpec NS() { return DistributionSpec::NonSpecified(); }

}  // namespace

const char* UseCaseName(UseCase use_case) {
  switch (use_case) {
    case UseCase::kBib: return "Bib";
    case UseCase::kLsn: return "LSN";
    case UseCase::kSp: return "SP";
    case UseCase::kWd: return "WD";
  }
  return "?";
}

std::vector<UseCase> AllUseCases() {
  return {UseCase::kBib, UseCase::kLsn, UseCase::kSp, UseCase::kWd};
}

GraphConfiguration MakeUseCase(UseCase use_case, int64_t num_nodes,
                               uint64_t seed) {
  switch (use_case) {
    case UseCase::kBib: return MakeBibConfig(num_nodes, seed);
    case UseCase::kLsn: return MakeLsnConfig(num_nodes, seed);
    case UseCase::kSp: return MakeSpConfig(num_nodes, seed);
    case UseCase::kWd: return MakeWdConfig(num_nodes, seed);
  }
  return MakeBibConfig(num_nodes, seed);
}

GraphConfiguration MakeBibConfig(int64_t num_nodes, uint64_t seed) {
  GraphConfiguration config;
  config.name = "Bib";
  config.num_nodes = num_nodes;
  config.seed = seed;
  GraphSchema& s = config.schema;

  // Fig. 2(a): node types.
  MustAddType(&s, "researcher", OccurrenceConstraint::Proportion(0.50));
  MustAddType(&s, "paper", OccurrenceConstraint::Proportion(0.30));
  MustAddType(&s, "journal", OccurrenceConstraint::Proportion(0.10));
  MustAddType(&s, "conference", OccurrenceConstraint::Proportion(0.10));
  MustAddType(&s, "city", OccurrenceConstraint::Fixed(100));

  // Fig. 2(b): edge predicates.
  MustAddPredicate(&s, "authors", OccurrenceConstraint::Proportion(0.50));
  MustAddPredicate(&s, "publishedIn",
                   OccurrenceConstraint::Proportion(0.30));
  MustAddPredicate(&s, "heldIn", OccurrenceConstraint::Proportion(0.10));
  MustAddPredicate(&s, "extendedTo",
                   OccurrenceConstraint::Proportion(0.10));

  // Fig. 2(c): eta. Gaussian means chosen so both sides of each
  // constraint imply compatible edge counts (see ConsistencyReport).
  MustAddEdge(&s, "researcher", "authors", "paper", G(3.0, 1.0), Z());
  MustAddEdge(&s, "paper", "publishedIn", "conference", G(3.0, 1.0),
              U(1, 1));
  MustAddEdge(&s, "paper", "extendedTo", "journal", G(1.5, 0.5), U(0, 1));
  // City is a fixed-size type, so the Zipfian in-degree uses exponent 1:
  // its mean grows with the support and keeps "every conference is held
  // in exactly one city" consistent at every graph size.
  MustAddEdge(&s, "conference", "heldIn", "city", Z(1.0), U(1, 1));
  return config;
}

GraphConfiguration MakeLsnConfig(int64_t num_nodes, uint64_t seed) {
  GraphConfiguration config;
  config.name = "LSN";
  config.num_nodes = num_nodes;
  config.seed = seed;
  GraphSchema& s = config.schema;

  MustAddType(&s, "person", OccurrenceConstraint::Proportion(0.25));
  MustAddType(&s, "forum", OccurrenceConstraint::Proportion(0.10));
  MustAddType(&s, "post", OccurrenceConstraint::Proportion(0.35));
  MustAddType(&s, "comment", OccurrenceConstraint::Proportion(0.30));
  // Fixed pools sized so that constant-class saturation is observable
  // within laptop-scale sweeps (1K-32K nodes).
  MustAddType(&s, "tag", OccurrenceConstraint::Fixed(150));
  MustAddType(&s, "city", OccurrenceConstraint::Fixed(80));
  MustAddType(&s, "company", OccurrenceConstraint::Fixed(40));
  MustAddType(&s, "university", OccurrenceConstraint::Fixed(20));

  for (const char* p :
       {"knows", "hasInterest", "likes", "hasCreator", "replyOf",
        "containerOf", "hasMember", "hasModerator", "hasTag", "isLocatedIn",
        "studyAt", "workAt"}) {
    MustAddPredicate(&s, p);
  }

  // The social core: power-law friendship (quadratic closure, §5.2.1).
  MustAddEdge(&s, "person", "knows", "person", Z(), Z());
  MustAddEdge(&s, "person", "hasInterest", "tag", NS(), U(1, 5));
  MustAddEdge(&s, "person", "likes", "post", G(1.4, 0.8), Z());
  MustAddEdge(&s, "post", "hasCreator", "person", Z(), U(1, 1));
  MustAddEdge(&s, "comment", "hasCreator", "person", Z(), U(1, 1));
  MustAddEdge(&s, "comment", "replyOf", "post", G(1.0, 0.6), U(1, 1));
  MustAddEdge(&s, "forum", "containerOf", "post", U(1, 1), G(3.5, 1.0));
  MustAddEdge(&s, "forum", "hasMember", "person", G(1.6, 0.8), G(4.0, 2.0));
  MustAddEdge(&s, "forum", "hasModerator", "person", NS(), U(1, 1));
  MustAddEdge(&s, "post", "hasTag", "tag", NS(), U(0, 3));
  // Exponent 1: cities are fixed-size, their in-degree mean must grow.
  MustAddEdge(&s, "person", "isLocatedIn", "city", Z(1.0), U(1, 1));
  MustAddEdge(&s, "person", "studyAt", "university", NS(), U(0, 1));
  MustAddEdge(&s, "person", "workAt", "company", NS(), U(0, 2));
  return config;
}

GraphConfiguration MakeSpConfig(int64_t num_nodes, uint64_t seed) {
  GraphConfiguration config;
  config.name = "SP";
  config.num_nodes = num_nodes;
  config.seed = seed;
  GraphSchema& s = config.schema;

  MustAddType(&s, "article", OccurrenceConstraint::Proportion(0.30));
  MustAddType(&s, "inproceedings", OccurrenceConstraint::Proportion(0.25));
  MustAddType(&s, "journal", OccurrenceConstraint::Proportion(0.08));
  MustAddType(&s, "proceedings", OccurrenceConstraint::Proportion(0.12));
  MustAddType(&s, "person", OccurrenceConstraint::Proportion(0.25));
  MustAddType(&s, "publisher", OccurrenceConstraint::Fixed(80));

  for (const char* p : {"creator", "cite", "journal", "partOf", "editor",
                        "publishedBy"}) {
    MustAddPredicate(&s, p);
  }

  // DBLP-style authorship: prolific authors are Zipfian hubs. The
  // Gaussian mean is matched to the Zipfian supply of the person side.
  MustAddEdge(&s, "article", "creator", "person", Z(), G(1.9, 0.7));
  MustAddEdge(&s, "inproceedings", "creator", "person", Z(), G(1.9, 0.7));
  // Power-law citation network.
  MustAddEdge(&s, "article", "cite", "article", Z(), Z());
  MustAddEdge(&s, "article", "journal", "journal", G(3.75, 1.0), U(1, 1));
  MustAddEdge(&s, "inproceedings", "partOf", "proceedings", G(2.1, 0.8),
              U(1, 1));
  MustAddEdge(&s, "proceedings", "editor", "person", NS(), U(1, 3));
  MustAddEdge(&s, "journal", "publishedBy", "publisher", NS(), U(1, 1));
  MustAddEdge(&s, "proceedings", "publishedBy", "publisher", NS(), U(1, 1));
  return config;
}

GraphConfiguration MakeWdConfig(int64_t num_nodes, uint64_t seed) {
  GraphConfiguration config;
  config.name = "WD";
  config.num_nodes = num_nodes;
  config.seed = seed;
  GraphSchema& s = config.schema;

  MustAddType(&s, "user", OccurrenceConstraint::Proportion(0.40));
  MustAddType(&s, "product", OccurrenceConstraint::Proportion(0.25));
  MustAddType(&s, "review", OccurrenceConstraint::Proportion(0.35));
  MustAddType(&s, "retailer", OccurrenceConstraint::Fixed(100));
  MustAddType(&s, "website", OccurrenceConstraint::Fixed(50));
  MustAddType(&s, "genre", OccurrenceConstraint::Fixed(60));
  MustAddType(&s, "city", OccurrenceConstraint::Fixed(240));
  MustAddType(&s, "country", OccurrenceConstraint::Fixed(25));
  MustAddType(&s, "language", OccurrenceConstraint::Fixed(25));

  for (const char* p :
       {"follows", "friendOf", "likes", "makesPurchase", "hasReview",
        "reviewer", "hasGenre", "sells", "homepage", "locatedIn",
        "countryOf", "speaks", "languageOf"}) {
    MustAddPredicate(&s, p);
  }

  // WatDiv is deliberately dense: an order of magnitude more edges per
  // node than Bib (§6.2 notes two orders for the original; we scale the
  // density down so laptop-scale sweeps finish).
  MustAddEdge(&s, "user", "follows", "user", Z(2.0), Z(2.0));
  MustAddEdge(&s, "user", "friendOf", "user", G(10.0, 3.0), G(10.0, 3.0));
  MustAddEdge(&s, "user", "likes", "product", G(8.8, 3.0), U(1, 10));
  MustAddEdge(&s, "user", "makesPurchase", "product", NS(), U(1, 8));
  MustAddEdge(&s, "product", "hasReview", "review", U(1, 1), G(1.4, 0.6));
  MustAddEdge(&s, "review", "reviewer", "user", Z(), U(1, 1));
  MustAddEdge(&s, "product", "hasGenre", "genre", NS(), U(1, 3));
  MustAddEdge(&s, "retailer", "sells", "product", U(1, 2), NS());
  MustAddEdge(&s, "user", "homepage", "website", NS(), U(0, 1));
  // Exponent 1: cities are fixed-size, their in-degree mean must grow.
  MustAddEdge(&s, "user", "locatedIn", "city", Z(1.0), U(1, 1));
  MustAddEdge(&s, "city", "countryOf", "country", NS(), U(1, 1));
  MustAddEdge(&s, "user", "speaks", "language", NS(), U(1, 2));
  MustAddEdge(&s, "website", "languageOf", "language", NS(), U(1, 1));
  return config;
}

}  // namespace gmark
