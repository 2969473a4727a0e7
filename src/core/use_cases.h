// The four use cases of the paper's evaluation (§6.1):
//
//   Bib — the bibliographical motivating example, exactly Fig. 2.
//   LSN — gMark encoding of the LDBC Social Network Benchmark schema.
//   SP  — gMark encoding of SP2Bench's DBLP schema.
//   WD  — gMark encoding of WatDiv's default (dense) schema.
//
// LSN/SP/WD keep the key characteristics of the original benchmarks
// (node types, edge labels, entity associations, power-law hubs) while
// dropping features gMark cannot express (subtyping, hardcoded
// correlations), as the paper itself does.

#ifndef GMARK_CORE_USE_CASES_H_
#define GMARK_CORE_USE_CASES_H_

#include <string>
#include <vector>

#include "core/graph_config.h"

namespace gmark {

/// \brief Identifier for a built-in use case.
enum class UseCase { kBib, kLsn, kSp, kWd };

/// \brief "Bib", "LSN", "SP", "WD".
const char* UseCaseName(UseCase use_case);

/// \brief All four use cases, in the order the paper lists them.
std::vector<UseCase> AllUseCases();

/// \brief Build the configuration for a use case with `num_nodes` nodes.
///
/// The returned configuration is valid by construction; `seed` makes the
/// downstream generation deterministic.
GraphConfiguration MakeUseCase(UseCase use_case, int64_t num_nodes,
                               uint64_t seed = 42);

/// \brief The bibliographical schema of Fig. 2 (researcher/paper/
/// journal/conference/city; authors/publishedIn/extendedTo/heldIn).
GraphConfiguration MakeBibConfig(int64_t num_nodes, uint64_t seed = 42);

/// \brief LDBC Social Network Benchmark encoding (persons with a
/// power-law `knows`, forums, posts, comments, fixed tag/place sets).
GraphConfiguration MakeLsnConfig(int64_t num_nodes, uint64_t seed = 42);

/// \brief SP2Bench DBLP encoding (articles, inproceedings, journals,
/// proceedings, persons; power-law `cite` and prolific authors).
GraphConfiguration MakeSpConfig(int64_t num_nodes, uint64_t seed = 42);

/// \brief WatDiv default-schema encoding (users/products/reviews with
/// deliberately dense predicates, an order of magnitude more edges per
/// node than Bib).
GraphConfiguration MakeWdConfig(int64_t num_nodes, uint64_t seed = 42);

}  // namespace gmark

#endif  // GMARK_CORE_USE_CASES_H_
