// Translation of UCRPQ workloads into the four concrete syntaxes of
// Fig. 1: SPARQL 1.1 property paths, openCypher, PostgreSQL SQL:1999
// (recursive views / WITH RECURSIVE), and Datalog.
//
// Dialect fidelity notes (paper §7.1):
//  * openCypher cannot express inverse or concatenation under a Kleene
//    star; the translator keeps only the non-inverse first symbols of
//    starred disjuncts, exactly as the paper describes. openCypher also
//    uses isomorphic pattern-matching semantics, so its answers can
//    legitimately differ.
//  * The SQL translation uses the standard linear-recursion encoding of
//    transitive closure.
//
// Every translator builds its text by appending to a string and formats
// numbers itself, so the output does not depend on the global locale or
// on any stream's locale or format flags.

#ifndef GMARK_TRANSLATE_TRANSLATOR_H_
#define GMARK_TRANSLATE_TRANSLATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "query/query.h"
#include "util/result.h"

namespace gmark {

/// \brief Output syntaxes (Fig. 1).
enum class QueryLanguage { kSparql, kOpenCypher, kSql, kDatalog };

const char* QueryLanguageName(QueryLanguage lang);

/// \brief All four languages.
std::vector<QueryLanguage> AllQueryLanguages();

/// \brief Rendering options.
struct TranslateOptions {
  /// Wrap the projection in count(distinct ...) — the measurement
  /// aggregate used throughout the paper's §7 experiments.
  bool count_distinct = false;
};

/// \brief Interface implemented once per output language.
class QueryTranslator {
 public:
  virtual ~QueryTranslator() = default;
  virtual QueryLanguage language() const = 0;
  /// \brief Render one query; fails with Unsupported when the dialect
  /// cannot express it at all.
  virtual Result<std::string> Translate(const Query& query,
                                        const GraphSchema& schema,
                                        const TranslateOptions& options) const
      = 0;
};

/// \brief Factory for the built-in translators.
std::unique_ptr<QueryTranslator> MakeTranslator(QueryLanguage lang);

/// \brief One-shot convenience wrapper.
Result<std::string> TranslateQuery(const Query& query,
                                   const GraphSchema& schema,
                                   QueryLanguage lang,
                                   const TranslateOptions& options = {});

}  // namespace gmark

#endif  // GMARK_TRANSLATE_TRANSLATOR_H_
