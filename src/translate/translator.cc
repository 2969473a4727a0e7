#include "translate/translator.h"

#include "translate/translator_impl.h"
#include "util/string_util.h"

namespace gmark {

const char* QueryLanguageName(QueryLanguage lang) {
  switch (lang) {
    case QueryLanguage::kSparql: return "SPARQL";
    case QueryLanguage::kOpenCypher: return "openCypher";
    case QueryLanguage::kSql: return "SQL";
    case QueryLanguage::kDatalog: return "Datalog";
  }
  return "?";
}

std::vector<QueryLanguage> AllQueryLanguages() {
  return {QueryLanguage::kSparql, QueryLanguage::kOpenCypher,
          QueryLanguage::kSql, QueryLanguage::kDatalog};
}

std::string TranslateVarName(const QueryRule& rule, size_t rule_index,
                             VarId v) {
  for (size_t i = 0; i < rule.head.size(); ++i) {
    if (rule.head[i] == v) return StrCat('h', i);
  }
  return StrCat('r', rule_index, 'x', v);
}

std::unique_ptr<QueryTranslator> MakeTranslator(QueryLanguage lang) {
  switch (lang) {
    case QueryLanguage::kSparql:
      return std::make_unique<SparqlTranslator>();
    case QueryLanguage::kOpenCypher:
      return std::make_unique<CypherTranslator>();
    case QueryLanguage::kSql:
      return std::make_unique<SqlTranslator>();
    case QueryLanguage::kDatalog:
      return std::make_unique<DatalogTranslator>();
  }
  return nullptr;
}

Result<std::string> TranslateQuery(const Query& query,
                                   const GraphSchema& schema,
                                   QueryLanguage lang,
                                   const TranslateOptions& options) {
  auto translator = MakeTranslator(lang);
  if (translator == nullptr) {
    return Status::InvalidArgument("unknown query language");
  }
  return translator->Translate(query, schema, options);
}

}  // namespace gmark
