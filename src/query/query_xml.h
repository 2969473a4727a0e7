// XML serialization of UCRPQ workloads (Fig. 1: "Query workload file,
// UCRPQs as XML") and parsing of workload configurations.

#ifndef GMARK_QUERY_QUERY_XML_H_
#define GMARK_QUERY_QUERY_XML_H_

#include <string>
#include <vector>

#include "core/schema.h"
#include "query/query.h"
#include "query/workload_config.h"
#include "util/result.h"
#include "util/xml.h"

namespace gmark {

/// \brief Serialize queries as a <workload> XML document.
std::string QueriesToXml(const std::vector<Query>& queries,
                         const GraphSchema& schema);

/// \brief Append one query as the <query> element of a <workload>
/// document (indented one level). QueriesToXml and Workload::ToXml are
/// both this, once per query, between the root element's tags.
void AppendQueryXml(std::string* out, const Query& query,
                    const GraphSchema& schema);

/// \brief Parse a <workload> XML document back into queries.
Result<std::vector<Query>> ParseQueriesXml(const std::string& xml,
                                           const GraphSchema& schema);

/// \brief Parse a workload configuration element, e.g.
///
///   <workload queries="30" seed="7">
///     <arity min="2" max="2"/>
///     <shapes><shape>chain</shape></shapes>
///     <selectivities><selectivity>linear</selectivity></selectivities>
///     <recursion probability="0.5"/>
///     <size rules-min="1" rules-max="1" conjuncts-min="1"
///           conjuncts-max="3" disjuncts-min="1" disjuncts-max="2"
///           length-min="1" length-max="4"/>
///   </workload>
Result<WorkloadConfiguration> ParseWorkloadConfigXml(const std::string& xml);

/// \brief Serialize a workload configuration to the XML syntax above.
std::string WorkloadConfigToXml(const WorkloadConfiguration& config);

}  // namespace gmark

#endif  // GMARK_QUERY_QUERY_XML_H_
