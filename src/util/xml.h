// Minimal dependency-free XML parser, sufficient for gMark's
// configuration and query-workload files (Fig. 1 of the paper). Supports
// elements, attributes, character data, comments, and XML declarations;
// it does not support namespaces, DTDs, or processing instructions.
//
// The DOM is for reading only. The writers (query/query_xml.cc,
// core/config_xml.cc, Workload::ToXml) append their bytes directly, by
// the rules a DOM printer would follow: attributes in key order, two
// spaces of indent per depth, text trimmed, and `<tag/>` for an element
// with neither text nor children.

#ifndef GMARK_UTIL_XML_H_
#define GMARK_UTIL_XML_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace gmark {

/// \brief One parsed XML element: tag name, attributes, text, and child
/// elements.
class XmlNode {
 public:
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// \brief Concatenated character data directly inside this element.
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  /// \brief Attribute value, or "" when absent.
  std::string attr(const std::string& key) const;
  /// \brief True if the attribute is present.
  bool has_attr(const std::string& key) const;
  void set_attr(const std::string& key, std::string value);

  const std::vector<XmlNode>& children() const { return children_; }
  std::vector<XmlNode>& children() { return children_; }

  /// \brief First child with the given tag, or nullptr.
  const XmlNode* FindChild(std::string_view name) const;

  /// \brief All children with the given tag.
  std::vector<const XmlNode*> FindChildren(std::string_view name) const;

 private:
  std::string name_;
  std::string text_;
  std::map<std::string, std::string> attrs_;
  std::vector<XmlNode> children_;
};

/// \brief Parse a document; returns the root element.
Result<XmlNode> ParseXml(std::string_view input);

/// \brief Append `s` to `out` with &, <, >, ", ' escaped, for use in
/// XML content and attribute values.
void AppendXmlEscaped(std::string* out, std::string_view s);

}  // namespace gmark

#endif  // GMARK_UTIL_XML_H_
