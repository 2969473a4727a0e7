// Minimal dependency-free XML DOM, sufficient for gMark's configuration
// files and query-workload output (Fig. 1 of the paper). Supports
// elements, attributes, character data, comments, and XML declarations;
// it does not support namespaces, DTDs, or processing instructions.

#ifndef GMARK_UTIL_XML_H_
#define GMARK_UTIL_XML_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace gmark {

/// \brief One XML element: tag name, attributes, text, and child elements.
class XmlNode {
 public:
  XmlNode() = default;
  explicit XmlNode(std::string name) : name_(std::move(name)) {}

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
  const std::map<std::string, std::string>& attrs() const { return attrs_; }

  const std::vector<XmlNode>& children() const { return children_; }
  std::vector<XmlNode>& children() { return children_; }

  /// \brief Append a child element and return a reference to it.
  XmlNode& AddChild(std::string name);

  /// \brief First child with the given tag, or nullptr.
  const XmlNode* FindChild(std::string_view name) const;

  /// \brief All children with the given tag.
  std::vector<const XmlNode*> FindChildren(std::string_view name) const;

  /// \brief Serialize this element (and subtree) as indented XML.
  std::string ToString(int indent = 0) const;

 private:
  void AppendTo(std::string* out, int indent) const;

  std::string name_;
  std::string text_;
  std::map<std::string, std::string> attrs_;
  std::vector<XmlNode> children_;
};

/// \brief Parse a document; returns the root element.
Result<XmlNode> ParseXml(std::string_view input);

/// \brief Escape &, <, >, ", ' for use in XML content/attributes.
std::string XmlEscape(std::string_view s);

}  // namespace gmark

#endif  // GMARK_UTIL_XML_H_
