#include "util/xml.h"

#include <cctype>

#include "util/string_util.h"

namespace gmark {

std::string XmlNode::attr(const std::string& key) const {
  auto it = attrs_.find(key);
  return it == attrs_.end() ? std::string() : it->second;
}

bool XmlNode::has_attr(const std::string& key) const {
  return attrs_.find(key) != attrs_.end();
}

void XmlNode::set_attr(const std::string& key, std::string value) {
  attrs_[key] = std::move(value);
}

const XmlNode* XmlNode::FindChild(std::string_view name) const {
  for (const auto& c : children_) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::FindChildren(
    std::string_view name) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children_) {
    if (c.name() == name) out.push_back(&c);
  }
  return out;
}

void AppendXmlEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '&': out->append("&amp;"); break;
      case '<': out->append("&lt;"); break;
      case '>': out->append("&gt;"); break;
      case '"': out->append("&quot;"); break;
      case '\'': out->append("&apos;"); break;
      default: out->push_back(c);
    }
  }
}

namespace {

/// Recursive-descent XML parser over a string_view cursor.
class XmlParser {
 public:
  explicit XmlParser(std::string_view input) : in_(input), pos_(0) {}

  Result<XmlNode> Parse() {
    SkipProlog();
    XmlNode root;
    Status st = ParseElement(&root);
    if (!st.ok()) return st;
    SkipMisc();
    if (pos_ != in_.size()) {
      return Status::InvalidArgument(
          "trailing content after root element at offset " +
          std::to_string(pos_));
    }
    return root;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  bool SkipComment() {
    if (in_.substr(pos_).substr(0, 4) == "<!--") {
      size_t end = in_.find("-->", pos_ + 4);
      pos_ = (end == std::string_view::npos) ? in_.size() : end + 3;
      return true;
    }
    return false;
  }

  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (!SkipComment()) break;
    }
  }

  void SkipProlog() {
    SkipWhitespace();
    if (in_.substr(pos_).substr(0, 5) == "<?xml") {
      size_t end = in_.find("?>", pos_);
      pos_ = (end == std::string_view::npos) ? in_.size() : end + 2;
    }
    SkipMisc();
  }

  static std::string Unescape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size();) {
      if (s[i] == '&') {
        auto tail = s.substr(i);
        if (StartsWith(tail, "&amp;")) { out += '&'; i += 5; continue; }
        if (StartsWith(tail, "&lt;")) { out += '<'; i += 4; continue; }
        if (StartsWith(tail, "&gt;")) { out += '>'; i += 4; continue; }
        if (StartsWith(tail, "&quot;")) { out += '"'; i += 6; continue; }
        if (StartsWith(tail, "&apos;")) { out += '\''; i += 6; continue; }
      }
      out += s[i++];
    }
    return out;
  }

  Status ParseName(std::string* out) {
    size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '_' || in_[pos_] == '-' || in_[pos_] == '.' ||
            in_[pos_] == ':')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected name at offset " +
                                     std::to_string(pos_));
    }
    *out = std::string(in_.substr(start, pos_ - start));
    return Status::OK();
  }

  Status ParseAttributes(XmlNode* node) {
    while (true) {
      SkipWhitespace();
      if (pos_ >= in_.size()) {
        return Status::InvalidArgument("unterminated start tag");
      }
      if (in_[pos_] == '>' || in_[pos_] == '/' || in_[pos_] == '?') {
        return Status::OK();
      }
      std::string key;
      GMARK_RETURN_NOT_OK(ParseName(&key));
      SkipWhitespace();
      if (pos_ >= in_.size() || in_[pos_] != '=') {
        return Status::InvalidArgument("expected '=' after attribute " + key);
      }
      ++pos_;
      SkipWhitespace();
      if (pos_ >= in_.size() || (in_[pos_] != '"' && in_[pos_] != '\'')) {
        return Status::InvalidArgument("expected quoted value for " + key);
      }
      char quote = in_[pos_++];
      size_t end = in_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return Status::InvalidArgument("unterminated attribute value");
      }
      node->set_attr(key, Unescape(in_.substr(pos_, end - pos_)));
      pos_ = end + 1;
    }
  }

  Status ParseElement(XmlNode* node) {
    SkipMisc();
    if (pos_ >= in_.size() || in_[pos_] != '<') {
      return Status::InvalidArgument("expected '<' at offset " +
                                     std::to_string(pos_));
    }
    ++pos_;
    std::string name;
    GMARK_RETURN_NOT_OK(ParseName(&name));
    node->set_name(name);
    GMARK_RETURN_NOT_OK(ParseAttributes(node));
    if (pos_ < in_.size() && in_[pos_] == '/') {
      ++pos_;
      if (pos_ >= in_.size() || in_[pos_] != '>') {
        return Status::InvalidArgument("malformed self-closing tag " + name);
      }
      ++pos_;
      return Status::OK();
    }
    if (pos_ >= in_.size() || in_[pos_] != '>') {
      return Status::InvalidArgument("malformed start tag " + name);
    }
    ++pos_;
    // Content: interleaved text, comments, and child elements.
    std::string text;
    while (true) {
      if (pos_ >= in_.size()) {
        return Status::InvalidArgument("unterminated element " + name);
      }
      if (in_[pos_] == '<') {
        if (SkipComment()) continue;
        if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '/') {
          pos_ += 2;
          std::string close;
          GMARK_RETURN_NOT_OK(ParseName(&close));
          if (close != name) {
            return Status::InvalidArgument("mismatched close tag: <" + name +
                                           "> vs </" + close + ">");
          }
          SkipWhitespace();
          if (pos_ >= in_.size() || in_[pos_] != '>') {
            return Status::InvalidArgument("malformed close tag " + close);
          }
          ++pos_;
          node->set_text(Unescape(text));
          return Status::OK();
        }
        XmlNode child;
        GMARK_RETURN_NOT_OK(ParseElement(&child));
        node->children().push_back(std::move(child));
      } else {
        text += in_[pos_++];
      }
    }
  }

  std::string_view in_;
  size_t pos_;
};

}  // namespace

Result<XmlNode> ParseXml(std::string_view input) {
  return XmlParser(input).Parse();
}

}  // namespace gmark
