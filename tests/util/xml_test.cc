#include "util/xml.h"

#include <gtest/gtest.h>

#include <string>

namespace gmark {
namespace {

TEST(XmlTest, ParsesSimpleElement) {
  auto root = ParseXml("<a/>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->name(), "a");
  EXPECT_TRUE(root->children().empty());
}

TEST(XmlTest, ParsesAttributes) {
  auto root = ParseXml(R"(<a x="1" y='two'/>)");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->attr("x"), "1");
  EXPECT_EQ(root->attr("y"), "two");
  EXPECT_TRUE(root->has_attr("x"));
  EXPECT_FALSE(root->has_attr("z"));
  EXPECT_EQ(root->attr("z"), "");
}

TEST(XmlTest, ParsesNestedChildrenAndText) {
  auto root = ParseXml("<a><b>hello</b><c/><b>world</b></a>");
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(root->children().size(), 3u);
  EXPECT_EQ(root->children()[0].text(), "hello");
  auto bs = root->FindChildren("b");
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(bs[1]->text(), "world");
  EXPECT_NE(root->FindChild("c"), nullptr);
  EXPECT_EQ(root->FindChild("missing"), nullptr);
}

TEST(XmlTest, SkipsPrologAndComments) {
  auto root = ParseXml(
      "<?xml version=\"1.0\"?>\n<!-- header -->\n"
      "<a><!-- inner --><b/></a>\n<!-- trailer -->");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->name(), "a");
  EXPECT_EQ(root->children().size(), 1u);
}

TEST(XmlTest, UnescapesEntities) {
  auto root = ParseXml(R"(<a v="&lt;&amp;&gt;">x &quot;y&apos; z</a>)");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->attr("v"), "<&>");
  EXPECT_EQ(root->text(), "x \"y' z");
}

TEST(XmlTest, EscapeProducesValidRoundTrip) {
  std::string doc = "<n a=\"";
  AppendXmlEscaped(&doc, "x<y>&\"'");
  doc.append("\">");
  AppendXmlEscaped(&doc, "5 < 6 & 7 > 2");
  doc.append("</n>");
  EXPECT_EQ(doc,
            "<n a=\"x&lt;y&gt;&amp;&quot;&apos;\">"
            "5 &lt; 6 &amp; 7 &gt; 2</n>");
  auto parsed = ParseXml(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->attr("a"), "x<y>&\"'");
  EXPECT_EQ(parsed->text(), "5 < 6 & 7 > 2");
}

TEST(XmlTest, ParsesIndentedDocument) {
  // The layout the writers emit: two-space indent, self-closing leaves.
  auto parsed = ParseXml(
      "<gmark>\n"
      "  <graph nodes=\"100\">\n"
      "    <types>\n"
      "      <type name=\"researcher\"/>\n"
      "    </types>\n"
      "    <predicates/>\n"
      "  </graph>\n"
      "</gmark>\n");
  ASSERT_TRUE(parsed.ok());
  const XmlNode* graph = parsed->FindChild("graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->attr("nodes"), "100");
  const XmlNode* types = graph->FindChild("types");
  ASSERT_NE(types, nullptr);
  ASSERT_EQ(types->children().size(), 1u);
  EXPECT_EQ(types->children()[0].attr("name"), "researcher");
  ASSERT_NE(graph->FindChild("predicates"), nullptr);
  EXPECT_TRUE(graph->FindChild("predicates")->children().empty());
}

TEST(XmlTest, RejectsMismatchedTags) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></b>").ok());
}

TEST(XmlTest, RejectsMalformedAttributes) {
  EXPECT_FALSE(ParseXml("<a x=1/>").ok());
  EXPECT_FALSE(ParseXml("<a x=\"1/>").ok());
  EXPECT_FALSE(ParseXml("<a x/>").ok());
}

TEST(XmlTest, RejectsTrailingContent) {
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
  EXPECT_FALSE(ParseXml("<a/>junk").ok());
}

TEST(XmlTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("   ").ok());
}

}  // namespace
}  // namespace gmark
