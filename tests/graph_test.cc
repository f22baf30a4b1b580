// Tests for the graph model (PropertyValue, PropertyMap, GraphData) and
// the GraphSON reader/writer.

#include <gtest/gtest.h>

#include "src/graph/graph_data.h"
#include "src/graph/types.h"
#include "src/gson/graphson.h"
#include "tests/temp_file.h"

namespace gdbmicro {
namespace {

TEST(PropertyValueTest, TypePredicatesAndAccessors) {
  EXPECT_TRUE(PropertyValue().is_null());
  EXPECT_TRUE(PropertyValue(true).is_bool());
  EXPECT_TRUE(PropertyValue(int64_t{4}).is_int());
  EXPECT_TRUE(PropertyValue(2.5).is_double());
  EXPECT_TRUE(PropertyValue("s").is_string());
  EXPECT_EQ(PropertyValue(int64_t{-9}).ToString(), "-9");
  EXPECT_EQ(PropertyValue("txt").ToString(), "txt");
}

TEST(PropertyValueTest, OrderingIsDeterministicAcrossTypes) {
  // Type tag dominates: null < bool < int < double < string.
  PropertyValue null_v;
  PropertyValue bool_v(true);
  PropertyValue int_v(int64_t{5});
  PropertyValue dbl_v(1.5);
  PropertyValue str_v("a");
  EXPECT_TRUE(null_v < bool_v);
  EXPECT_TRUE(bool_v < int_v);
  EXPECT_TRUE(int_v < dbl_v);
  EXPECT_TRUE(dbl_v < str_v);
  EXPECT_TRUE(PropertyValue(int64_t{1}) < PropertyValue(int64_t{2}));
}

TEST(PropertyValueTest, EncodeDecodeRoundTrip) {
  std::vector<PropertyValue> values = {
      PropertyValue(),         PropertyValue(true),
      PropertyValue(false),    PropertyValue(int64_t{0}),
      PropertyValue(int64_t{-123456789}), PropertyValue(3.14159),
      PropertyValue(""),       PropertyValue(std::string(1000, 'x'))};
  for (const PropertyValue& v : values) {
    std::string buf;
    v.EncodeTo(&buf);
    size_t pos = 0;
    auto round = PropertyValue::DecodeFrom(buf, &pos);
    ASSERT_TRUE(round.ok());
    EXPECT_TRUE(*round == v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(PropertyValueTest, JsonRoundTrip) {
  std::vector<PropertyValue> values = {PropertyValue(true),
                                       PropertyValue(int64_t{7}),
                                       PropertyValue(0.5), PropertyValue("v")};
  for (const PropertyValue& v : values) {
    EXPECT_TRUE(PropertyValue::FromJson(v.ToJson()) == v);
  }
}

TEST(PropertyMapTest, SetFindErase) {
  PropertyMap props;
  EXPECT_TRUE(SetProperty(&props, "k", PropertyValue(int64_t{1})));
  EXPECT_FALSE(SetProperty(&props, "k", PropertyValue(int64_t{2})));
  ASSERT_NE(FindProperty(props, "k"), nullptr);
  EXPECT_EQ(FindProperty(props, "k")->int_value(), 2);
  EXPECT_TRUE(EraseProperty(&props, "k"));
  EXPECT_FALSE(EraseProperty(&props, "k"));
  EXPECT_EQ(FindProperty(props, "k"), nullptr);
}

TEST(PropertyMapTest, EncodeDecodeRoundTrip) {
  PropertyMap props;
  props.emplace_back("a", PropertyValue(int64_t{1}));
  props.emplace_back("b", PropertyValue("text"));
  props.emplace_back("c", PropertyValue(true));
  std::string buf;
  EncodePropertyMap(props, &buf);
  size_t pos = 0;
  auto round = DecodePropertyMap(buf, &pos);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, props);
}

TEST(GraphDataTest, ValidateCatchesDanglingEdges) {
  GraphData data;
  data.vertices.push_back({"n", {}});
  data.edges.push_back({0, 1, "l", {}});
  Status s = data.Validate();
  EXPECT_FALSE(s.ok());
  data.vertices.push_back({"n", {}});
  EXPECT_TRUE(data.Validate().ok());
}

GraphData SampleGraph() {
  GraphData data;
  data.name = "sample";
  data.vertices.push_back(
      {"person", {{"name", PropertyValue("ada")},
                  {"age", PropertyValue(int64_t{36})}}});
  data.vertices.push_back({"person", {{"name", PropertyValue("bob")}}});
  data.vertices.push_back({"city", {{"pop", PropertyValue(1.5)}}});
  data.edges.push_back(
      {0, 1, "knows", {{"since", PropertyValue(int64_t{1999})}}});
  data.edges.push_back({0, 2, "livesIn", {}});
  data.edges.push_back({1, 1, "self", {{"flag", PropertyValue(true)}}});
  return data;
}

TEST(GraphSONTest, RoundTrip) {
  GraphData data = SampleGraph();
  std::string text = WriteGraphSON(data);
  auto round = ReadGraphSON(text);
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_EQ(round->vertices.size(), data.vertices.size());
  ASSERT_EQ(round->edges.size(), data.edges.size());
  for (size_t i = 0; i < data.vertices.size(); ++i) {
    EXPECT_EQ(round->vertices[i].label, data.vertices[i].label);
    EXPECT_EQ(round->vertices[i].properties, data.vertices[i].properties);
  }
  for (size_t i = 0; i < data.edges.size(); ++i) {
    EXPECT_EQ(round->edges[i].src, data.edges[i].src);
    EXPECT_EQ(round->edges[i].dst, data.edges[i].dst);
    EXPECT_EQ(round->edges[i].label, data.edges[i].label);
    EXPECT_EQ(round->edges[i].properties, data.edges[i].properties);
  }
}

TEST(GraphSONTest, FileRoundTrip) {
  GraphData data = SampleGraph();
  TempFile file("gdbmicro_sample.graphson");
  ASSERT_TRUE(WriteGraphSONFile(data, file.path()).ok());
  auto round = ReadGraphSONFile(file.path());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->vertices.size(), data.vertices.size());
}

TEST(GraphSONTest, AcceptsSparseVertexIds) {
  const char* text = R"({"mode":"NORMAL",
    "vertices":[{"_id":100,"_label":"a"},{"_id":7,"_label":"b"}],
    "edges":[{"_id":0,"_outV":100,"_inV":7,"_label":"l"}]})";
  auto data = ReadGraphSON(text);
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_EQ(data->vertices.size(), 2u);
  EXPECT_EQ(data->edges[0].src, 0u);  // remapped to dense indexes
  EXPECT_EQ(data->edges[0].dst, 1u);
}

TEST(GraphSONTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ReadGraphSON("not json").ok());
  EXPECT_FALSE(ReadGraphSON("{}").ok());  // missing vertices
  EXPECT_FALSE(
      ReadGraphSON(R"({"vertices":[{"_label":"x"}],"edges":[]})").ok());
  EXPECT_FALSE(ReadGraphSON(
                   R"({"vertices":[{"_id":1}],
                       "edges":[{"_outV":1,"_inV":2,"_label":"l"}]})")
                   .ok());  // dangling edge
  EXPECT_FALSE(ReadGraphSON(
                   R"({"vertices":[{"_id":1},{"_id":1}],"edges":[]})")
                   .ok());  // duplicate id
}

}  // namespace
}  // namespace gdbmicro
