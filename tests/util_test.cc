// Unit tests for src/util: Status/Result, JSON, varint/delta codecs,
// RNG/samplers, string helpers — plus the in-place decoders built on
// them (the document engine's JsonReader-based document reads and the
// skip mode of the binary property codec), checked against the full
// decoders.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/datasets/generators.h"
#include "src/engines/docish/doc_engine.h"
#include "src/graph/types.h"
#include "src/util/cancel.h"
#include "src/util/json.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"
#include "src/util/varint.h"

namespace gdbmicro {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);

  Result<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(42), 42);
}

Status UseAssignOrReturn(int x, int* out) {
  GDB_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(UseAssignOrReturn(-7, &out).ok());
}

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     (1ULL << 32) - 1, 1ULL << 32, ~0ULL}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t pos = 0;
    auto decoded = GetVarint64(buf, &pos);
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  buf.resize(buf.size() - 1);
  size_t pos = 0;
  EXPECT_FALSE(GetVarint64(buf, &pos).ok());
}

TEST(VarintTest, ZigZagRoundTrip) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 100, -100, INT64_MAX,
                                        INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(VarintTest, DeltaListBytes) {
  // Count 5, then the gaps 3, 4, 0, 93 and 2^40 - 100 (six varint bytes).
  std::string buf;
  EncodeDeltaList({3, 7, 7, 100, 1ULL << 40}, &buf);
  EXPECT_EQ(buf, std::string("\x05\x03\x04\x00\x5d"
                             "\x9c\xff\xff\xff\xff\x1f",
                             11));
}

TEST(VarintTest, DeltaListEmpty) {
  std::string buf;
  EncodeDeltaList({}, &buf);
  EXPECT_EQ(buf, std::string("\x00", 1));
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng base(7);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  // Streams should differ.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(ZipfTest, SkewedTowardsSmallRanks) {
  Rng rng(3);
  ZipfSampler zipf(1000, 1.2);
  std::map<uint64_t, int> counts;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) counts[zipf.Sample(rng)]++;
  // Rank 0 should dominate rank 100 by a wide margin.
  EXPECT_GT(counts[0], counts[100] * 5);
  // All samples in range.
  for (const auto& [k, v] : counts) EXPECT_LT(k, 1000u);
}

TEST(JsonTest, ParsePrimitives) {
  auto v = Json::Parse("  true ");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_bool());

  v = Json::Parse("-42");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), -42);

  v = Json::Parse("3.5");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->double_value(), 3.5);

  v = Json::Parse("\"hi\\nthere\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "hi\nthere");

  v = Json::Parse("null");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(JsonTest, ParseNested) {
  auto v = Json::Parse(R"({"a":[1,2,{"b":null}],"c":{"d":false}})");
  ASSERT_TRUE(v.ok());
  const Json* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->array().size(), 3u);
  const Json* c = v->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->Find("d")->bool_value());
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("12 34").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
}

TEST(JsonTest, DumpParseRoundTrip) {
  Json obj = Json::MakeObject();
  obj.Set("name", Json("graph \"db\""));
  obj.Set("count", Json(int64_t{12}));
  obj.Set("pi", Json(3.25));
  Json arr = Json::MakeArray();
  arr.Append(Json(true));
  arr.Append(Json(nullptr));
  obj.Set("flags", std::move(arr));

  auto round = Json::Parse(obj.Dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, obj);

  auto pretty_round = Json::Parse(obj.Pretty());
  ASSERT_TRUE(pretty_round.ok());
  EXPECT_EQ(*pretty_round, obj);
}

TEST(JsonTest, UnicodeEscapes) {
  auto v = Json::Parse(R"("Aé")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "A\xc3\xa9");
}

// --- In-place decoders vs the full ones ----------------------------------

// What the document engine read from a stored document before it decoded
// in place: Json::Parse, then Find for the system members (type-checked)
// and PropertyValue::FromJson for every other member.
struct TreeDecode {
  Status status;
  VertexId src = 0;
  VertexId dst = 0;
  std::string label;
  PropertyMap props;
};

TreeDecode TreeDecodeEdge(std::string_view doc) {
  TreeDecode out;
  auto parsed = Json::Parse(doc);
  if (!parsed.ok()) {
    out.status = parsed.status();
    return out;
  }
  const Json* from = parsed->Find("_from");
  const Json* to = parsed->Find("_to");
  const Json* label = parsed->Find("_label");
  if (from == nullptr || to == nullptr || label == nullptr ||
      !from->is_number() || !to->is_number() || !label->is_string()) {
    out.status = Status::Corruption("malformed edge document");
    return out;
  }
  out.src = static_cast<VertexId>(from->int_value());
  out.dst = static_cast<VertexId>(to->int_value());
  out.label = label->string_value();
  for (const auto& [k, v] : parsed->object()) {
    if (!k.empty() && k[0] == '_') continue;
    out.props.emplace_back(k, PropertyValue::FromJson(v));
  }
  return out;
}

// The tree-based vertex read threw std::bad_variant_access on a document
// that parsed but was not an object; the in-place read reports
// kCorruption there instead, which is what this reference expects.
TreeDecode TreeDecodeVertex(std::string_view doc) {
  TreeDecode out;
  auto parsed = Json::Parse(doc);
  if (!parsed.ok()) {
    out.status = parsed.status();
    return out;
  }
  if (!parsed->is_object()) {
    out.status = Status::Corruption("document is not a JSON object");
    return out;
  }
  const Json* label = parsed->Find("_label");
  if (label != nullptr && label->is_string()) out.label = label->string_value();
  for (const auto& [k, v] : parsed->object()) {
    if (!k.empty() && k[0] == '_') continue;
    out.props.emplace_back(k, PropertyValue::FromJson(v));
  }
  return out;
}

// Decodes `doc` both ways, as an edge and as a vertex document, and
// checks that the in-place reads return what the tree reads return: the
// same endpoints, label and properties, or the same status code. A bare
// JsonReader skip of the whole text must agree with Json::Parse too.
void ExpectSameDecode(std::string_view doc, EdgeDocFields* fields) {
  SCOPED_TRACE(std::string(doc));
  auto parsed = Json::Parse(doc);
  JsonReader reader(doc);
  Status skipped = reader.SkipValue();
  if (skipped.ok()) skipped = reader.Finish();
  EXPECT_EQ(skipped.code(), parsed.ok() ? StatusCode::kOk
                                        : parsed.status().code());

  TreeDecode want = TreeDecodeEdge(doc);
  for (bool with_props : {false, true}) {
    PropertyMap props;
    Status got = DecodeEdgeDoc(doc, fields, with_props ? &props : nullptr);
    ASSERT_EQ(got.code(), want.status.code()) << got << " vs " << want.status;
    if (!got.ok()) continue;
    EXPECT_EQ(fields->src, want.src);
    EXPECT_EQ(fields->dst, want.dst);
    EXPECT_EQ(fields->label, want.label);
    if (with_props) {
      EXPECT_EQ(props, want.props);
    }
  }

  want = TreeDecodeVertex(doc);
  std::string label = "stale";
  PropertyMap props = {{"stale", PropertyValue(1)}};
  Status got = DecodeVertexDoc(doc, &label, &props);
  ASSERT_EQ(got.code(), want.status.code()) << got << " vs " << want.status;
  if (!got.ok()) return;
  EXPECT_EQ(label, want.label);
  EXPECT_EQ(props, want.props);
}

void ExpectSameDecodeOfEveryPrefix(const std::string& doc,
                                   EdgeDocFields* fields) {
  for (size_t n = 0; n <= doc.size(); ++n) {
    ExpectSameDecode(std::string_view(doc).substr(0, n), fields);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The hand-written corner cases: escapes, duplicate and mistyped system
// members, number spellings, missing members, nested property values,
// whitespace, trailing bytes and the nesting limit.
std::vector<std::string> EdgeCaseDocuments() {
  std::vector<std::string> docs = {
      R"({"_from":1,"_to":2,"_label":"knows"})",
      R"({"_from":1,"_to":2,"_label":"knows","since":2010,"w":0.5,)"
      R"("tag":"a","ok":true,"no":false,"none":null})",
      // Escaped keys and values, \u escapes included.
      R"({"_from":3,"_to":4,"_label":"a\"b\\c\/d\u00e9\u4e2d\n"})",
      R"({"_from":3,"_to":4,"_label":"x","name":"tab\there","\u00e9":1})",
      R"({"_fr\u006fm":1,"\u005fto":2,"\u005flabel":"esc","n\u0061me":"v"})",
      R"({"_from":3,"_to":4,"_label":"A\u00ff\u0800","k":"\b\f\r"})",
      // Duplicate members: the first occurrence counts.
      R"({"_from":1,"_from":"x","_to":2,"_label":"a","_label":5})",
      R"({"_from":"x","_from":1,"_to":2,"_label":"a"})",
      R"({"_from":1,"_to":2,"_label":5,"_label":"a"})",
      R"({"_from":1,"_to":2,"_to":3,"_label":"a","p":1,"p":2})",
      // _from spelled as a string, a double, out of range and signed.
      R"({"_from":"5","_to":2,"_label":"a"})",
      R"({"_from":5.75,"_to":2,"_label":"a"})",
      R"({"_from":1e400,"_to":-1e400,"_label":"a"})",
      R"({"_from":+5,"_to":2,"_label":"a"})",
      R"({"_from":-0,"_to":-0.0,"_label":"a"})",
      R"({"_from":-5,"_to":1E3,"_label":"a"})",
      R"({"_from":18446744073709551615,"_to":9223372036854775807,"_label":"a"})",
      R"({"_from":-9223372036854775808,"_to":1e-400,"_label":"a"})",
      R"({"_from":.5,"_to":5.,"_label":"a","x":0.5e+2,"y":007})",
      R"({"_from":1,"_to":2,"_label":"a","bad":1e})",
      R"({"_from":1,"_to":2,"_label":"a","bad":--1})",
      R"({"_from":1,"_to":2,"_label":"a","bad":-})",
      R"({"_from":1,"_to":2,"_label":"a","bad":1.2.3})",
      R"({"_from":1,"_to":2,"_label":"a","bad":+-1})",
      R"({"_from":1,"_to":2,"_label":"a","bad":1e+})",
      R"({"_from":1,"_to":2,"_label":"a","bad":.})",
      // Missing members.
      R"({"_to":2,"_label":"a"})",
      R"({"_from":1,"_label":"a"})",
      R"({"_from":1,"_to":2})",
      R"({})",
      R"({"name":"only properties","n":1})",
      // Nested objects and arrays as property values.
      R"({"_from":1,"_to":2,"_label":"a","o":{"x":[1,2,{"y":null}]},)"
      R"("arr":[],"obj":{},"mixed":[true,"s",-1.5,[[]]]})",
      R"({"_from":[1],"_to":{"v":2},"_label":["a"]})",
      // Whitespace and trailing bytes.
      " \t\r\n{ \"_from\" : 1 ,\n\"_to\":2\t,\"_label\" : \"a\" , \"p\" : [ 1 , 2 ] }\n ",
      R"({"_from":1,"_to":2,"_label":"a"} x)",
      R"({"_from":1,"_to":2,"_label":"a"}})",
      R"({"_from":1,"_to":2,"_label":"a"}{})",
      // Not an object, and broken structure.
      R"([1,2,3])",
      R"("just a string")",
      "42",
      "null",
      "",
      R"({"_from":1 "_to":2})",
      R"({"_from":1,,"_to":2})",
      R"({"_from":1,"_to":2,"_label":"a",})",
      R"({_from:1})",
      R"({"_from"1})",
      R"({"_from":1,"_to":2,"_label":"a","t":tru})",
      R"({"_from":1,"_to":2,"_label":"a","t":nul})",
      R"({"_from":1,"_to":2,"_label":"a\x"})",
      R"({"_from":1,"_to":2,"_label":"a\u12G4"})",
      R"({"_from":1,"_to":2,"_label":"\u12"})",
      "{\"_from\":1,\"_to\":2,\"_label\":\"raw\x01\x7f\xc3\xa9 bytes\"}",
  };
  // The nesting limit: 256 containers inside the document object still
  // parse, 257 do not.
  for (int depth : {255, 256, 257, 258}) {
    docs.push_back(R"({"_from":1,"_to":2,"_label":"deep","p":)" +
                   std::string(static_cast<size_t>(depth), '[') +
                   std::string(static_cast<size_t>(depth), ']') + "}");
    docs.push_back(R"({"_from":1,"_to":2,"_label":"deep","p":)" +
                   std::string(static_cast<size_t>(depth), '[') + "1" +
                   std::string(static_cast<size_t>(depth), ']') + "}");
  }
  docs.push_back(std::string(257, '[') + std::string(257, ']'));
  return docs;
}

TEST(JsonReaderTest, EdgeCaseDocumentsDecodeInPlaceAsTheTreeDoes) {
  EdgeDocFields fields;
  for (const std::string& doc : EdgeCaseDocuments()) {
    ExpectSameDecodeOfEveryPrefix(doc, &fields);
    if (HasFatalFailure()) return;
  }
}

// Every vertex and edge document arango stores for ldbc 0.05 and mico
// 0.05 decodes in place to what the tree returns. Every document is
// decoded whole; every truncated prefix is decoded for the first
// document of each shape (the sequence of member names and value kinds),
// since where a truncation lands, not which digits it cuts, decides the
// outcome.
TEST(JsonReaderTest, StoredDocumentsDecodeInPlaceAsTheTreeDoes) {
  EdgeDocFields fields;
  std::set<std::string> shapes;
  auto shape_of = [](const std::string& doc) {
    std::string shape;
    auto parsed = Json::Parse(doc);
    if (!parsed.ok() || !parsed->is_object()) return shape;
    for (const auto& [k, v] : parsed->object()) {
      shape += k;
      shape += v.is_string() ? ":s," : v.is_int() ? ":i," : v.is_double() ? ":d," : ":o,";
    }
    return shape;
  };
  size_t documents = 0;
  auto check = [&](const std::string& doc) {
    ++documents;
    ExpectSameDecode(doc, &fields);
    if (shapes.insert(shape_of(doc)).second) {
      ExpectSameDecodeOfEveryPrefix(doc, &fields);
    }
  };
  for (const char* name : {"ldbc", "mico"}) {
    auto data = datasets::GenerateByName(name, datasets::GenOptions{0.05});
    ASSERT_TRUE(data.ok()) << name;
    for (const auto& v : data->vertices) {
      check(EncodeVertexDoc(v.label, v.properties));
      if (HasFatalFailure()) return;
    }
    for (const auto& e : data->edges) {
      check(EncodeEdgeDoc(e.src, e.dst, e.label, e.properties));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(documents, 10000u);
  EXPECT_GE(shapes.size(), 4u);
}

// The document writer's reference: the tree built member by member with
// Json::Set, then dumped.
std::string TreeVertexDoc(std::string_view label, const PropertyMap& props) {
  Json doc = Json::MakeObject();
  doc.Set("_label", Json(std::string(label)));
  for (const auto& [k, v] : props) doc.Set(k, v.ToJson());
  return doc.Dump();
}

std::string TreeEdgeDoc(VertexId src, VertexId dst, std::string_view label,
                        const PropertyMap& props) {
  Json doc = Json::MakeObject();
  doc.Set("_from", Json(src));
  doc.Set("_to", Json(dst));
  doc.Set("_label", Json(std::string(label)));
  for (const auto& [k, v] : props) doc.Set(k, v.ToJson());
  return doc.Dump();
}

// The property update's reference: parse, Json::Set or erase the first
// member of that name, dump.
Result<std::string> TreeEditDoc(std::string_view doc, std::string_view name,
                                const PropertyValue* value) {
  GDB_ASSIGN_OR_RETURN(Json parsed, Json::Parse(doc));
  if (value != nullptr) {
    parsed.Set(std::string(name), value->ToJson());
  } else {
    Json::Object& obj = parsed.object();
    auto it = std::find_if(obj.begin(), obj.end(),
                           [&](const auto& kv) { return kv.first == name; });
    if (it == obj.end()) return Status::NotFound("no such property");
    obj.erase(it);
  }
  return parsed.Dump();
}

// Edits `doc` with EditDocProperty and checks the result, status and
// bytes, against the tree update.
void ExpectSameEdit(const std::string& doc, bool is_edge,
                    std::string_view name, const PropertyValue* value) {
  SCOPED_TRACE(doc + (value != nullptr ? " set " : " remove ") +
               std::string(name));
  auto want = TreeEditDoc(doc, name, value);
  std::string edited = doc;
  Status got = EditDocProperty(&edited, is_edge, name, value);
  ASSERT_EQ(got.code(), want.ok() ? StatusCode::kOk : want.status().code())
      << got;
  EXPECT_EQ(edited, want.ok() ? *want : doc);
}

// Every vertex and edge document of ldbc 0.05 and mico 0.05 is written
// byte for byte as the tree encoded it, and so is each document after a
// property update: an existing key overwritten, a new key added, an
// existing key removed and an absent key removed (kNotFound, unchanged).
TEST(JsonDocWriterTest, StoredDocumentsAndEditsMatchTheTree) {
  const PropertyValue replaced(std::string("q\"uote\\d é\n"));
  const PropertyValue added(-0.25);
  size_t documents = 0;
  auto check = [&](const std::string& doc, const std::string& want,
                   bool is_edge, const PropertyMap& props) {
    ++documents;
    ASSERT_EQ(doc, want);
    if (!props.empty()) {
      ExpectSameEdit(doc, is_edge, props.front().first, &replaced);
      ExpectSameEdit(doc, is_edge, props.front().first, nullptr);
    }
    ExpectSameEdit(doc, is_edge, "added", &added);
    ExpectSameEdit(doc, is_edge, "absent", nullptr);
  };
  for (const char* name : {"ldbc", "mico"}) {
    auto data = datasets::GenerateByName(name, datasets::GenOptions{0.05});
    ASSERT_TRUE(data.ok()) << name;
    for (const auto& v : data->vertices) {
      check(EncodeVertexDoc(v.label, v.properties),
            TreeVertexDoc(v.label, v.properties), false, v.properties);
      if (HasFatalFailure()) return;
    }
    for (const auto& e : data->edges) {
      check(EncodeEdgeDoc(e.src, e.dst, e.label, e.properties),
            TreeEdgeDoc(e.src, e.dst, e.label, e.properties), true,
            e.properties);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(documents, 10000u);
}

// Repeated keys keep Json::Set's rule, the last value in the first key's
// position: the maps of DocishNativeLoadTest, and a longer interleaving
// with every value type, escapes in keys and labels included.
TEST(JsonDocWriterTest, RepeatedKeysMatchTheTree) {
  const PropertyMap maps[] = {
      {{"k", PropertyValue(int64_t{1})}, {"k", PropertyValue(int64_t{2})}},
      {{"w", PropertyValue("a")}, {"w", PropertyValue("b")}},
      {{"a", PropertyValue(int64_t{1})},
       {"b\"\\", PropertyValue(true)},
       {"a", PropertyValue(2.5)},
       {"c", PropertyValue()},
       {"b\"\\", PropertyValue("x\ty")},
       {"a", PropertyValue(int64_t{-3})}},
  };
  for (const PropertyMap& props : maps) {
    EXPECT_EQ(EncodeVertexDoc("re\"al", props), TreeVertexDoc("re\"al", props));
    EXPECT_EQ(EncodeEdgeDoc(3, 4, "l", props), TreeEdgeDoc(3, 4, "l", props));
  }
  EXPECT_EQ(EncodeVertexDoc("real", maps[0]), R"({"_label":"real","k":2})");
  EXPECT_EQ(EncodeEdgeDoc(0, 1, "l", maps[1]),
            R"({"_from":0,"_to":1,"_label":"l","w":"b"})");
}

// An encoded property map with every value tag: null, bool, negative and
// large ints, doubles, empty and long strings.
std::string EncodedMapWithEveryTag() {
  PropertyMap props = {
      {"null", PropertyValue()},
      {"yes", PropertyValue(true)},
      {"no", PropertyValue(false)},
      {"small", PropertyValue(int64_t{-3})},
      {"big", PropertyValue(int64_t{1} << 62)},
      {"real", PropertyValue(-2.5e-7)},
      {"", PropertyValue(std::string())},
      {"text", PropertyValue(std::string(300, 'x'))},
  };
  std::string out;
  EncodePropertyMap(props, &out);
  return out;
}

TEST(PropertyCodecTest, SkipModeEndsWhereDecodingEndsOnEveryPrefix) {
  std::vector<std::string> inputs = {EncodedMapWithEveryTag()};
  std::string empty;
  EncodePropertyMap({}, &empty);
  inputs.push_back(empty);
  // An unknown value tag (9) after a valid key.
  std::string bad_tag;
  PutVarint64(&bad_tag, 1);
  PutVarint64(&bad_tag, 1);
  bad_tag += "k";
  bad_tag.push_back(9);
  inputs.push_back(bad_tag);
  for (const std::string& input : inputs) {
    for (size_t n = 0; n <= input.size(); ++n) {
      std::string_view prefix = std::string_view(input).substr(0, n);
      size_t decode_pos = 0, skip_pos = 0;
      auto decoded = DecodePropertyMap(prefix, &decode_pos);
      Status skipped = SkipPropertyMap(prefix, &skip_pos);
      ASSERT_EQ(skipped.code(), decoded.ok() ? StatusCode::kOk
                                             : decoded.status().code())
          << "prefix of " << n << " bytes";
      if (decoded.ok()) {
        EXPECT_EQ(skip_pos, decode_pos) << n;
      }
    }
  }
  size_t pos = 0;
  auto full = DecodePropertyMap(inputs[0], &pos);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 8u);
  EXPECT_EQ(pos, inputs[0].size());
}

TEST(PropertyCodecTest, SkipModeMatchesEveryValueTag) {
  std::vector<PropertyValue> values = {
      PropertyValue(),          PropertyValue(true),
      PropertyValue(int64_t{-1}), PropertyValue(int64_t{1} << 40),
      PropertyValue(3.25),      PropertyValue(std::string("short")),
      PropertyValue(std::string(200, 'y'))};
  for (const PropertyValue& value : values) {
    std::string input;
    value.EncodeTo(&input);
    for (size_t n = 0; n <= input.size(); ++n) {
      std::string_view prefix = std::string_view(input).substr(0, n);
      size_t decode_pos = 0, skip_pos = 0;
      auto decoded = PropertyValue::DecodeFrom(prefix, &decode_pos);
      Status skipped = PropertyValue::SkipEncoded(prefix, &skip_pos);
      ASSERT_EQ(skipped.code(), decoded.ok() ? StatusCode::kOk
                                             : decoded.status().code())
          << value.ToString() << " prefix " << n;
      if (!decoded.ok()) continue;
      EXPECT_EQ(skip_pos, decode_pos);
      EXPECT_EQ(*decoded, value);
    }
  }
  std::string unknown(1, '\x07');
  size_t pos = 0;
  EXPECT_EQ(PropertyValue::SkipEncoded(unknown, &pos).code(),
            StatusCode::kCorruption);
}

// A length varint near 2^64 must not wrap the bounds check: every decoder
// fails with kCorruption and leaves the cursor at or past the length it
// read, never behind it.
TEST(PropertyCodecTest, WrappingLengthsAreCorruption) {
  const uint64_t kWrapping = ~uint64_t{0} - 1;  // 2^64 - 2
  // A string value (tag 4) whose length wraps, followed by "abc".
  std::string value(1, '\x04');
  PutVarint64(&value, kWrapping);
  const size_t value_len_end = value.size();
  value += "abc";
  {
    size_t pos = 0;
    auto decoded = PropertyValue::DecodeFrom(value, &pos);
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    EXPECT_GE(pos, value_len_end);
    EXPECT_LE(pos, value.size());
  }
  {
    size_t pos = 0;
    EXPECT_EQ(PropertyValue::SkipEncoded(value, &pos).code(),
              StatusCode::kCorruption);
    EXPECT_GE(pos, value_len_end);
    EXPECT_LE(pos, value.size());
  }

  // One-pair maps: one whose key length wraps, one whose value does.
  std::string wrapping_key;
  PutVarint64(&wrapping_key, 1);
  PutVarint64(&wrapping_key, kWrapping);
  const size_t key_len_end = wrapping_key.size();
  wrapping_key += "abc";
  std::string wrapping_value;
  PutVarint64(&wrapping_value, 1);
  PutVarint64(&wrapping_value, 1);
  wrapping_value += "k";
  const size_t value_offset = wrapping_value.size();
  wrapping_value += value;
  struct Case {
    std::string_view bytes;
    size_t len_end;        // where the wrapping length varint ends
    std::string_view key;  // the key a probe asks for
  };
  for (const Case& c :
       {Case{wrapping_key, key_len_end, "abc"},
        Case{wrapping_value, value_offset + value_len_end, "k"}}) {
    size_t pos = 0;
    EXPECT_EQ(DecodePropertyMap(c.bytes, &pos).status().code(),
              StatusCode::kCorruption)
        << c.key;
    EXPECT_GE(pos, c.len_end) << c.key;
    EXPECT_LE(pos, c.bytes.size()) << c.key;
    pos = 0;
    EXPECT_EQ(SkipPropertyMap(c.bytes, &pos).code(), StatusCode::kCorruption)
        << c.key;
    EXPECT_GE(pos, c.len_end) << c.key;
    pos = 0;
    PropertyValue out;
    EXPECT_EQ(ReadEncodedProperty(c.bytes, &pos, c.key, &out).status().code(),
              StatusCode::kCorruption)
        << c.key;
    EXPECT_GE(pos, c.len_end) << c.key;
    EXPECT_LE(pos, c.bytes.size()) << c.key;
  }
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
}

TEST(CancelTest, NeverExpiresByDefault) {
  CancelToken t;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(t.Expired());
}

TEST(CancelTest, ManualCancel) {
  CancelToken t;
  CancelToken copy = t;
  t.Cancel();
  EXPECT_TRUE(copy.Expired());
}

TEST(CancelTest, DeadlineExpires) {
  CancelToken t = CancelToken::WithLimits(std::chrono::milliseconds(1), 0);
  Timer timer;
  bool expired = false;
  while (timer.ElapsedMillis() < 200.0) {
    if (t.Expired()) {
      expired = true;
      break;
    }
  }
  EXPECT_TRUE(expired);
}

TEST(CancelTest, ExpiredDeadlineSeenOnFirstProbe) {
  // An already-expired deadline must not hide behind the clock stride: a
  // short scan loop (< kClockStride probes) still has to time out.
  CancelToken t = CancelToken::WithLimits(std::chrono::nanoseconds(-1), 0);
  EXPECT_TRUE(t.Expired());
}

TEST(CancelTest, StrideSkipsClockBetweenChecks) {
  // With a far-future deadline, probes between stride boundaries must
  // return false without flipping the token.
  CancelToken t = CancelToken::WithLimits(std::chrono::hours(2), 0);
  for (uint32_t i = 0; i < 4 * CancelToken::kClockStride; ++i) {
    EXPECT_FALSE(t.Expired());
  }
}

TEST(CancelTest, SharedTokenProbesFromManyThreads) {
  // The probe counter is shared state: hammer it from several threads
  // (TSan-checked in CI) and confirm a cross-thread Cancel is observed.
  CancelToken t = CancelToken::WithLimits(std::chrono::hours(2), 0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (t.Expired()) break;
      }
    });
  }
  t.Cancel();
  for (auto& th : threads) th.join();
  stop.store(true);
  EXPECT_TRUE(t.Expired());
}

TEST(CancelTest, SharedTokenDeadlineTripsForEveryProber) {
  // Concurrent probers advance the shared clock-stride counter with a
  // relaxed load and store, so increments can be lost. That may delay a
  // clock read but must never hide the deadline: every thread probing a
  // token armed with 2 ms sees it trip well within 1 s.
  constexpr int kThreads = 4;
  CancelToken t = CancelToken::WithLimits(std::chrono::milliseconds(2), 0);
  std::vector<double> tripped_after_ms(kThreads, -1.0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, &tripped_after_ms, i] {
      Timer timer;
      for (uint64_t probe = 0;; ++probe) {
        if (t.Expired()) {
          tripped_after_ms[static_cast<size_t>(i)] = timer.ElapsedMillis();
          return;
        }
        if (probe % 1024 == 0 && timer.ElapsedMillis() > 1000.0) return;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    double ms = tripped_after_ms[static_cast<size_t>(i)];
    EXPECT_GE(ms, 0.0) << "thread " << i << " never saw the deadline";
    EXPECT_LE(ms, 1000.0) << "thread " << i;
  }
  EXPECT_EQ(t.trip_reason(), TripReason::kDeadline);
}

}  // namespace
}  // namespace gdbmicro
