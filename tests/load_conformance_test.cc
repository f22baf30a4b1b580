// Load-path conformance: every engine's native bulk loader
// (BulkLoadMode::kNative — presized storage, interned strings, deferred
// secondary-structure construction) must produce a graph
// *indistinguishable* from element-by-element insertion
// (BulkLoadMode::kPerElement): same counts, labels, properties, adjacency
// multisets, and property-index answers. Engine ids may differ between
// the two instances, so every comparison maps back to dataset indexes
// through each instance's LoadMapping.
//
// Also covers the runner-side contract the native loaders rely on:
// Runner::Load validates the dataset once up front, so a dangling edge is
// rejected with the dataset diagnostic before any engine sees it.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/runner.h"
#include "src/datasets/generators.h"
#include "src/graph/registry.h"

namespace gdbmicro {
namespace {

// A small dataset exercising the cases the native loaders special-case:
// several vertex and edge labels, parallel edges, a self-loop, vertices
// with no edges, and string/int/double/bool properties on both element
// kinds.
GraphData HandcraftedData() {
  GraphData data;
  data.name = "handcrafted";
  auto vertex = [&](std::string label, PropertyMap props) {
    data.vertices.push_back({std::move(label), std::move(props)});
  };
  auto edge = [&](uint64_t src, uint64_t dst, std::string label,
                  PropertyMap props) {
    data.edges.push_back({src, dst, std::move(label), std::move(props)});
  };
  vertex("person", {{{"name", PropertyValue("ada")},
                     {"age", PropertyValue(int64_t{36})}}});
  vertex("person", {{{"name", PropertyValue("grace")},
                     {"age", PropertyValue(int64_t{85})}}});
  vertex("city", {{{"name", PropertyValue("london")},
                   {"rainy", PropertyValue(true)}}});
  vertex("city", {{{"name", PropertyValue("paris")}}});
  vertex("person", {});     // no properties
  vertex("islander", {});   // no edges at all
  edge(0, 1, "knows", {{{"since", PropertyValue(int64_t{1936})}}});
  edge(0, 1, "knows", {});  // parallel edge, same label
  edge(1, 0, "knows", {});  // reverse direction
  edge(0, 2, "lives_in", {{{"weight", PropertyValue(0.5)}}});
  edge(3, 0, "visited_by", {});
  edge(0, 0, "self", {});   // self-loop
  edge(4, 2, "lives_in", {});
  return data;
}

struct LoadedPair {
  std::unique_ptr<GraphEngine> native;
  std::unique_ptr<GraphEngine> per_element;
  std::unique_ptr<QuerySession> native_session;
  std::unique_ptr<QuerySession> per_element_session;
  LoadMapping native_map;
  LoadMapping per_element_map;
};

class LoadConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { RegisterBuiltinEngines(); }

  /// `honor_cost_env` lets the small handcrafted fixtures run under the
  /// GDBMICRO_COST_MODEL CI leg (exercising each loader's charge sites);
  /// the large generated dataset opts out — its per-element leg would
  /// spend tens of seconds busy-waiting on charges that cannot affect
  /// structural equivalence.
  LoadedPair LoadBoth(const GraphData& data, bool honor_cost_env = true) {
    LoadedPair pair;
    EngineOptions native_options;
    native_options.bulk_load_mode = BulkLoadMode::kNative;
    auto native = OpenEngine(GetParam(), native_options, honor_cost_env);
    EXPECT_TRUE(native.ok()) << native.status();
    pair.native = std::move(native).value();
    auto nm = pair.native->BulkLoad(data);
    EXPECT_TRUE(nm.ok()) << nm.status();
    pair.native_map = std::move(nm).value();
    EXPECT_TRUE(pair.native->load_stats().native);

    EngineOptions per_element_options;
    per_element_options.bulk_load_mode = BulkLoadMode::kPerElement;
    auto per_element =
        OpenEngine(GetParam(), per_element_options, honor_cost_env);
    EXPECT_TRUE(per_element.ok()) << per_element.status();
    pair.per_element = std::move(per_element).value();
    auto pm = pair.per_element->BulkLoad(data);
    EXPECT_TRUE(pm.ok()) << pm.status();
    pair.per_element_map = std::move(pm).value();
    EXPECT_FALSE(pair.per_element->load_stats().native);
    pair.native_session = pair.native->CreateSession();
    pair.per_element_session = pair.per_element->CreateSession();
    return pair;
  }

  CancelToken never_;
};

// Normalized (order-insensitive) view of a property map.
std::map<std::string, PropertyValue> Normalize(const PropertyMap& props) {
  return {props.begin(), props.end()};
}

// Maps engine vertex ids back to dataset indexes.
std::unordered_map<VertexId, uint64_t> ReverseOf(
    const std::vector<VertexId>& ids) {
  std::unordered_map<VertexId, uint64_t> reverse;
  reverse.reserve(ids.size());
  for (uint64_t i = 0; i < ids.size(); ++i) reverse.emplace(ids[i], i);
  return reverse;
}

void ExpectIndistinguishable(const GraphData& data, LoadedPair& pair,
                             const CancelToken& never) {
  ASSERT_EQ(pair.native_map.vertex_ids.size(), data.vertices.size());
  ASSERT_EQ(pair.native_map.edge_ids.size(), data.edges.size());
  ASSERT_EQ(pair.per_element_map.vertex_ids.size(), data.vertices.size());
  ASSERT_EQ(pair.per_element_map.edge_ids.size(), data.edges.size());

  // Counts.
  EXPECT_EQ(pair.native->CountVertices(*pair.native_session, never).value(),
            pair.per_element->CountVertices(*pair.per_element_session, never).value());
  EXPECT_EQ(pair.native->CountEdges(*pair.native_session, never).value(),
            pair.per_element->CountEdges(*pair.per_element_session, never).value());

  // Distinct edge labels (schema view).
  EXPECT_EQ(pair.native->DistinctEdgeLabels(*pair.native_session, never).value(),
            pair.per_element->DistinctEdgeLabels(*pair.per_element_session, never).value());

  // Per-element labels and properties.
  for (uint64_t i = 0; i < data.vertices.size(); ++i) {
    auto n = pair.native->GetVertex(*pair.native_session, pair.native_map.vertex_ids[i]);
    auto p = pair.per_element->GetVertex(*pair.per_element_session, pair.per_element_map.vertex_ids[i]);
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(n->label, p->label) << "vertex " << i;
    EXPECT_EQ(Normalize(n->properties), Normalize(p->properties))
        << "vertex " << i;
  }
  auto vreverse_n = ReverseOf(pair.native_map.vertex_ids);
  auto vreverse_p = ReverseOf(pair.per_element_map.vertex_ids);
  for (uint64_t i = 0; i < data.edges.size(); ++i) {
    auto n = pair.native->GetEdge(*pair.native_session, pair.native_map.edge_ids[i]);
    auto p = pair.per_element->GetEdge(*pair.per_element_session, pair.per_element_map.edge_ids[i]);
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(n->label, p->label) << "edge " << i;
    EXPECT_EQ(Normalize(n->properties), Normalize(p->properties))
        << "edge " << i;
    EXPECT_EQ(vreverse_n.at(n->src), vreverse_p.at(p->src)) << "edge " << i;
    EXPECT_EQ(vreverse_n.at(n->dst), vreverse_p.at(p->dst)) << "edge " << i;
  }

  // Adjacency multisets in every direction, mapped to dataset indexes.
  for (uint64_t i = 0; i < data.vertices.size(); ++i) {
    for (Direction dir :
         {Direction::kOut, Direction::kIn, Direction::kBoth}) {
      auto n = pair.native->NeighborsOf(*pair.native_session, pair.native_map.vertex_ids[i], dir,
                                        nullptr, never);
      auto p = pair.per_element->NeighborsOf(*pair.per_element_session, 
          pair.per_element_map.vertex_ids[i], dir, nullptr, never);
      ASSERT_TRUE(n.ok()) << n.status();
      ASSERT_TRUE(p.ok()) << p.status();
      std::multiset<uint64_t> nn, pp;
      for (VertexId v : *n) nn.insert(vreverse_n.at(v));
      for (VertexId v : *p) pp.insert(vreverse_p.at(v));
      EXPECT_EQ(nn, pp) << "vertex " << i << " dir "
                        << static_cast<int>(dir);
    }
  }
}

TEST_P(LoadConformanceTest, HandcraftedGraphIndistinguishable) {
  GraphData data = HandcraftedData();
  LoadedPair pair = LoadBoth(data);
  ExpectIndistinguishable(data, pair, never_);
}

TEST_P(LoadConformanceTest, GeneratedGraphIndistinguishable) {
  datasets::GenOptions gen;
  gen.scale = 0.002;
  GraphData data = datasets::GenerateLdbc(gen);
  LoadedPair pair = LoadBoth(data, /*honor_cost_env=*/false);
  ExpectIndistinguishable(data, pair, never_);
}

TEST_P(LoadConformanceTest, LabelFilteredAdjacencyMatches) {
  GraphData data = HandcraftedData();
  LoadedPair pair = LoadBoth(data);
  std::string knows = "knows", missing = "no-such-label";
  for (const std::string* label : {&knows, &missing}) {
    auto n = pair.native->EdgesOf(*pair.native_session, pair.native_map.vertex_ids[0],
                                  Direction::kBoth, label, never_);
    auto p = pair.per_element->EdgesOf(*pair.per_element_session, pair.per_element_map.vertex_ids[0],
                                       Direction::kBoth, label, never_);
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(n->size(), p->size()) << "label " << *label;
  }
}

TEST_P(LoadConformanceTest, PropertyIndexAnswersMatch) {
  GraphData data = HandcraftedData();
  LoadedPair pair = LoadBoth(data);
  Status s = pair.native->CreateVertexPropertyIndex("name");
  if (s.IsUnimplemented()) {
    GTEST_SKIP() << GetParam() << " offers no user attribute indexes";
  }
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_TRUE(pair.per_element->CreateVertexPropertyIndex("name").ok());

  auto vreverse_n = ReverseOf(pair.native_map.vertex_ids);
  auto vreverse_p = ReverseOf(pair.per_element_map.vertex_ids);
  for (const char* wanted : {"ada", "london", "nobody"}) {
    auto n = pair.native->FindVerticesByProperty(*pair.native_session, 
        "name", PropertyValue(wanted), never_);
    auto p = pair.per_element->FindVerticesByProperty(*pair.per_element_session, 
        "name", PropertyValue(wanted), never_);
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_TRUE(p.ok()) << p.status();
    std::set<uint64_t> nn, pp;
    for (VertexId v : *n) nn.insert(vreverse_n.at(v));
    for (VertexId v : *p) pp.insert(vreverse_p.at(v));
    EXPECT_EQ(nn, pp) << "name=" << wanted;
  }
}

TEST_P(LoadConformanceTest, StatsReportThePass) {
  GraphData data = HandcraftedData();
  LoadedPair pair = LoadBoth(data);
  const BulkLoadStats& stats = pair.native->load_stats();
  EXPECT_EQ(stats.vertices, data.vertices.size());
  EXPECT_EQ(stats.edges, data.edges.size());
  EXPECT_EQ(stats.Elements(), data.vertices.size() + data.edges.size());
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GE(stats.element_millis, 0.0);
  EXPECT_GE(stats.index_build_millis, 0.0);
  // kPerElement interleaves index maintenance: no deferred-build phase.
  EXPECT_EQ(pair.per_element->load_stats().index_build_millis, 0.0);
}

// The native loader still behaves after the load: subsequent CRUD
// operations land on the deferred-built structures.
TEST_P(LoadConformanceTest, MutationsAfterNativeLoadWork) {
  GraphData data = HandcraftedData();
  LoadedPair pair = LoadBoth(data);
  GraphEngine& engine = *pair.native;
  QuerySession& session = *pair.native_session;
  const std::vector<VertexId>& ids = pair.native_map.vertex_ids;

  auto added = engine.AddVertex("person", {});
  ASSERT_TRUE(added.ok()) << added.status();
  auto e = engine.AddEdge(*added, ids[0], "knows", {});
  ASSERT_TRUE(e.ok()) << e.status();
  auto deg = engine.CountEdgesOf(session, *added, Direction::kBoth, never_);
  ASSERT_TRUE(deg.ok());
  EXPECT_EQ(*deg, 1u);

  // Removing a bulk-loaded vertex cascades through the deferred-built
  // adjacency (vertex 0 touches parallel edges, a self-loop, and three
  // labels).
  uint64_t before = engine.CountEdges(session, never_).value();
  ASSERT_TRUE(engine.RemoveVertex(ids[0]).ok());
  EXPECT_FALSE(engine.GetVertex(session, ids[0]).ok());
  // Vertex 0 is incident to 6 of the dataset's edges plus the one added
  // above.
  EXPECT_EQ(engine.CountEdges(session, never_).value(), before - 7);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, LoadConformanceTest,
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// The document engine's native loader emits JSON text directly; property
// maps with duplicate keys must still land exactly as the per-element
// encoder (Json::Set overwrite semantics) would store them. Names starting
// with '_' are the document layout's system members (_label, _from, _to):
// both loaders reject them, and the native one before it stores any
// document.
TEST(DocishNativeLoadTest, ReservedAndDuplicateKeysMatchPerElement) {
  RegisterBuiltinEngines();
  GraphData data;
  data.name = "duplicate-keys";
  data.vertices.push_back({"real",
                           {{{"k", PropertyValue(int64_t{1})},
                             {"k", PropertyValue(int64_t{2})}}}});
  data.vertices.push_back({"n", {}});
  data.edges.push_back({0, 1, "l",
                        {{{"w", PropertyValue("a")},
                          {"w", PropertyValue("b")}}}});
  GraphData reserved_vertex = data;
  reserved_vertex.vertices[1].properties.emplace_back("_label",
                                                      PropertyValue("fake"));
  GraphData reserved_edge = data;
  reserved_edge.edges[0].properties.emplace_back("_to",
                                                 PropertyValue(int64_t{7}));

  CancelToken never;
  std::unique_ptr<GraphEngine> engines[2];
  for (int i = 0; i < 2; ++i) {
    EngineOptions options;
    options.bulk_load_mode =
        i == 0 ? BulkLoadMode::kNative : BulkLoadMode::kPerElement;
    for (const GraphData* bad : {&reserved_vertex, &reserved_edge}) {
      auto rejecting = OpenEngine("arango", options);
      ASSERT_TRUE(rejecting.ok());
      auto loaded = (*rejecting)->BulkLoad(*bad);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << loaded.status();
      if (i == 0) {
        auto session = (*rejecting)->CreateSession();
        EXPECT_EQ((*rejecting)->CountVertices(*session, never).value(), 0u);
      }
    }
    auto engine = OpenEngine("arango", options);
    ASSERT_TRUE(engine.ok());
    engines[i] = std::move(engine).value();
    ASSERT_TRUE(engines[i]->BulkLoad(data).ok());
  }
  std::unique_ptr<QuerySession> sessions[2] = {engines[0]->CreateSession(),
                                               engines[1]->CreateSession()};
  auto nv = engines[0]->GetVertex(*sessions[0], 0);
  auto pv = engines[1]->GetVertex(*sessions[1], 0);
  ASSERT_TRUE(nv.ok() && pv.ok());
  EXPECT_EQ(nv->label, pv->label);
  EXPECT_EQ(Normalize(nv->properties), Normalize(pv->properties));
  auto ne = engines[0]->GetEdge(*sessions[0], 0);
  auto pe = engines[1]->GetEdge(*sessions[1], 0);
  ASSERT_TRUE(ne.ok() && pe.ok());
  EXPECT_EQ(ne->label, pe->label);
  EXPECT_EQ(ne->src, pe->src);
  EXPECT_EQ(ne->dst, pe->dst);
  EXPECT_EQ(Normalize(ne->properties), Normalize(pe->properties));
}

// --- Runner-side validation -------------------------------------------------

TEST(RunnerLoadValidationTest, RejectsDanglingEdgeWithDiagnostic) {
  GraphData data;
  data.name = "dangling";
  data.vertices.push_back({"n", {}});
  data.vertices.push_back({"n", {}});
  data.edges.push_back({0, 5, "l", {}});  // dst out of range

  core::RunnerOptions options;
  options.enable_cost_model = false;
  core::Runner runner(options);
  for (const std::string& engine :
       {std::string("neo19"), std::string("sqlg"), std::string("blaze")}) {
    auto loaded = runner.Load(engine, data);
    ASSERT_FALSE(loaded.ok()) << engine;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status();
    // The message names the edge and the offending endpoint.
    EXPECT_NE(loaded.status().ToString().find("edge 0"), std::string::npos)
        << loaded.status();
    EXPECT_NE(loaded.status().ToString().find("dst=5"), std::string::npos)
        << loaded.status();
  }
}

TEST(RunnerLoadValidationTest, DirectBulkLoadAlsoValidates) {
  GraphData data;
  data.vertices.push_back({"n", {}});
  data.edges.push_back({7, 0, "l", {}});  // src out of range
  RegisterBuiltinEngines();
  for (BulkLoadMode mode : {BulkLoadMode::kNative, BulkLoadMode::kPerElement}) {
    EngineOptions options;
    options.bulk_load_mode = mode;
    auto engine = OpenEngine("orient", options);
    ASSERT_TRUE(engine.ok());
    auto mapping = (*engine)->BulkLoad(data);
    ASSERT_FALSE(mapping.ok());
    EXPECT_EQ(mapping.status().code(), StatusCode::kInvalidArgument)
        << mapping.status();
  }
}

}  // namespace
}  // namespace gdbmicro
