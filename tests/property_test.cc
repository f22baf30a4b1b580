// Property-based tests: long random operation sequences applied
// simultaneously to every engine and to a simple in-memory reference
// model; after every batch of operations the observable state (counts,
// lookups, adjacency, search results) must match the model exactly.
// This is the strongest conformance check in the suite — it exercises
// interleavings (delete-then-reuse, property churn on shared chains,
// cascades) that the unit tests cannot enumerate.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/graph/registry.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace gdbmicro {
namespace {

/// The reference model: the obvious std-container implementation of the
/// property-graph semantics.
class ModelGraph {
 public:
  struct Vertex {
    std::string label;
    PropertyMap props;
  };
  struct Edge {
    VertexId src, dst;
    std::string label;
    PropertyMap props;
  };

  uint64_t AddVertex(std::string label, PropertyMap props) {
    uint64_t id = next_++;
    vertices_[id] = Vertex{std::move(label), std::move(props)};
    return id;
  }

  uint64_t AddEdge(uint64_t src, uint64_t dst, std::string label,
                   PropertyMap props) {
    uint64_t id = next_++;
    edges_[id] = Edge{src, dst, std::move(label), std::move(props)};
    return id;
  }

  void RemoveEdge(uint64_t e) { edges_.erase(e); }

  void RemoveVertex(uint64_t v) {
    vertices_.erase(v);
    for (auto it = edges_.begin(); it != edges_.end();) {
      if (it->second.src == v || it->second.dst == v) {
        it = edges_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::multiset<uint64_t> Neighbors(uint64_t v, Direction dir) const {
    std::multiset<uint64_t> out;
    for (const auto& [id, e] : edges_) {
      if (e.src == v && e.dst == v) {
        out.insert(v);  // self-loop: once, in every direction
        continue;
      }
      if ((dir == Direction::kOut || dir == Direction::kBoth) && e.src == v) {
        out.insert(e.dst);
      }
      if ((dir == Direction::kIn || dir == Direction::kBoth) && e.dst == v) {
        out.insert(e.src);
      }
    }
    return out;
  }

  std::set<uint64_t> FindByProp(const std::string& key,
                                const PropertyValue& value) const {
    std::set<uint64_t> out;
    for (const auto& [id, v] : vertices_) {
      const PropertyValue* p = FindProperty(v.props, key);
      if (p != nullptr && *p == value) out.insert(id);
    }
    return out;
  }

  std::map<uint64_t, Vertex> vertices_;
  std::map<uint64_t, Edge> edges_;
  uint64_t next_ = 0;
};

class PropertyChurnTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PropertyChurnTest, RandomOpsMatchReferenceModel) {
  RegisterBuiltinEngines();
  auto engine_or = OpenEngine(GetParam(), EngineOptions{});
  ASSERT_TRUE(engine_or.ok());
  std::unique_ptr<GraphEngine> engine = std::move(engine_or).value();
  std::unique_ptr<QuerySession> session = engine->CreateSession();
  ModelGraph model;
  CancelToken never;
  Rng rng(0xC0FFEE ^ HashBytes(GetParam()));

  // model id -> engine id (engines assign their own ids).
  std::map<uint64_t, VertexId> v_id;
  std::map<uint64_t, EdgeId> e_id;

  const char* kLabels[] = {"alpha", "beta", "gamma"};
  const char* kKeys[] = {"k1", "k2", "k3"};

  auto random_model_vertex = [&]() -> uint64_t {
    if (model.vertices_.empty()) return ~0ULL;
    auto it = model.vertices_.begin();
    std::advance(it, static_cast<long>(rng.Uniform(model.vertices_.size())));
    return it->first;
  };
  // The oldest live vertex is the hub: a third of new edge endpoints go to
  // it, so its row interleaves out and in entries, tombstones and
  // self-loops.
  auto hub_model_vertex = [&]() -> uint64_t {
    return model.vertices_.empty() ? ~0ULL : model.vertices_.begin()->first;
  };
  auto random_endpoint = [&]() -> uint64_t {
    return rng.Chance(1.0 / 3) ? hub_model_vertex() : random_model_vertex();
  };
  auto random_model_edge = [&]() -> uint64_t {
    if (model.edges_.empty()) return ~0ULL;
    auto it = model.edges_.begin();
    std::advance(it, static_cast<long>(rng.Uniform(model.edges_.size())));
    return it->first;
  };
  auto random_value = [&]() -> PropertyValue {
    switch (rng.Uniform(4)) {
      case 0:
        return PropertyValue(static_cast<int64_t>(rng.Uniform(5)));
      case 1:
        return PropertyValue(rng.Chance(0.5));
      case 2:
        return PropertyValue(static_cast<double>(rng.Uniform(8)) / 2.0);
      default:
        return PropertyValue(std::string(1 + rng.Uniform(6), 'x'));
    }
  };
  // Property multiset equality (order may differ).
  auto sorted = [](PropertyMap props) {
    std::sort(props.begin(), props.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return props;
  };

  const int kOps = 600;
  for (int op = 0; op < kOps; ++op) {
    switch (rng.Uniform(10)) {
      case 0:
      case 1: {  // add vertex
        PropertyMap props;
        if (rng.Chance(0.7)) {
          props.emplace_back(kKeys[rng.Uniform(3)], random_value());
        }
        const char* label = kLabels[rng.Uniform(3)];
        uint64_t m = model.AddVertex(label, props);
        auto id = engine->AddVertex(label, props);
        ASSERT_TRUE(id.ok());
        v_id[m] = *id;
        break;
      }
      case 2:
      case 3:
      case 4: {  // add edge
        uint64_t a = random_endpoint();
        uint64_t b = random_endpoint();
        if (a == ~0ULL || b == ~0ULL) break;
        PropertyMap props;
        if (rng.Chance(0.4)) {
          props.emplace_back(kKeys[rng.Uniform(3)], random_value());
        }
        const char* label = kLabels[rng.Uniform(3)];
        uint64_t m = model.AddEdge(a, b, label, props);
        auto id = engine->AddEdge(v_id[a], v_id[b], label, props);
        ASSERT_TRUE(id.ok());
        e_id[m] = *id;
        break;
      }
      case 5: {  // set vertex property
        uint64_t m = random_model_vertex();
        if (m == ~0ULL) break;
        const char* key = kKeys[rng.Uniform(3)];
        PropertyValue value = random_value();
        SetProperty(&model.vertices_[m].props, key, value);
        ASSERT_TRUE(engine->SetVertexProperty(v_id[m], key, value).ok());
        break;
      }
      case 6: {  // remove vertex property
        uint64_t m = random_model_vertex();
        if (m == ~0ULL) break;
        const char* key = kKeys[rng.Uniform(3)];
        bool existed = EraseProperty(&model.vertices_[m].props, key);
        Status s = engine->RemoveVertexProperty(v_id[m], key);
        ASSERT_EQ(s.ok(), existed) << s;
        break;
      }
      case 7: {  // remove edge
        uint64_t m = random_model_edge();
        if (m == ~0ULL) break;
        model.RemoveEdge(m);
        EdgeId e = e_id[m];
        ASSERT_TRUE(engine->RemoveEdge(e).ok());
        e_id.erase(m);
        // Checked now: engines that reuse freed record slots may hand the
        // id out again to a later edge.
        EXPECT_FALSE(engine->GetEdge(*session, e).ok()) << GetParam();
        EXPECT_FALSE(engine->GetEdgeEnds(*session, e).ok()) << GetParam();
        EXPECT_FALSE(engine->RemoveEdge(e).ok()) << GetParam();
        break;
      }
      case 8: {  // remove vertex (cascades)
        uint64_t m = random_model_vertex();
        if (m == ~0ULL) break;
        // Track which edges die with it.
        std::vector<EdgeId> cascaded;
        for (auto it = model.edges_.begin(); it != model.edges_.end(); ++it) {
          if (it->second.src == m || it->second.dst == m) {
            cascaded.push_back(e_id[it->first]);
            e_id.erase(it->first);
          }
        }
        model.RemoveVertex(m);
        ASSERT_TRUE(engine->RemoveVertex(v_id[m]).ok());
        v_id.erase(m);
        for (EdgeId e : cascaded) {
          EXPECT_FALSE(engine->GetEdgeEnds(*session, e).ok()) << GetParam();
        }
        break;
      }
      case 9: {  // set edge property
        uint64_t m = random_model_edge();
        if (m == ~0ULL) break;
        const char* key = kKeys[rng.Uniform(3)];
        PropertyValue value = random_value();
        SetProperty(&model.edges_[m].props, key, value);
        ASSERT_TRUE(engine->SetEdgeProperty(e_id[m], key, value).ok());
        break;
      }
    }

    // Periodic deep check.
    if (op % 50 == 49) {
      ASSERT_EQ(engine->CountVertices(*session, never).value(),
                model.vertices_.size());
      ASSERT_EQ(engine->CountEdges(*session, never).value(), model.edges_.size());
      // Adjacency of the hub and five random vertices, all directions.
      for (int probe = 0; probe < 6; ++probe) {
        uint64_t m = probe == 0 ? hub_model_vertex() : random_model_vertex();
        if (m == ~0ULL) break;
        for (Direction dir :
             {Direction::kIn, Direction::kOut, Direction::kBoth}) {
          auto got = engine->NeighborsOf(*session, v_id[m], dir, nullptr, never);
          ASSERT_TRUE(got.ok());
          std::multiset<uint64_t> got_model_ids;
          for (VertexId g : *got) {
            // Reverse-translate engine id -> model id.
            bool found = false;
            for (const auto& [mm, ee] : v_id) {
              if (ee == g) {
                got_model_ids.insert(mm);
                found = true;
                break;
              }
            }
            ASSERT_TRUE(found) << "engine returned unknown vertex";
          }
          ASSERT_EQ(got_model_ids, model.Neighbors(m, dir))
              << GetParam() << " op " << op << " dir "
              << DirectionToString(dir);
        }
      }
      // Property search.
      const char* key = kKeys[rng.Uniform(3)];
      PropertyValue value = random_value();
      auto found = engine->FindVerticesByProperty(*session, key, value, never);
      ASSERT_TRUE(found.ok());
      std::set<uint64_t> got_models;
      for (VertexId g : *found) {
        for (const auto& [mm, ee] : v_id) {
          if (ee == g) got_models.insert(mm);
        }
      }
      ASSERT_EQ(got_models, model.FindByProp(key, value));
      // Full vertex materialization of one random vertex.
      uint64_t m = random_model_vertex();
      if (m != ~0ULL) {
        auto rec = engine->GetVertex(*session, v_id[m]);
        ASSERT_TRUE(rec.ok());
        EXPECT_EQ(rec->label, model.vertices_[m].label);
        EXPECT_EQ(sorted(rec->properties),
                  sorted(model.vertices_[m].props));
      }
      // Five random live edges, materialized with and without properties.
      for (int probe = 0; probe < 5; ++probe) {
        uint64_t me = random_model_edge();
        if (me == ~0ULL) break;
        const ModelGraph::Edge& want = model.edges_[me];
        auto edge = engine->GetEdge(*session, e_id[me]);
        ASSERT_TRUE(edge.ok()) << GetParam() << " op " << op;
        EXPECT_EQ(edge->src, v_id[want.src]);
        EXPECT_EQ(edge->dst, v_id[want.dst]);
        EXPECT_EQ(edge->label, want.label);
        EXPECT_EQ(sorted(edge->properties), sorted(want.props));
        auto ends = engine->GetEdgeEnds(*session, e_id[me]);
        ASSERT_TRUE(ends.ok()) << GetParam() << " op " << op;
        EXPECT_EQ(ends->src, v_id[want.src]);
        EXPECT_EQ(ends->dst, v_id[want.dst]);
        EXPECT_EQ(ends->label, want.label);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, PropertyChurnTest,
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace gdbmicro
