// Cross-engine conformance: every engine variant must implement identical
// property-graph semantics — only performance may differ. The fixture is
// parameterized over all nine registered engines and checks CRUD
// behaviour, scans, traversal primitives, deletion cascades, indexing and
// checkpointing against hand-computed expectations and against a seeded
// random reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/datasets/generators.h"
#include "src/datasets/workload.h"
#include "src/graph/registry.h"
#include "src/query/algorithms.h"

namespace gdbmicro {
namespace {

class EngineTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    RegisterBuiltinEngines();
    EngineOptions options;  // no cost model, no memory budget in unit tests
    auto engine = OpenEngine(GetParam(), options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();
    session_ = engine_->CreateSession();
  }

  std::unique_ptr<GraphEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  CancelToken never_;
};

TEST_P(EngineTest, InfoIsPopulated) {
  EngineInfo info = engine_->info();
  EXPECT_EQ(info.name, GetParam());
  EXPECT_FALSE(info.emulates.empty());
  EXPECT_FALSE(info.storage.empty());
}

TEST_P(EngineTest, AddAndGetVertex) {
  PropertyMap props;
  props.emplace_back("name", PropertyValue("ada"));
  props.emplace_back("age", PropertyValue(int64_t{36}));
  auto id = engine_->AddVertex("person", props);
  ASSERT_TRUE(id.ok()) << id.status();

  auto rec = engine_->GetVertex(*session_, *id);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->label, "person");
  const PropertyValue* name = FindProperty(rec->properties, "name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string_value(), "ada");
  const PropertyValue* age = FindProperty(rec->properties, "age");
  ASSERT_NE(age, nullptr);
  EXPECT_EQ(age->int_value(), 36);
}

TEST_P(EngineTest, GetMissingVertexFails) {
  auto rec = engine_->GetVertex(*session_, 987654);
  EXPECT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsNotFound());
}

TEST_P(EngineTest, AddEdgeRequiresEndpoints) {
  auto v = engine_->AddVertex("a", {});
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(engine_->AddEdge(*v, 424242, "l", {}).ok());
  EXPECT_FALSE(engine_->AddEdge(424242, *v, "l", {}).ok());
}

TEST_P(EngineTest, AddAndGetEdgeWithProperties) {
  auto a = engine_->AddVertex("a", {});
  auto b = engine_->AddVertex("b", {});
  ASSERT_TRUE(a.ok() && b.ok());
  PropertyMap props;
  props.emplace_back("weight", PropertyValue(2.5));
  auto e = engine_->AddEdge(*a, *b, "likes", props);
  ASSERT_TRUE(e.ok()) << e.status();

  auto rec = engine_->GetEdge(*session_, *e);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->src, *a);
  EXPECT_EQ(rec->dst, *b);
  EXPECT_EQ(rec->label, "likes");
  const PropertyValue* w = FindProperty(rec->properties, "weight");
  ASSERT_NE(w, nullptr);
  EXPECT_DOUBLE_EQ(w->double_value(), 2.5);

  auto ends = engine_->GetEdgeEnds(*session_, *e);
  ASSERT_TRUE(ends.ok());
  EXPECT_EQ(ends->src, *a);
  EXPECT_EQ(ends->dst, *b);
  EXPECT_EQ(ends->label, "likes");
}

TEST_P(EngineTest, CountsTrackMutations) {
  auto a = engine_->AddVertex("x", {});
  auto b = engine_->AddVertex("x", {});
  auto c = engine_->AddVertex("x", {});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(engine_->AddEdge(*a, *b, "e", {}).ok());
  ASSERT_TRUE(engine_->AddEdge(*b, *c, "e", {}).ok());

  EXPECT_EQ(engine_->CountVertices(*session_, never_).value(), 3u);
  EXPECT_EQ(engine_->CountEdges(*session_, never_).value(), 2u);

  ASSERT_TRUE(engine_->RemoveVertex(*b).ok());  // removes both edges
  EXPECT_EQ(engine_->CountVertices(*session_, never_).value(), 2u);
  EXPECT_EQ(engine_->CountEdges(*session_, never_).value(), 0u);
}

TEST_P(EngineTest, SetAndUpdateVertexProperty) {
  auto v = engine_->AddVertex("n", {});
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(engine_->SetVertexProperty(*v, "k", PropertyValue(int64_t{1})).ok());
  ASSERT_TRUE(engine_->SetVertexProperty(*v, "k", PropertyValue(int64_t{2})).ok());
  auto rec = engine_->GetVertex(*session_, *v);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->properties.size(), 1u);
  EXPECT_EQ(rec->properties[0].second.int_value(), 2);
}

TEST_P(EngineTest, SetAndUpdateEdgeProperty) {
  auto a = engine_->AddVertex("n", {});
  auto b = engine_->AddVertex("n", {});
  auto e = engine_->AddEdge(*a, *b, "l", {});
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(engine_->SetEdgeProperty(*e, "w", PropertyValue("x")).ok());
  ASSERT_TRUE(engine_->SetEdgeProperty(*e, "w", PropertyValue("y")).ok());
  auto rec = engine_->GetEdge(*session_, *e);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->properties.size(), 1u);
  EXPECT_EQ(rec->properties[0].second.string_value(), "y");
}

TEST_P(EngineTest, RemoveProperties) {
  PropertyMap props;
  props.emplace_back("a", PropertyValue(int64_t{1}));
  props.emplace_back("b", PropertyValue(int64_t{2}));
  auto v = engine_->AddVertex("n", props);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(engine_->RemoveVertexProperty(*v, "a").ok());
  auto rec = engine_->GetVertex(*session_, *v);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->properties.size(), 1u);
  EXPECT_EQ(FindProperty(rec->properties, "a"), nullptr);
  EXPECT_NE(FindProperty(rec->properties, "b"), nullptr);
  // Removing again fails.
  EXPECT_FALSE(engine_->RemoveVertexProperty(*v, "a").ok());

  auto b2 = engine_->AddVertex("n", {});
  auto e = engine_->AddEdge(*v, *b2, "l", props);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(engine_->RemoveEdgeProperty(*e, "b").ok());
  auto erec = engine_->GetEdge(*session_, *e);
  ASSERT_TRUE(erec.ok());
  EXPECT_EQ(erec->properties.size(), 1u);
  EXPECT_EQ(FindProperty(erec->properties, "b"), nullptr);
}

TEST_P(EngineTest, RemoveEdgeLeavesVertices) {
  auto a = engine_->AddVertex("n", {});
  auto b = engine_->AddVertex("n", {});
  auto e = engine_->AddEdge(*a, *b, "l", {});
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(engine_->RemoveEdge(*e).ok());
  EXPECT_FALSE(engine_->GetEdge(*session_, *e).ok());
  EXPECT_TRUE(engine_->GetVertex(*session_, *a).ok());
  EXPECT_TRUE(engine_->GetVertex(*session_, *b).ok());
  auto edges = engine_->EdgesOf(*session_, *a, Direction::kBoth, nullptr, never_);
  ASSERT_TRUE(edges.ok());
  EXPECT_TRUE(edges->empty());
  // Double remove fails.
  EXPECT_FALSE(engine_->RemoveEdge(*e).ok());
}

TEST_P(EngineTest, DirectionalTraversal) {
  auto a = engine_->AddVertex("n", {});
  auto b = engine_->AddVertex("n", {});
  auto c = engine_->AddVertex("n", {});
  ASSERT_TRUE(engine_->AddEdge(*a, *b, "x", {}).ok());
  ASSERT_TRUE(engine_->AddEdge(*c, *a, "y", {}).ok());

  auto out = engine_->NeighborsOf(*session_, *a, Direction::kOut, nullptr, never_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, std::vector<VertexId>{*b});

  auto in = engine_->NeighborsOf(*session_, *a, Direction::kIn, nullptr, never_);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(*in, std::vector<VertexId>{*c});

  auto both = engine_->NeighborsOf(*session_, *a, Direction::kBoth, nullptr, never_);
  ASSERT_TRUE(both.ok());
  std::set<VertexId> both_set(both->begin(), both->end());
  EXPECT_EQ(both_set, (std::set<VertexId>{*b, *c}));

  EXPECT_EQ(engine_->CountEdgesOf(*session_, *a, Direction::kOut, never_).value(), 1u);
  EXPECT_EQ(engine_->CountEdgesOf(*session_, *a, Direction::kIn, never_).value(), 1u);
  EXPECT_EQ(engine_->CountEdgesOf(*session_, *a, Direction::kBoth, never_).value(), 2u);
}

TEST_P(EngineTest, LabelFilteredTraversal) {
  auto a = engine_->AddVertex("n", {});
  auto b = engine_->AddVertex("n", {});
  auto c = engine_->AddVertex("n", {});
  ASSERT_TRUE(engine_->AddEdge(*a, *b, "red", {}).ok());
  ASSERT_TRUE(engine_->AddEdge(*a, *c, "blue", {}).ok());

  std::string red = "red";
  auto red_out = engine_->NeighborsOf(*session_, *a, Direction::kBoth, &red, never_);
  ASSERT_TRUE(red_out.ok());
  EXPECT_EQ(*red_out, std::vector<VertexId>{*b});

  std::string missing = "nope";
  auto none = engine_->NeighborsOf(*session_, *a, Direction::kBoth, &missing, never_);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_P(EngineTest, SelfLoopCountsOnceInBoth) {
  auto a = engine_->AddVertex("n", {});
  auto e = engine_->AddEdge(*a, *a, "self", {});
  ASSERT_TRUE(e.ok()) << e.status();
  auto both = engine_->EdgesOf(*session_, *a, Direction::kBoth, nullptr, never_);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->size(), 1u);
  auto nbrs = engine_->NeighborsOf(*session_, *a, Direction::kBoth, nullptr, never_);
  ASSERT_TRUE(nbrs.ok());
  EXPECT_EQ(*nbrs, std::vector<VertexId>{*a});
}

TEST_P(EngineTest, ParallelEdgesAreDistinct) {
  auto a = engine_->AddVertex("n", {});
  auto b = engine_->AddVertex("n", {});
  auto e1 = engine_->AddEdge(*a, *b, "l", {});
  auto e2 = engine_->AddEdge(*a, *b, "l", {});
  ASSERT_TRUE(e1.ok() && e2.ok());
  EXPECT_NE(*e1, *e2);
  auto edges = engine_->EdgesOf(*session_, *a, Direction::kOut, nullptr, never_);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->size(), 2u);
  EXPECT_EQ(engine_->CountEdges(*session_, never_).value(), 2u);
}

TEST_P(EngineTest, DistinctEdgeLabels) {
  auto a = engine_->AddVertex("n", {});
  auto b = engine_->AddVertex("n", {});
  ASSERT_TRUE(engine_->AddEdge(*a, *b, "z", {}).ok());
  ASSERT_TRUE(engine_->AddEdge(*b, *a, "a", {}).ok());
  ASSERT_TRUE(engine_->AddEdge(*a, *b, "z", {}).ok());
  auto labels = engine_->DistinctEdgeLabels(*session_, never_);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, (std::vector<std::string>{"a", "z"}));
}

TEST_P(EngineTest, FindByPropertyAndLabel) {
  PropertyMap red;
  red.emplace_back("color", PropertyValue("red"));
  PropertyMap blue;
  blue.emplace_back("color", PropertyValue("blue"));
  auto a = engine_->AddVertex("n", red);
  auto b = engine_->AddVertex("n", blue);
  auto c = engine_->AddVertex("n", red);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(engine_->AddEdge(*a, *b, "l1", red).ok());
  ASSERT_TRUE(engine_->AddEdge(*b, *c, "l2", blue).ok());

  auto found = engine_->FindVerticesByProperty(*session_, "color", PropertyValue("red"),
                                               never_);
  ASSERT_TRUE(found.ok());
  std::set<VertexId> found_set(found->begin(), found->end());
  EXPECT_EQ(found_set, (std::set<VertexId>{*a, *c}));

  auto edges =
      engine_->FindEdgesByProperty(*session_, "color", PropertyValue("blue"), never_);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->size(), 1u);

  auto by_label = engine_->FindEdgesByLabel(*session_, "l1", never_);
  ASSERT_TRUE(by_label.ok());
  EXPECT_EQ(by_label->size(), 1u);

  auto none = engine_->FindVerticesByProperty(*session_, "color", PropertyValue("green"),
                                              never_);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_P(EngineTest, PropertyIndexPreservesResults) {
  for (int i = 0; i < 50; ++i) {
    PropertyMap props;
    props.emplace_back("bucket", PropertyValue(static_cast<int64_t>(i % 7)));
    ASSERT_TRUE(engine_->AddVertex("n", props).ok());
  }
  auto before = engine_->FindVerticesByProperty(*session_, 
      "bucket", PropertyValue(int64_t{3}), never_);
  ASSERT_TRUE(before.ok());

  Status s = engine_->CreateVertexPropertyIndex("bucket");
  if (s.IsUnimplemented()) {
    GTEST_SKIP() << GetParam() << " offers no user attribute indexes";
  }
  ASSERT_TRUE(s.ok()) << s;
  auto after = engine_->FindVerticesByProperty(*session_, 
      "bucket", PropertyValue(int64_t{3}), never_);
  ASSERT_TRUE(after.ok());
  std::set<VertexId> b(before->begin(), before->end());
  std::set<VertexId> a(after->begin(), after->end());
  EXPECT_EQ(a, b);

  // Index must track subsequent mutations.
  PropertyMap props;
  props.emplace_back("bucket", PropertyValue(int64_t{3}));
  auto extra = engine_->AddVertex("n", props);
  ASSERT_TRUE(extra.ok());
  auto updated = engine_->FindVerticesByProperty(*session_, 
      "bucket", PropertyValue(int64_t{3}), never_);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->size(), b.size() + 1);
}

// Every kind of vertex write keeps an index exact: after each write, the
// search for every bucket value, including the one the write took away
// and the one it added, equals a scan of the GetVertex records.
TEST_P(EngineTest, PropertyIndexTracksWrites) {
  std::vector<VertexId> v;
  for (int i = 0; i < 12; ++i) {
    PropertyMap props;
    props.emplace_back("rank", PropertyValue(static_cast<int64_t>(i)));
    if (i % 4 != 3) {
      props.emplace_back("bucket", PropertyValue(static_cast<int64_t>(i % 3)));
    }
    auto id = engine_->AddVertex("n", props);
    ASSERT_TRUE(id.ok()) << id.status();
    v.push_back(*id);
  }
  Status s = engine_->CreateVertexPropertyIndex("bucket");
  if (s.IsUnimplemented()) {
    GTEST_SKIP() << GetParam() << " offers no user attribute indexes";
  }
  ASSERT_TRUE(s.ok()) << s;

  auto expect_exact = [&](const std::string& after) {
    for (int64_t bucket : {0, 1, 2, 7}) {
      const PropertyValue value(bucket);
      std::set<VertexId> want;
      Status scanned = engine_->ScanVertices(*session_, never_, [&](VertexId id) {
        auto rec = engine_->GetVertex(*session_, id);
        EXPECT_TRUE(rec.ok()) << rec.status();
        if (rec.ok()) {
          const PropertyValue* p = FindProperty(rec->properties, "bucket");
          if (p != nullptr && *p == value) want.insert(id);
        }
        return true;
      });
      ASSERT_TRUE(scanned.ok()) << scanned;
      auto found =
          engine_->FindVerticesByProperty(*session_, "bucket", value, never_);
      ASSERT_TRUE(found.ok()) << found.status();
      EXPECT_EQ(std::set<VertexId>(found->begin(), found->end()), want)
          << "bucket=" << bucket << " after " << after;
    }
  };
  // v[0] holds bucket 0, v[1] 1, v[2] 2, and v[3] has no bucket.
  ASSERT_TRUE(
      engine_->SetVertexProperty(v[0], "bucket", PropertyValue(int64_t{7})).ok());
  expect_exact("overwriting 0 with 7");
  ASSERT_TRUE(
      engine_->SetVertexProperty(v[3], "bucket", PropertyValue(int64_t{0})).ok());
  expect_exact("setting the key on a vertex without it");
  ASSERT_TRUE(engine_->RemoveVertexProperty(v[1], "bucket").ok());
  expect_exact("removing the property");
  ASSERT_TRUE(engine_->RemoveVertex(v[2]).ok());
  expect_exact("removing a vertex");
}

TEST_P(EngineTest, ScansVisitEverything) {
  constexpr int kV = 30, kE = 45;
  std::vector<VertexId> vertices;
  for (int i = 0; i < kV; ++i) {
    auto v = engine_->AddVertex("n", {});
    ASSERT_TRUE(v.ok());
    vertices.push_back(*v);
  }
  std::set<EdgeId> edges;
  for (int i = 0; i < kE; ++i) {
    auto e = engine_->AddEdge(vertices[i % kV], vertices[(i * 7 + 1) % kV],
                              i % 2 ? "odd" : "even", {});
    ASSERT_TRUE(e.ok());
    edges.insert(*e);
  }
  std::set<VertexId> seen_v;
  ASSERT_TRUE(engine_->ScanVertices(*session_, never_, [&](VertexId id) {
    seen_v.insert(id);
    return true;
  }).ok());
  EXPECT_EQ(seen_v.size(), static_cast<size_t>(kV));

  std::set<EdgeId> seen_e;
  ASSERT_TRUE(engine_->ScanEdges(*session_, never_, [&](const EdgeEnds& e) {
    seen_e.insert(e.id);
    return true;
  }).ok());
  EXPECT_EQ(seen_e, edges);
}

TEST_P(EngineTest, ScanCancellation) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine_->AddVertex("n", {}).ok());
  }
  CancelToken cancelled;
  cancelled.Cancel();
  uint64_t visited = 0;
  Status s = engine_->ScanVertices(*session_, cancelled, [&](VertexId) {
    ++visited;
    return true;
  });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
  EXPECT_EQ(visited, 0u);
}

TEST_P(EngineTest, CheckpointImageIsNotEmpty) {
  auto a = engine_->AddVertex("n", {{{"k", PropertyValue("v")}}});
  auto b = engine_->AddVertex("n", {});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(engine_->AddEdge(*a, *b, "l", {}).ok());
  EXPECT_GT(engine_->CheckpointBytes(), 0u);
}

TEST_P(EngineTest, MemoryBytesIsPositiveAfterLoad) {
  auto a = engine_->AddVertex("n", {});
  auto b = engine_->AddVertex("n", {});
  ASSERT_TRUE(engine_->AddEdge(*a, *b, "l", {}).ok());
  EXPECT_GT(engine_->MemoryBytes(), 0u);
}

// --- checkpoint image (paper Fig. 1) --------------------------------------

// Pins every engine's Fig. 1 number. ldbc 0.005 (properties on vertices
// and on edges) is loaded natively and gets the Q11 property index where
// the engine has one. Then one vertex property is overwritten by an
// 80-byte string (orient's superseded version, neo's overflow string),
// one edge is removed and one vertex is removed (neo's freed slots,
// titan's tombstones). The literals were recorded as the summed sizes of
// the checkpoint files the engines wrote before the images were counted in
// memory; sqlg's adds the page its attribute index fills (a 3,179-byte
// section). A change that moves one moves Fig. 1.
using CheckpointBytesTest = EngineTest;

TEST_P(CheckpointBytesTest, LdbcAfterWritesMatchesRecordedBytes) {
  static const std::map<std::string, uint64_t> kRecorded = {
      {"arango", 154171}, {"blaze", 8981906},  {"neo19", 325263},
      {"neo30", 360917},  {"orient", 252749},  {"sparksee", 72494},
      {"sqlg", 303228},   {"titan05", 69408},  {"titan10", 69408}};
  datasets::GenOptions gen;
  gen.scale = 0.005;
  GraphData data = datasets::GenerateLdbc(gen);
  auto mapping = engine_->BulkLoad(data);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  datasets::Workload workload(&data, &*mapping, 42);
  const std::string key = workload.VertexProperty(0).first;
  Status indexed = engine_->CreateVertexPropertyIndex(key);
  EXPECT_TRUE(indexed.ok() || indexed.IsUnimplemented()) << indexed;
  ASSERT_TRUE(engine_
                  ->SetVertexProperty(mapping->vertex_ids[0], key,
                                      PropertyValue(std::string(80, 'u')))
                  .ok());
  ASSERT_TRUE(engine_->RemoveEdge(mapping->edge_ids[0]).ok());
  ASSERT_TRUE(engine_->RemoveVertex(mapping->vertex_ids[1]).ok());
  EXPECT_EQ(engine_->CheckpointBytes(), kRecorded.at(GetParam()));
}

// --- adjacency visitors ---------------------------------------------------

// Builds the visitor-stress fixture: self-loop, parallel edges, two edge
// labels, and both directions populated. Returns the vertex ids.
std::vector<VertexId> BuildVisitorGraph(GraphEngine* engine) {
  std::vector<VertexId> v;
  for (int i = 0; i < 4; ++i) {
    auto id = engine->AddVertex("n", {});
    EXPECT_TRUE(id.ok());
    v.push_back(*id);
  }
  EXPECT_TRUE(engine->AddEdge(v[0], v[1], "red", {}).ok());
  EXPECT_TRUE(engine->AddEdge(v[0], v[1], "red", {}).ok());  // parallel
  EXPECT_TRUE(engine->AddEdge(v[0], v[2], "blue", {}).ok());
  EXPECT_TRUE(engine->AddEdge(v[2], v[0], "red", {}).ok());
  EXPECT_TRUE(engine->AddEdge(v[3], v[0], "blue", {}).ok());
  EXPECT_TRUE(engine->AddEdge(v[0], v[0], "red", {}).ok());  // self-loop
  return v;
}

TEST_P(EngineTest, VisitorMatchesVectorWrappers) {
  std::vector<VertexId> v = BuildVisitorGraph(engine_.get());
  std::string red = "red", missing = "nope";
  const std::string* filters[] = {nullptr, &red, &missing};
  for (VertexId probe : v) {
    for (Direction dir :
         {Direction::kOut, Direction::kIn, Direction::kBoth}) {
      for (const std::string* label : filters) {
        auto edges = engine_->EdgesOf(*session_, probe, dir, label, never_);
        ASSERT_TRUE(edges.ok()) << edges.status();
        std::multiset<EdgeId> streamed_edges;
        ASSERT_TRUE(engine_
                        ->ForEachEdgeOf(*session_, probe, dir, label, never_,
                                        [&](EdgeId e) {
                                          streamed_edges.insert(e);
                                          return true;
                                        })
                        .ok());
        EXPECT_EQ(streamed_edges,
                  std::multiset<EdgeId>(edges->begin(), edges->end()))
            << "dir " << static_cast<int>(dir);

        auto nbrs = engine_->NeighborsOf(*session_, probe, dir, label, never_);
        ASSERT_TRUE(nbrs.ok()) << nbrs.status();
        std::multiset<VertexId> streamed_nbrs;
        ASSERT_TRUE(engine_
                        ->ForEachNeighbor(*session_, probe, dir, label, never_,
                                          [&](VertexId n) {
                                            streamed_nbrs.insert(n);
                                            return true;
                                          })
                        .ok());
        EXPECT_EQ(streamed_nbrs,
                  std::multiset<VertexId>(nbrs->begin(), nbrs->end()))
            << "dir " << static_cast<int>(dir);
      }
    }
  }
}

TEST_P(EngineTest, VisitorEarlyStopVisitsExactlyOne) {
  std::vector<VertexId> v = BuildVisitorGraph(engine_.get());
  uint64_t visits = 0;
  Status s = engine_->ForEachEdgeOf(*session_, v[0], Direction::kBoth, nullptr, never_,
                                    [&](EdgeId) {
                                      ++visits;
                                      return false;  // stop immediately
                                    });
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(visits, 1u);

  visits = 0;
  s = engine_->ForEachNeighbor(*session_, v[0], Direction::kBoth, nullptr, never_,
                               [&](VertexId) {
                                 ++visits;
                                 return false;
                               });
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(visits, 1u);
}

TEST_P(EngineTest, VisitorCancellationMidVisit) {
  std::vector<VertexId> v = BuildVisitorGraph(engine_.get());
  // v0 has six incident edges; cancelling inside the first visit must
  // stop the walk before a second one.
  CancelToken token;
  uint64_t visits = 0;
  Status s = engine_->ForEachEdgeOf(*session_, v[0], Direction::kBoth, nullptr, token,
                                    [&](EdgeId) {
                                      ++visits;
                                      token.Cancel();
                                      return true;  // walk decides to stop
                                    });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
  EXPECT_EQ(visits, 1u);

  // An already-cancelled token visits nothing.
  CancelToken cancelled;
  cancelled.Cancel();
  visits = 0;
  s = engine_->ForEachNeighbor(*session_, v[0], Direction::kBoth, nullptr, cancelled,
                               [&](VertexId) {
                                 ++visits;
                                 return true;
                               });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
  EXPECT_EQ(visits, 0u);
}

TEST_P(EngineTest, VisitorUnknownLabelVisitsNothing) {
  std::vector<VertexId> v = BuildVisitorGraph(engine_.get());
  std::string missing = "no-such-label";
  uint64_t visits = 0;
  Status s = engine_->ForEachEdgeOf(*session_, v[0], Direction::kBoth, &missing, never_,
                                    [&](EdgeId) {
                                      ++visits;
                                      return true;
                                    });
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(visits, 0u);
}

// --- BFS / shortest path over the visitor rewrite -------------------------

// Reference adjacency built independently of the visitors, via ScanEdges.
std::unordered_map<VertexId, std::vector<VertexId>> ReferenceAdjacency(
    GraphEngine* engine, QuerySession* session) {
  std::unordered_map<VertexId, std::vector<VertexId>> adj;
  CancelToken never;
  EXPECT_TRUE(engine
                  ->ScanEdges(*session, never,
                              [&](const EdgeEnds& e) {
                                adj[e.src].push_back(e.dst);
                                if (e.dst != e.src) {
                                  adj[e.dst].push_back(e.src);
                                }
                                return true;
                              })
                  .ok());
  return adj;
}

TEST_P(EngineTest, BfsMatchesReferenceExpansion) {
  datasets::GenOptions gen;
  gen.scale = 0.002;
  GraphData data = datasets::GenerateLdbc(gen);
  auto mapping = engine_->BulkLoad(data);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  auto adj = ReferenceAdjacency(engine_.get(), session_.get());

  for (uint64_t idx : {uint64_t{0}, uint64_t{7}, uint64_t{23}}) {
    ASSERT_LT(idx, mapping->vertex_ids.size());
    VertexId start = mapping->vertex_ids[idx];
    for (int depth : {1, 2, 4}) {
      auto got = query::BreadthFirst(*engine_, *session_, start, depth, std::nullopt,
                                     never_);
      ASSERT_TRUE(got.ok()) << got.status();
      // Reference BFS over the scan-built adjacency.
      std::unordered_set<VertexId> stored{start};
      std::vector<VertexId> frontier{start}, expect;
      int reached = 0;
      for (int d = 0; d < depth && !frontier.empty(); ++d) {
        std::vector<VertexId> next;
        for (VertexId v : frontier) {
          auto it = adj.find(v);
          if (it == adj.end()) continue;
          for (VertexId n : it->second) {
            if (stored.insert(n).second) {
              next.push_back(n);
              expect.push_back(n);
            }
          }
        }
        if (!next.empty()) reached = d + 1;
        frontier = std::move(next);
      }
      EXPECT_EQ(std::set<VertexId>(got->visited.begin(), got->visited.end()),
                std::set<VertexId>(expect.begin(), expect.end()))
          << "start " << idx << " depth " << depth;
      EXPECT_EQ(got->depth_reached, reached);
      // Gremlin store(vs) semantics: the start is never in `visited`.
      EXPECT_EQ(std::count(got->visited.begin(), got->visited.end(), start),
                0);
    }
  }
}

TEST_P(EngineTest, ShortestPathMatchesReferenceDistance) {
  datasets::GenOptions gen;
  gen.scale = 0.002;
  GraphData data = datasets::GenerateLdbc(gen);
  auto mapping = engine_->BulkLoad(data);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  auto adj = ReferenceAdjacency(engine_.get(), session_.get());

  auto ref_distance = [&](VertexId src, VertexId dst) -> int {
    if (src == dst) return 0;
    std::unordered_map<VertexId, int> dist{{src, 0}};
    std::queue<VertexId> q;
    q.push(src);
    while (!q.empty()) {
      VertexId v = q.front();
      q.pop();
      auto it = adj.find(v);
      if (it == adj.end()) continue;
      for (VertexId n : it->second) {
        if (dist.emplace(n, dist[v] + 1).second) {
          if (n == dst) return dist[v] + 1;
          q.push(n);
        }
      }
    }
    return -1;  // unreachable
  };

  const int kMaxDepth = 16;
  for (auto [a, b] : {std::pair<uint64_t, uint64_t>{0, 5},
                      std::pair<uint64_t, uint64_t>{3, 41},
                      std::pair<uint64_t, uint64_t>{11, 2}}) {
    ASSERT_LT(a, mapping->vertex_ids.size());
    ASSERT_LT(b, mapping->vertex_ids.size());
    VertexId src = mapping->vertex_ids[a], dst = mapping->vertex_ids[b];
    auto got =
        query::ShortestPath(*engine_, *session_, src, dst, std::nullopt, kMaxDepth,
                            never_);
    ASSERT_TRUE(got.ok()) << got.status();
    int want = ref_distance(src, dst);
    if (want < 0 || want > kMaxDepth) {
      EXPECT_FALSE(got->found);
    } else {
      ASSERT_TRUE(got->found) << a << "->" << b;
      EXPECT_EQ(static_cast<int>(got->path.size()) - 1, want);
      EXPECT_EQ(got->path.front(), src);
      EXPECT_EQ(got->path.back(), dst);
    }
  }
}

// --- randomized cross-engine consistency ---------------------------------

TEST_P(EngineTest, BulkLoadMatchesReferenceAdjacency) {
  datasets::GenOptions gen;
  gen.scale = 0.002;  // tiny
  GraphData data = datasets::GenerateLdbc(gen);
  auto mapping = engine_->BulkLoad(data);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  ASSERT_EQ(mapping->vertex_ids.size(), data.vertices.size());
  ASSERT_EQ(mapping->edge_ids.size(), data.edges.size());

  EXPECT_EQ(engine_->CountVertices(*session_, never_).value(), data.vertices.size());
  EXPECT_EQ(engine_->CountEdges(*session_, never_).value(), data.edges.size());

  // Reference adjacency from the dataset.
  std::map<uint64_t, std::multiset<uint64_t>> ref_out, ref_in;
  for (const auto& e : data.edges) {
    ref_out[e.src].insert(e.dst);
    ref_in[e.dst].insert(e.src);
  }
  // Check a deterministic sample of vertices.
  for (uint64_t idx = 0; idx < data.vertices.size(); idx += 17) {
    VertexId id = mapping->vertex_ids[idx];
    auto out = engine_->NeighborsOf(*session_, id, Direction::kOut, nullptr, never_);
    ASSERT_TRUE(out.ok()) << out.status();
    std::multiset<uint64_t> got;
    for (VertexId n : *out) {
      // Translate back to dataset indexes via reverse lookup.
      auto it = std::find(mapping->vertex_ids.begin(),
                          mapping->vertex_ids.end(), n);
      ASSERT_NE(it, mapping->vertex_ids.end());
      got.insert(static_cast<uint64_t>(it - mapping->vertex_ids.begin()));
    }
    EXPECT_EQ(got, ref_out[idx]) << "vertex index " << idx;
  }
}

// Names starting with '_' are the document engine's system members
// (_label, _from, _to). A write of such a name through the public API must
// either be rejected with InvalidArgument or store a plain property; it
// must never corrupt the element. After every write the edge's ends,
// label and adjacency read back intact and the edge scan decodes every
// edge.
TEST_P(EngineTest, ReservedPropertyNamesNeverCorruptElements) {
  auto a = engine_->AddVertex("n", {});
  auto b = engine_->AddVertex("n", {});
  ASSERT_TRUE(a.ok() && b.ok());
  auto e = engine_->AddEdge(*a, *b, "l", {});
  ASSERT_TRUE(e.ok()) << e.status();
  uint64_t edges = 1;

  auto expect_edge_intact = [&](EdgeId id) {
    auto ends = engine_->GetEdgeEnds(*session_, id);
    ASSERT_TRUE(ends.ok()) << ends.status();
    EXPECT_EQ(ends->src, *a);
    EXPECT_EQ(ends->dst, *b);
    EXPECT_EQ(ends->label, "l");
    auto rec = engine_->GetEdge(*session_, id);
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(rec->src, *a);
    EXPECT_EQ(rec->dst, *b);
    EXPECT_EQ(rec->label, "l");
    auto out = engine_->NeighborsOf(*session_, *a, Direction::kOut, nullptr,
                                    never_);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(std::count(out->begin(), out->end(), *b),
              static_cast<std::ptrdiff_t>(edges));
    auto in = engine_->NeighborsOf(*session_, *b, Direction::kIn, nullptr,
                                   never_);
    ASSERT_TRUE(in.ok()) << in.status();
    EXPECT_EQ(std::count(in->begin(), in->end(), *a),
              static_cast<std::ptrdiff_t>(edges));
    auto count = engine_->CountEdges(*session_, never_);
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(*count, edges);
  };
  // Either rejected, or `name` now reads back as a plain property of
  // `props` with `want` as its value.
  auto expect_rejected_or_plain = [](const Status& write,
                                     const PropertyMap& props,
                                     const std::string& name,
                                     const PropertyValue& want) {
    if (!write.ok()) {
      EXPECT_EQ(write.code(), StatusCode::kInvalidArgument) << write;
      return;
    }
    const PropertyValue* got = FindProperty(props, name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(*got, want) << name;
  };

  const PropertyValue text("x");
  for (const std::string name : {"_to", "_from", "_label", "_id"}) {
    SCOPED_TRACE(name);
    Status set = engine_->SetEdgeProperty(*e, name, text);
    auto rec = engine_->GetEdge(*session_, *e);
    ASSERT_TRUE(rec.ok()) << rec.status();
    expect_rejected_or_plain(set, rec->properties, name, text);
    expect_edge_intact(*e);

    Status removed = engine_->RemoveEdgeProperty(*e, name);
    if (set.ok()) {
      EXPECT_TRUE(removed.ok()) << removed;
    } else {
      EXPECT_EQ(removed.code(), StatusCode::kInvalidArgument) << removed;
    }
    expect_edge_intact(*e);

    set = engine_->SetVertexProperty(*a, name, text);
    auto vrec = engine_->GetVertex(*session_, *a);
    ASSERT_TRUE(vrec.ok()) << vrec.status();
    EXPECT_EQ(vrec->label, "n");
    expect_rejected_or_plain(set, vrec->properties, name, text);
    removed = engine_->RemoveVertexProperty(*a, name);
    EXPECT_EQ(removed.ok(), set.ok()) << removed;
    vrec = engine_->GetVertex(*session_, *a);
    ASSERT_TRUE(vrec.ok()) << vrec.status();
    EXPECT_EQ(vrec->label, "n");
    expect_edge_intact(*e);
  }

  // The same names as properties of new elements.
  PropertyMap reserved;
  reserved.emplace_back("_label", PropertyValue("fake"));
  reserved.emplace_back("_to", PropertyValue(int64_t{99}));
  auto v = engine_->AddVertex("n", reserved);
  if (v.ok()) {
    auto vrec = engine_->GetVertex(*session_, *v);
    ASSERT_TRUE(vrec.ok()) << vrec.status();
    EXPECT_EQ(vrec->label, "n");
    expect_rejected_or_plain(Status::OK(), vrec->properties, "_label",
                             PropertyValue("fake"));
  } else {
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << v.status();
  }
  auto e2 = engine_->AddEdge(*a, *b, "l", reserved);
  if (e2.ok()) {
    ++edges;
    auto rec = engine_->GetEdge(*session_, *e2);
    ASSERT_TRUE(rec.ok()) << rec.status();
    expect_rejected_or_plain(Status::OK(), rec->properties, "_to",
                             PropertyValue(int64_t{99}));
    expect_edge_intact(*e2);
  } else {
    EXPECT_EQ(e2.status().code(), StatusCode::kInvalidArgument)
        << e2.status();
  }
  expect_edge_intact(*e);

  // The breadth-first search decodes the edges too.
  auto bfs = query::BreadthFirst(*engine_, *session_, *a, 1, std::nullopt,
                                 never_);
  ASSERT_TRUE(bfs.ok()) << bfs.status();
  EXPECT_EQ(bfs->visited, std::vector<VertexId>{*b});
}

const auto kAllEngines =
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10");
const auto kParamName = [](const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
};
INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest, kAllEngines, kParamName);
INSTANTIATE_TEST_SUITE_P(AllEngines, CheckpointBytesTest, kAllEngines,
                         kParamName);

}  // namespace
}  // namespace gdbmicro
