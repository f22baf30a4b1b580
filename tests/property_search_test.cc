// Property search conformance: the one-key property probe
// (GraphEngine::ReadVertexProperty / ReadEdgeProperty) and everything
// built on it — FindVerticesByProperty, FindEdgesByProperty and the
// plan's PropertyFilter over vertices and edges — must answer exactly
// what a reference built from whole records (GetVertex/GetEdge +
// FindProperty) answers, on all nine engines: the same ids in the same
// scan order, over every (key, value) the benchmark workload draws on
// ldbc and over hand-made corner cases (mixed value types,
// overflow-length strings, writes and removals). Both engine cost-model
// modes are covered by the two ctest legs (the second CI leg sets
// GDBMICRO_COST_MODEL=1, which OpenEngine honors here).
//
// Plus the allocation contract of the probe: a warm search decodes into
// one reused value, so it allocates almost nothing per scanned element.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/datasets/generators.h"
#include "src/datasets/workload.h"
#include "src/graph/registry.h"
#include "src/query/traversal.h"

// --- global allocation counter ---------------------------------------------
// Counts every operator-new hit in the process; the tests are
// single-threaded. The nothrow forms are replaced too: a block from one
// is freed by the plain delete below (std::stable_sort's temporary
// buffer does this, in the native loaders), so it must come from malloc
// even where a sanitizer runtime supplies its own nothrow new.

static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
// The replacement operator new above allocates with malloc, so freeing
// here is the matched deallocation; GCC's -Wmismatched-new-delete cannot
// see through the replacement when inlining gtest internals.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace gdbmicro {
namespace {

using query::Traversal;
using query::TraversalOutput;

using KeyValue = std::pair<std::string, PropertyValue>;

// Every element's whole record, in the engine's scan order.
struct Reference {
  std::vector<std::pair<VertexId, PropertyMap>> vertices;
  std::vector<std::pair<EdgeId, PropertyMap>> edges;
};

// The ids of `elements` whose `key` equals `value`, in scan order.
std::vector<uint64_t> Matching(
    const std::vector<std::pair<uint64_t, PropertyMap>>& elements,
    const std::string& key, const PropertyValue& value) {
  std::vector<uint64_t> out;
  for (const auto& [id, props] : elements) {
    const PropertyValue* p = FindProperty(props, key);
    if (p != nullptr && *p == value) out.push_back(id);
  }
  return out;
}

// The distinct draws of `draw(i)` for i < n, in first-draw order.
template <typename Draw>
std::vector<KeyValue> DistinctDraws(int n, Draw&& draw) {
  std::vector<KeyValue> out;
  std::set<KeyValue> seen;
  for (int i = 0; i < n; ++i) {
    KeyValue kv = draw(i);
    if (seen.insert(kv).second) out.push_back(std::move(kv));
  }
  return out;
}

std::multiset<uint64_t> Rows(const TraversalOutput& out) {
  return std::multiset<uint64_t>(out.rows.begin(), out.rows.end());
}

// The fault-injector intercepts and governor bytes one call makes.
struct Cost {
  uint64_t intercepts;
  uint64_t bytes;
  bool operator==(const Cost&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Cost& c) {
  return os << c.intercepts << " intercepts, " << c.bytes << " bytes";
}

const GraphData& Ldbc() {
  static const GraphData data =
      datasets::GenerateByName("ldbc", {0.05, 20181204}).value();
  return data;
}

class PropertySearchTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    auto engine = OpenEngine(GetParam(), EngineOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();
    session_ = engine_->CreateSession();
  }

  // Loads ldbc 0.05 (the `traverse` dataset) and returns its workload
  // parameter picker.
  datasets::Workload LoadLdbc() {
    auto mapping = engine_->BulkLoad(Ldbc());
    EXPECT_TRUE(mapping.ok()) << mapping.status();
    mapping_ = std::move(mapping).value();
    return datasets::Workload(&Ldbc(), &mapping_, 42);
  }

  Reference BuildReference() {
    Reference ref;
    EXPECT_TRUE(engine_
                    ->ScanVertices(*session_, never_,
                                   [&](VertexId id) {
                                     auto rec = engine_->GetVertex(*session_, id);
                                     EXPECT_TRUE(rec.ok()) << rec.status();
                                     ref.vertices.emplace_back(
                                         id, std::move(rec->properties));
                                     return true;
                                   })
                    .ok());
    EXPECT_TRUE(engine_
                    ->ScanEdges(*session_, never_,
                                [&](const EdgeEnds& e) {
                                  auto rec = engine_->GetEdge(*session_, e.id);
                                  EXPECT_TRUE(rec.ok()) << rec.status();
                                  ref.edges.emplace_back(
                                      e.id, std::move(rec->properties));
                                  return true;
                                })
                    .ok());
    return ref;
  }

  void ExpectVertexSearchMatches(const Reference& ref, const std::string& key,
                                 const PropertyValue& value) {
    SCOPED_TRACE("V: " + key + " == " + value.ToString());
    auto ids = engine_->FindVerticesByProperty(*session_, key, value, never_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    EXPECT_EQ(*ids, Matching(ref.vertices, key, value));
  }

  void ExpectEdgeSearchMatches(const Reference& ref, const std::string& key,
                               const PropertyValue& value) {
    SCOPED_TRACE("E: " + key + " == " + value.ToString());
    auto ids = engine_->FindEdgesByProperty(*session_, key, value, never_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    EXPECT_EQ(*ids, Matching(ref.edges, key, value));
  }

  void ExpectSearchesMatch(const Reference& ref, const std::string& key,
                           const PropertyValue& value) {
    ExpectVertexSearchMatches(ref, key, value);
    ExpectEdgeSearchMatches(ref, key, value);
  }

  // The has(key, value) traversal `t` under both execution policies,
  // rule-based and (when the engine has statistics) cost-based, against
  // the reference's `expected` ids.
  void ExpectPlansMatch(const Traversal& t,
                        const std::vector<uint64_t>& expected) {
    for (QueryExecution policy :
         {QueryExecution::kStepWise, QueryExecution::kConflated}) {
      for (bool cost_based : {false, true}) {
        auto plan = cost_based ? t.LowerFor(*engine_, policy) : t.Lower(policy);
        ASSERT_TRUE(plan.ok()) << plan.status();
        auto out = plan->Run(*engine_, *session_, never_);
        ASSERT_TRUE(out.ok()) << out.status();
        EXPECT_EQ(Rows(*out),
                  std::multiset<uint64_t>(expected.begin(), expected.end()))
            << plan->Explain();
      }
    }
  }

  // V().has(key, value): a VertexScan + PropertyFilter or a property
  // search, by lowering.
  void ExpectHasPlansMatch(const Reference& ref, const std::string& key,
                           const PropertyValue& value) {
    SCOPED_TRACE("V: " + key + " == " + value.ToString());
    ExpectPlansMatch(Traversal::V().Has(key, value),
                     Matching(ref.vertices, key, value));
  }

  // E().has(key, value): an EdgeScan + PropertyFilter under every
  // lowering, so the edge probe is reached through the plan layer.
  void ExpectEdgeHasPlansMatch(const Reference& ref, const std::string& key,
                               const PropertyValue& value) {
    SCOPED_TRACE("E: " + key + " == " + value.ToString());
    ExpectPlansMatch(Traversal::E().Has(key, value),
                     Matching(ref.edges, key, value));
  }

  std::unique_ptr<GraphEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  LoadMapping mapping_;
  CancelToken never_;
};

// Every (key, value) that 200 iterations of the Q11 and Q12 parameter
// pickers draw on the `traverse` dataset.
TEST_P(PropertySearchTest, WorkloadDrawsMatchReferenceScan) {
  datasets::Workload workload = LoadLdbc();
  std::vector<KeyValue> vertex_draws = DistinctDraws(
      200, [&](int i) { return workload.VertexProperty(i); });
  std::vector<KeyValue> edge_draws =
      DistinctDraws(200, [&](int i) { return workload.EdgeProperty(i); });
  Reference ref = BuildReference();
  ASSERT_EQ(ref.vertices.size(), Ldbc().vertices.size());
  ASSERT_EQ(ref.edges.size(), Ldbc().edges.size());

  for (const auto& [key, value] : vertex_draws) {
    ExpectVertexSearchMatches(ref, key, value);
    // Drawn from a vertex, so never empty.
    EXPECT_FALSE(Matching(ref.vertices, key, value).empty()) << key;
  }
  for (const auto& [key, value] : edge_draws) {
    ExpectEdgeSearchMatches(ref, key, value);
    EXPECT_FALSE(Matching(ref.edges, key, value).empty()) << key;
  }
  // The plan operators, on two draws (each plan scans the whole graph).
  for (size_t i = 0; i < 2; ++i) {
    ExpectHasPlansMatch(ref, vertex_draws[i].first, vertex_draws[i].second);
  }
  ExpectEdgeHasPlansMatch(ref, edge_draws[0].first, edge_draws[0].second);
}

TEST_P(PropertySearchTest, HandMadeCasesMatchReference) {
  // neo stores an encoded value of up to 48 bytes inline in its property
  // record and longer ones in its overflow string store; std::string
  // keeps up to 15 characters in its inline buffer.
  const std::string overflow(80, 'o');
  const std::string long_text = "longer than fifteen";
  // int 1, double 1.0, "1" and true are four different values.
  const std::vector<PropertyValue> values = {
      PropertyValue(int64_t{1}), PropertyValue(1.0), PropertyValue("1"),
      PropertyValue(true),       PropertyValue(overflow),
      PropertyValue(long_text)};

  // One vertex per value, carrying "k" behind another key (so a probe
  // must walk past a pair), one without "k", and an edge per value from
  // each vertex to the next.
  std::vector<VertexId> v;
  std::vector<EdgeId> e;
  for (size_t i = 0; i < values.size(); ++i) {
    PropertyMap props = {{"rank", PropertyValue(static_cast<int64_t>(i))},
                         {"k", values[i]}};
    auto id = engine_->AddVertex("n", props);
    ASSERT_TRUE(id.ok()) << id.status();
    v.push_back(*id);
  }
  auto bare = engine_->AddVertex("n", {{"rank", PropertyValue(int64_t{99})}});
  ASSERT_TRUE(bare.ok()) << bare.status();
  v.push_back(*bare);
  for (size_t i = 0; i < values.size(); ++i) {
    PropertyMap props = {{"rank", PropertyValue(static_cast<int64_t>(i))},
                         {"k", values[i]}};
    auto id = engine_->AddEdge(v[i], v[i + 1], "l", props);
    ASSERT_TRUE(id.ok()) << id.status();
    e.push_back(*id);
  }
  auto bare_edge = engine_->AddEdge(v.back(), v[0], "l", {});
  ASSERT_TRUE(bare_edge.ok()) << bare_edge.status();

  auto check_all = [&] {
    Reference ref = BuildReference();
    ExpectSearchesMatch(ref, "nosuch", PropertyValue(int64_t{1}));
    ExpectSearchesMatch(ref, "k", PropertyValue(int64_t{2}));
    ExpectSearchesMatch(ref, "k", PropertyValue("2"));
    for (const PropertyValue& value : values) {
      ExpectSearchesMatch(ref, "k", value);
    }
    ExpectSearchesMatch(ref, "rank", PropertyValue(int64_t{0}));
    for (const PropertyValue& value : values) {
      ExpectHasPlansMatch(ref, "k", value);
      ExpectEdgeHasPlansMatch(ref, "k", value);
    }
    ExpectHasPlansMatch(ref, "nosuch", values[0]);
    ExpectEdgeHasPlansMatch(ref, "nosuch", values[0]);
  };
  // Which elements match, in id order (check_all pins the scan order).
  auto find_v = [&](const PropertyValue& value) {
    std::vector<VertexId> ids =
        engine_->FindVerticesByProperty(*session_, "k", value, never_).value();
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  auto find_e = [&](const PropertyValue& value) {
    std::vector<EdgeId> ids =
        engine_->FindEdgesByProperty(*session_, "k", value, never_).value();
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  check_all();
  for (size_t i = 0; i < values.size(); ++i) {
    SCOPED_TRACE(values[i].ToString());
    EXPECT_EQ(find_v(values[i]), std::vector<VertexId>{v[i]});
    EXPECT_EQ(find_e(values[i]), std::vector<EdgeId>{e[i]});
  }
  EXPECT_TRUE(find_v(PropertyValue(int64_t{2})).empty());

  // The probe itself: one reused value across types and lengths.
  PropertyValue probe;
  for (size_t i = 0; i < values.size(); ++i) {
    auto found = engine_->ReadVertexProperty(*session_, v[i], "k", &probe);
    ASSERT_TRUE(found.ok()) << found.status();
    EXPECT_TRUE(*found);
    EXPECT_EQ(probe, values[i]);
    found = engine_->ReadEdgeProperty(*session_, e[i], "k", &probe);
    ASSERT_TRUE(found.ok()) << found.status();
    EXPECT_TRUE(*found);
    EXPECT_EQ(probe, values[i]);
  }
  for (const char* key : {"k", "nosuch"}) {
    auto found = engine_->ReadVertexProperty(*session_, v.back(), key, &probe);
    ASSERT_TRUE(found.ok()) << found.status();
    EXPECT_FALSE(*found) << key;
    found = engine_->ReadEdgeProperty(*session_, *bare_edge, key, &probe);
    ASSERT_TRUE(found.ok()) << found.status();
    EXPECT_FALSE(*found) << key;
  }

  // Overwrites: int 1 becomes int 2; the overflow string becomes short
  // and the short string overflows.
  ASSERT_TRUE(engine_->SetVertexProperty(v[0], "k", PropertyValue(int64_t{2})).ok());
  ASSERT_TRUE(engine_->SetEdgeProperty(e[0], "k", PropertyValue(int64_t{2})).ok());
  ASSERT_TRUE(engine_->SetVertexProperty(v[4], "k", PropertyValue("2")).ok());
  ASSERT_TRUE(engine_->SetEdgeProperty(e[5], "k", PropertyValue(overflow)).ok());
  check_all();
  EXPECT_TRUE(find_v(values[0]).empty());
  EXPECT_EQ(find_v(PropertyValue(int64_t{2})), std::vector<VertexId>{v[0]});
  EXPECT_EQ(find_e(PropertyValue(int64_t{2})), std::vector<EdgeId>{e[0]});
  EXPECT_EQ(find_v(PropertyValue("2")), std::vector<VertexId>{v[4]});
  std::vector<EdgeId> overflowing = {e[4], e[5]};
  std::sort(overflowing.begin(), overflowing.end());
  EXPECT_EQ(find_e(PropertyValue(overflow)), overflowing);

  // Removed properties.
  ASSERT_TRUE(engine_->RemoveVertexProperty(v[1], "k").ok());
  ASSERT_TRUE(engine_->RemoveEdgeProperty(e[1], "k").ok());
  check_all();
  EXPECT_TRUE(find_v(values[1]).empty());
  EXPECT_TRUE(find_e(values[1]).empty());

  // A removed edge, then a removed vertex (and its remaining edge).
  ASSERT_TRUE(engine_->RemoveEdge(e[2]).ok());
  check_all();
  EXPECT_TRUE(find_e(values[2]).empty());
  ASSERT_TRUE(engine_->RemoveVertex(v[3]).ok());
  check_all();
  EXPECT_TRUE(find_v(values[3]).empty());
  EXPECT_TRUE(find_e(values[3]).empty());

  // A probe of a removed element fails as the Get* call it replaces.
  auto gone_v = engine_->ReadVertexProperty(*session_, v[3], "k", &probe);
  ASSERT_FALSE(gone_v.ok());
  EXPECT_EQ(gone_v.status().code(),
            engine_->GetVertex(*session_, v[3]).status().code());
  auto gone_e = engine_->ReadEdgeProperty(*session_, e[2], "k", &probe);
  ASSERT_FALSE(gone_e.ok());
  EXPECT_EQ(gone_e.status().code(),
            engine_->GetEdge(*session_, e[2]).status().code());
}

// The probes and the searches built on them make the fault-injector
// intercepts and governor charges of the whole-record path they replace:
// a probe those of one Get* call, a search those of its scan plus one
// Get* per scanned element.
TEST_P(PropertySearchTest, ChargesMatchTheWholeRecordPath) {
  QueryFaultInjector faults;  // rate 0: counts probes, fails none
  EngineOptions options;
  options.query_fault_injector = &faults;
  auto opened = OpenEngine(GetParam(), options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<GraphEngine> engine = std::move(opened).value();
  std::unique_ptr<QuerySession> session = engine->CreateSession();
  std::vector<VertexId> v;
  std::vector<EdgeId> e;
  for (int64_t i = 0; i < 4; ++i) {
    v.push_back(engine->AddVertex("n", {{"k", PropertyValue(i % 2)}}).value());
  }
  for (size_t i = 0; i < v.size(); ++i) {
    e.push_back(engine
                    ->AddEdge(v[i], v[(i + 1) % v.size()], "l",
                              {{"k", PropertyValue(static_cast<int64_t>(i % 2))}})
                    .value());
  }

  auto cost_of = [&](auto&& call) {
    CancelToken token =
        CancelToken::WithLimits(std::chrono::nanoseconds(0), uint64_t{1} << 40);
    uint64_t before = faults.probes();
    call(token);
    return Cost{faults.probes() - before, token.charged_bytes()};
  };
  PropertyValue probe;
  const PropertyValue one(int64_t{1});

  for (VertexId id : v) {
    EXPECT_EQ(cost_of([&](const CancelToken&) {
                (void)engine->GetVertex(*session, id);
              }),
              cost_of([&](const CancelToken&) {
                (void)engine->ReadVertexProperty(*session, id, "k", &probe);
              }));
  }
  for (EdgeId id : e) {
    EXPECT_EQ(cost_of([&](const CancelToken&) {
                (void)engine->GetEdge(*session, id);
              }),
              cost_of([&](const CancelToken&) {
                (void)engine->ReadEdgeProperty(*session, id, "k", &probe);
              }));
  }
  Cost vertex_path = cost_of([&](const CancelToken& token) {
    EXPECT_TRUE(engine
                    ->ScanVertices(*session, token,
                                   [&](VertexId id) {
                                     (void)engine->GetVertex(*session, id);
                                     return true;
                                   })
                    .ok());
  });
  Cost edge_path = cost_of([&](const CancelToken& token) {
    EXPECT_TRUE(engine
                    ->ScanEdges(*session, token,
                                [&](const EdgeEnds& ends) {
                                  (void)engine->GetEdge(*session, ends.id);
                                  return true;
                                })
                    .ok());
  });
  EXPECT_EQ(vertex_path, cost_of([&](const CancelToken& token) {
              EXPECT_TRUE(
                  engine->FindVerticesByProperty(*session, "k", one, token).ok());
            }));
  EXPECT_EQ(edge_path, cost_of([&](const CancelToken& token) {
              EXPECT_TRUE(
                  engine->FindEdgesByProperty(*session, "k", one, token).ok());
            }));
}

// A warm search reads one key per scanned element into one reused value:
// what it allocates is its result vector, not per-element records.
TEST_P(PropertySearchTest, WarmSearchesAllocateLittlePerScannedElement) {
  datasets::Workload workload = LoadLdbc();
  constexpr int kDraws = 10;
  std::vector<KeyValue> vertex_draws(kDraws), edge_draws(kDraws);
  for (int i = 0; i < kDraws; ++i) {
    vertex_draws[i] = workload.VertexProperty(i);
    edge_draws[i] = workload.EdgeProperty(i);
  }
  auto search_vertices = [&] {
    for (const auto& [key, value] : vertex_draws) {
      ASSERT_TRUE(
          engine_->FindVerticesByProperty(*session_, key, value, never_).ok());
    }
  };
  auto search_edges = [&] {
    for (const auto& [key, value] : edge_draws) {
      ASSERT_TRUE(
          engine_->FindEdgesByProperty(*session_, key, value, never_).ok());
    }
  };
  search_vertices();  // warmup
  uint64_t before = g_allocs;
  search_vertices();
  const double per_vertex =
      static_cast<double>(g_allocs - before) /
      static_cast<double>(kDraws * Ldbc().vertices.size());
  search_edges();  // warmup
  before = g_allocs;
  search_edges();
  const double per_edge = static_cast<double>(g_allocs - before) /
                          static_cast<double>(kDraws * Ldbc().edges.size());
  EXPECT_LE(per_vertex, 0.1) << "allocations per scanned vertex";
  EXPECT_LE(per_edge, 0.1) << "allocations per scanned edge";
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, PropertySearchTest,
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace gdbmicro
