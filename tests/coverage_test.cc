// Coverage for paths not exercised elsewhere: traversal edge-step
// combinators, registry semantics, report formatting corners, metric
// options, and small utility formatting.

#include <gtest/gtest.h>

#include "src/core/report.h"
#include "src/datasets/metrics.h"
#include "src/engines/neoish/neo_engine.h"
#include "src/graph/registry.h"
#include "src/query/traversal.h"
#include "src/storage/btree.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace {

using query::Traversal;

class EdgeStepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto engine = OpenEngine("neo19", EngineOptions{});
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(engine).value();
    session_ = engine_->CreateSession();
    a_ = engine_->AddVertex("n", {}).value();
    b_ = engine_->AddVertex("n", {}).value();
    PropertyMap w;
    w.emplace_back("w", PropertyValue(int64_t{9}));
    e_ = engine_->AddEdge(a_, b_, "link", w).value();
  }
  std::unique_ptr<GraphEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  VertexId a_ = 0, b_ = 0;
  EdgeId e_ = 0;
  CancelToken never_;
};

TEST_F(EdgeStepTest, EdgeHas) {
  auto n = Traversal::E()
               .Has("w", PropertyValue(int64_t{9}))
               .Count()
               .ExecuteCount(*engine_, *session_, never_);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

TEST_F(EdgeStepTest, MissingSourceIdYieldsEmpty) {
  // Gremlin semantics: g.V(id)/g.E(id) on a missing element is an empty
  // traverser set, not a query error.
  auto v = Traversal::V(99999).Execute(*engine_, *session_, never_);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_TRUE(v->rows.empty());
  auto e = Traversal::E(99999).Execute(*engine_, *session_, never_);
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_TRUE(e->rows.empty());
}

TEST_F(EdgeStepTest, LabelFilteredEdgeSteps) {
  auto n = Traversal::V(a_)
               .OutE(std::string("link"))
               .Count()
               .ExecuteCount(*engine_, *session_, never_);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto none = Traversal::V(a_)
                  .OutE(std::string("nope"))
                  .Count()
                  .ExecuteCount(*engine_, *session_, never_);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
}

TEST(RegistryTest, NamesAndReplace) {
  RegisterBuiltinEngines();
  auto& registry = EngineRegistry::Instance();
  auto names = registry.Names();
  EXPECT_EQ(names.size(), 9u);
  EXPECT_TRUE(registry.Has("neo19"));
  EXPECT_FALSE(registry.Has("neoXX"));
  // Re-registering replaces rather than duplicating.
  registry.Register("neo19", [] { return MakeNeoEngine(false); });
  EXPECT_EQ(registry.Names().size(), 9u);
  auto engine = registry.Create("neo19");
  ASSERT_TRUE(engine.ok());
}

TEST(MetricsOptionsTest, DiameterCanBeSkipped) {
  GraphData data;
  data.vertices.push_back({"n", {}});
  data.vertices.push_back({"n", {}});
  data.edges.push_back({0, 1, "l", {}});
  auto stats = datasets::ComputeStats(data, {.diameter_samples = 0});
  EXPECT_EQ(stats.diameter, 0u);
  stats = datasets::ComputeStats(data);  // the default sample count
  EXPECT_EQ(stats.diameter, 1u);
}

TEST(FormattingTest, HumanMillisBands) {
  EXPECT_EQ(HumanMillis(0.00042), "420 ns");
  EXPECT_EQ(HumanMillis(0.5), "500 us");
  EXPECT_EQ(HumanMillis(12.345), "12.35 ms");
  EXPECT_EQ(HumanMillis(2500.0), "2.50 s");
  EXPECT_EQ(HumanMillis(150000.0), "2.5 min");
}

TEST(FormattingTest, PivotWithoutDatasetFilterPrefixesRows) {
  core::Measurement m;
  m.engine = "neo19";
  m.dataset = "yeast";
  m.query = "Q8";
  m.millis = 1;
  core::PivotOptions options;  // no dataset filter
  std::string table = core::PivotTable({m}, options);
  EXPECT_NE(table.find("yeast Q8"), std::string::npos);
}

TEST(BTreeCoverageTest, ClearResetsEverything) {
  BTree<uint64_t, uint64_t> tree;
  for (uint64_t i = 0; i < 1000; ++i) tree.Insert(i, i);
  EXPECT_GT(tree.height(), 1);
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.Insert(5, 5));
  EXPECT_TRUE(tree.Contains(5, 5));
}

TEST(EngineLifecycleTest, OpenCloseAllEngines) {
  RegisterBuiltinEngines();
  for (const std::string& name : EngineRegistry::Instance().Names()) {
    auto engine = OpenEngine(name, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << name;
    EXPECT_TRUE((*engine)->AddVertex("n", {}).ok()) << name;
  }
}

}  // namespace
}  // namespace gdbmicro
