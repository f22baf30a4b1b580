// Cost-based optimizer conformance and estimator sanity.
//
// Conformance: for the Table 2 read/traversal shapes (Q.8-Q.35 style)
// the cost-based lowering must return results identical to the
// rule-based lowering — same counted-ness, same count, same traverser
// multiset — on all nine engines, under both execution policies. Both
// engine cost-model modes are covered by the two ctest legs (the second
// CI leg sets GDBMICRO_COST_MODEL=1, which OpenEngine honors here).
//
// Estimator sanity: on a controlled synthetic distribution the
// CardinalityEstimator must be within a documented factor of truth —
// equality estimates are exact while a key's distinct count fits the
// bucket budget (runs of equal values never split across buckets), and
// degree-fraction estimates are within 2x (log2 buckets, uniform
// interpolation inside one bucket).
//
// Fallback: with EngineOptions::collect_statistics=false the lowering
// must be byte-identical to today's rule-based plans (Explain goldens).
//
// Catalog goldens: the cost-based plans of the prepared catalog queries on
// the repository benchmark's datasets, `~rows=` estimates included.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/queries.h"
#include "src/datasets/generators.h"
#include "src/datasets/workload.h"
#include "src/graph/registry.h"
#include "src/graph/statistics.h"
#include "src/query/stats.h"
#include "src/query/traversal.h"

namespace gdbmicro {
namespace {

using query::CardinalityEstimator;
using query::Plan;
using query::RowKind;
using query::Traversal;
using query::TraversalOutput;

// Order-insensitive canonical form (Gremlin specifies the traverser
// multiset, not its order; see plan_test.cc).
std::multiset<std::tuple<int, uint64_t, std::string>> Canon(
    const TraversalOutput& out) {
  std::multiset<std::tuple<int, uint64_t, std::string>> rows;
  for (size_t i = 0; i < out.rows.size(); ++i) {
    if (out.kind == RowKind::kValue) {
      rows.insert({static_cast<int>(out.kind), 0, std::string(out.values[i])});
    } else {
      rows.insert({static_cast<int>(out.kind), out.rows[i], std::string()});
    }
  }
  return rows;
}

// Skewed synthetic dataset: 200 "user" vertices (one hub), 40 "item"
// vertices. Every vertex carries tier=common except 4 users with
// tier=rare; every vertex carries kind=thing (zero-selectivity trap: a
// filter on it keeps everything). The hub points at every item
// ("likes"); users chain through "follows".
GraphData SkewedData() {
  GraphData data;
  data.name = "skewed";
  auto add_vertex = [&](const char* label, const char* tier) {
    GraphData::Vertex v;
    v.label = label;
    v.properties.emplace_back("tier", PropertyValue(tier));
    v.properties.emplace_back("kind", PropertyValue("thing"));
    data.vertices.push_back(std::move(v));
    return data.vertices.size() - 1;
  };
  for (int i = 0; i < 200; ++i) {
    add_vertex("user", i % 50 == 0 ? "rare" : "common");
  }
  for (int i = 0; i < 40; ++i) add_vertex("item", "common");
  auto add_edge = [&](uint64_t src, uint64_t dst, const char* label) {
    GraphData::Edge e;
    e.src = src;
    e.dst = dst;
    e.label = label;
    data.edges.push_back(std::move(e));
  };
  for (uint64_t i = 0; i < 40; ++i) add_edge(0, 200 + i, "likes");
  for (uint64_t i = 0; i + 1 < 200; ++i) add_edge(i, i + 1, "follows");
  return data;
}

// The adversarially ordered shapes: cheap/common filters written first,
// the selective one last; both() + dedup chains; the Q.8-Q.35 staples.
std::vector<std::pair<std::string, Traversal>> Shapes() {
  std::vector<std::pair<std::string, Traversal>> shapes;
  shapes.emplace_back("has-common-then-rare",
                      Traversal::V()
                          .Has("kind", PropertyValue("thing"))
                          .Has("tier", PropertyValue("rare")));
  shapes.emplace_back("haslabel-then-rare",
                      Traversal::V()
                          .HasLabel("user")
                          .Has("kind", PropertyValue("thing"))
                          .Has("tier", PropertyValue("rare")));
  shapes.emplace_back("rare-then-expand",
                      Traversal::V()
                          .Has("kind", PropertyValue("thing"))
                          .Has("tier", PropertyValue("rare"))
                          .Out());
  shapes.emplace_back("degree-first",
                      Traversal::V()
                          .WhereDegreeAtLeast(Direction::kOut, 10)
                          .Has("tier", PropertyValue("common")));
  shapes.emplace_back("edge-label", Traversal::E().HasLabel("likes"));
  shapes.emplace_back("out-dedup", Traversal::V().Out().Dedup());
  shapes.emplace_back("both-dedup", Traversal::V().Both().Dedup());
  shapes.emplace_back("in-labeled-dedup",
                      Traversal::V().In("follows").Dedup());
  shapes.emplace_back("both-dedup-count",
                      Traversal::V().Both().Dedup().Count());
  shapes.emplace_back("values-after-filters",
                      Traversal::V()
                          .Has("kind", PropertyValue("thing"))
                          .Has("tier", PropertyValue("rare"))
                          .Label());
  shapes.emplace_back("limit-guard",
                      Traversal::V()
                          .Has("kind", PropertyValue("thing"))
                          .Has("tier", PropertyValue("rare"))
                          .Limit(2));
  shapes.emplace_back("miss-everything",
                      Traversal::V().Has("tier", PropertyValue("absent")));
  return shapes;
}

class OptimizerConformanceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(OptimizerConformanceTest, CostPlansMatchRuleBasedPlans) {
  auto engine = OpenEngine(GetParam(), EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->BulkLoad(SkewedData()).ok());
  ASSERT_NE((*engine)->statistics(), nullptr);
  auto session = (*engine)->CreateSession();
  CancelToken never;

  for (auto& [name, t] : Shapes()) {
    for (QueryExecution policy :
         {QueryExecution::kStepWise, QueryExecution::kConflated}) {
      auto rule = t.Lower(policy);
      ASSERT_TRUE(rule.ok()) << name;
      auto cost = t.LowerFor(**engine, policy);
      ASSERT_TRUE(cost.ok()) << name;
      EXPECT_FALSE(rule->estimated_rows().size()) << name;
      EXPECT_EQ(cost->estimated_rows().size(), cost->num_operators()) << name;

      auto rule_out = rule->Run(**engine, *session, never);
      ASSERT_TRUE(rule_out.ok()) << name;
      auto cost_out = cost->Run(**engine, *session, never);
      ASSERT_TRUE(cost_out.ok()) << name;
      EXPECT_EQ(rule_out->counted, cost_out->counted) << name;
      EXPECT_EQ(rule_out->counted ? rule_out->count : rule_out->rows.size(),
                cost_out->counted ? cost_out->count : cost_out->rows.size())
          << name;
      EXPECT_EQ(Canon(*rule_out), Canon(*cost_out))
          << name << " under " << QueryExecutionToString(policy);
    }
    // The engine-default Execute() path (cost-based) agrees too.
    auto dflt = t.Execute(**engine, *session, never);
    ASSERT_TRUE(dflt.ok()) << name;
  }
}

// A pure filter permutation preserves even the row ORDER, so Limit-
// bearing chains stay safe; verify ordered equality explicitly.
TEST_P(OptimizerConformanceTest, FilterReorderPreservesRowOrder) {
  auto engine = OpenEngine(GetParam(), EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->BulkLoad(SkewedData()).ok());
  auto session = (*engine)->CreateSession();
  CancelToken never;
  Traversal t = Traversal::V()
                    .Has("kind", PropertyValue("thing"))
                    .HasLabel("user")
                    .Has("tier", PropertyValue("rare"))
                    .Limit(3);
  QueryExecution policy = Traversal::PolicyFor(**engine);
  auto rule = t.Lower(policy);
  auto cost = t.LowerFor(**engine, policy);
  ASSERT_TRUE(rule.ok() && cost.ok());
  auto rule_out = rule->Run(**engine, *session, never);
  auto cost_out = cost->Run(**engine, *session, never);
  ASSERT_TRUE(rule_out.ok() && cost_out.ok());
  EXPECT_EQ(rule_out->rows, cost_out->rows);
}

TEST_P(OptimizerConformanceTest, StatsOffFallbackIsRuleBasedExactly) {
  EngineOptions options;
  options.collect_statistics = false;
  auto engine = OpenEngine(GetParam(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->BulkLoad(SkewedData()).ok());
  EXPECT_EQ((*engine)->statistics(), nullptr);
  EXPECT_EQ((*engine)->load_stats().stats_build_millis, 0.0);

  QueryExecution policy = Traversal::PolicyFor(**engine);
  for (auto& [name, t] : Shapes()) {
    // Prepare() must fall back to the rule-based lowering: Explain output
    // byte-identical (the golden format), no row estimates.
    auto prepared = t.Prepare(**engine);
    ASSERT_TRUE(prepared.ok()) << name;
    auto golden = t.ExplainPlan(policy);
    ASSERT_TRUE(golden.ok()) << name;
    EXPECT_EQ(prepared->Explain(), *golden) << name;
    auto lowered = t.LowerFor(**engine, policy);
    ASSERT_TRUE(lowered.ok()) << name;
    EXPECT_TRUE(lowered->estimated_rows().empty()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, OptimizerConformanceTest,
                         ::testing::Values("arango", "blaze", "neo19", "neo30",
                                           "orient", "sparksee", "sqlg",
                                           "titan05", "titan10"),
                         [](const auto& info) { return info.param; });

// --- Plan-shape expectations on the skewed dataset --------------------------

TEST(OptimizerPlanShapeTest, OrdersSelectiveFilterFirstWithoutIndex) {
  // arango has no native property index, so the chain stays a pipeline —
  // but the rare filter must run before the keep-everything one.
  auto engine = OpenEngine("arango", EngineOptions{});
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkLoad(SkewedData()).ok());
  Traversal t = Traversal::V()
                    .Has("kind", PropertyValue("thing"))
                    .Has("tier", PropertyValue("rare"));
  auto plan = t.LowerFor(**engine, Traversal::PolicyFor(**engine));
  ASSERT_TRUE(plan.ok());
  std::string explain = plan->Explain();
  size_t rare = explain.find("tier == rare");
  size_t common = explain.find("kind == thing");
  ASSERT_NE(rare, std::string::npos) << explain;
  ASSERT_NE(common, std::string::npos) << explain;
  // Root-first print: the upstream (first-run) operator appears LAST.
  EXPECT_GT(rare, common) << explain;
  EXPECT_NE(explain.find("~rows="), std::string::npos) << explain;
}

TEST(OptimizerPlanShapeTest, PicksIndexOnSelectivePredicateNotFirstWritten) {
  // titan10 supports a property index: the rare predicate becomes the
  // access path even though the query writes the common one first.
  auto engine = OpenEngine("titan10", EngineOptions{});
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkLoad(SkewedData()).ok());
  Traversal t = Traversal::V()
                    .Has("kind", PropertyValue("thing"))
                    .Has("tier", PropertyValue("rare"));
  auto plan = t.LowerFor(**engine, Traversal::PolicyFor(**engine));
  ASSERT_TRUE(plan.ok());
  std::string explain = plan->Explain();
  EXPECT_NE(explain.find("PropertyIndexScan(tier == rare"),
            std::string::npos)
      << explain;
}

TEST(OptimizerPlanShapeTest, BothDedupLowersToOneEdgeScan) {
  auto engine = OpenEngine("sqlg", EngineOptions{});
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkLoad(SkewedData()).ok());
  Traversal t = Traversal::V().Both().Dedup();
  auto plan = t.LowerFor(**engine, Traversal::PolicyFor(**engine));
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->Explain().find("DistinctNeighborScan"), std::string::npos)
      << plan->Explain();
}

// --- Catalog plan goldens ----------------------------------------------------

// The cost-based plans the repository benchmark runs: every catalog spec
// that executes through a prepared plan (Q14, Q15, Q22-Q31), on the
// benchmark's datasets (mico and ldbc at scale 0.05, generator seed
// 20181204) with statistics on. Estimates come from the dataset alone, so
// all nine engines share one golden per dataset and query; `~rows=` is part
// of the golden.
struct CatalogPlanGolden {
  const char* dataset;
  int number;
  const char* explain;
};

const CatalogPlanGolden kCatalogPlanGoldens[] = {
    {"mico", 14, "VertexLookup(id=?) ~rows=1\n"},
    {"mico", 15, "EdgeLookup(id=?) ~rows=1\n"},
    {"mico", 22,
     "CountSink ~rows=1\n"
     "  Expand(in) ~rows=11\n"
     "    VertexLookup(id=?) ~rows=1\n"},
    {"mico", 23,
     "CountSink ~rows=1\n"
     "  Expand(out) ~rows=11\n"
     "    VertexLookup(id=?) ~rows=1\n"},
    {"mico", 24,
     "CountSink ~rows=1\n"
     "  Expand(both, label=?) ~rows=4\n"
     "    VertexLookup(id=?) ~rows=1\n"},
    {"mico", 25,
     "CountSink ~rows=1\n"
     "  Dedup ~rows=11\n"
     "    LabelMap ~rows=11\n"
     "      ExpandE(in) ~rows=11\n"
     "        VertexLookup(id=?) ~rows=1\n"},
    {"mico", 26,
     "CountSink ~rows=1\n"
     "  Dedup ~rows=11\n"
     "    LabelMap ~rows=11\n"
     "      ExpandE(out) ~rows=11\n"
     "        VertexLookup(id=?) ~rows=1\n"},
    {"mico", 27,
     "CountSink ~rows=1\n"
     "  Dedup ~rows=22\n"
     "    LabelMap ~rows=22\n"
     "      ExpandE(both) ~rows=22\n"
     "        VertexLookup(id=?) ~rows=1\n"},
    {"mico", 28,
     "CountSink ~rows=1\n"
     "  DegreeFilter(in >= 42) ~rows=154\n"
     "    VertexScan ~rows=5000\n"},
    {"mico", 29,
     "CountSink ~rows=1\n"
     "  DegreeFilter(out >= 42) ~rows=145\n"
     "    VertexScan ~rows=5000\n"},
    {"mico", 30,
     "CountSink ~rows=1\n"
     "  DegreeFilter(both >= 42) ~rows=293\n"
     "    VertexScan ~rows=5000\n"},
    {"mico", 31,
     "CountSink ~rows=1\n"
     "  DistinctNeighborScan(out) ~rows=5000\n"},
    {"ldbc", 14, "VertexLookup(id=?) ~rows=1\n"},
    {"ldbc", 15, "EdgeLookup(id=?) ~rows=1\n"},
    {"ldbc", 22,
     "CountSink ~rows=1\n"
     "  Expand(in) ~rows=5\n"
     "    VertexLookup(id=?) ~rows=1\n"},
    {"ldbc", 23,
     "CountSink ~rows=1\n"
     "  Expand(out) ~rows=5\n"
     "    VertexLookup(id=?) ~rows=1\n"},
    {"ldbc", 24,
     "CountSink ~rows=1\n"
     "  Expand(both, label=?) ~rows=2\n"
     "    VertexLookup(id=?) ~rows=1\n"},
    {"ldbc", 25,
     "CountSink ~rows=1\n"
     "  Dedup ~rows=5\n"
     "    LabelMap ~rows=5\n"
     "      ExpandE(in) ~rows=5\n"
     "        VertexLookup(id=?) ~rows=1\n"},
    {"ldbc", 26,
     "CountSink ~rows=1\n"
     "  Dedup ~rows=5\n"
     "    LabelMap ~rows=5\n"
     "      ExpandE(out) ~rows=5\n"
     "        VertexLookup(id=?) ~rows=1\n"},
    {"ldbc", 27,
     "CountSink ~rows=1\n"
     "  Dedup ~rows=10\n"
     "    LabelMap ~rows=10\n"
     "      ExpandE(both) ~rows=10\n"
     "        VertexLookup(id=?) ~rows=1\n"},
    {"ldbc", 28,
     "CountSink ~rows=1\n"
     "  DegreeFilter(in >= 20) ~rows=22\n"
     "    VertexScan ~rows=442\n"},
    {"ldbc", 29,
     "CountSink ~rows=1\n"
     "  DegreeFilter(out >= 20) ~rows=34\n"
     "    VertexScan ~rows=442\n"},
    {"ldbc", 30,
     "CountSink ~rows=1\n"
     "  DegreeFilter(both >= 20) ~rows=56\n"
     "    VertexScan ~rows=442\n"},
    {"ldbc", 31,
     "CountSink ~rows=1\n"
     "  DistinctNeighborScan(out) ~rows=442\n"},
};

class CatalogPlanGoldenTest : public ::testing::TestWithParam<std::string> {};

// Runs each spec once through the catalog, then takes its plan back out of
// the PreparedQueryCache by query number. The cost model stays off, as in
// the benchmark: it changes timings, never plans.
TEST_P(CatalogPlanGoldenTest, PreparedCatalogPlansMatchGoldens) {
  for (const char* dataset : {"mico", "ldbc"}) {
    auto data = datasets::GenerateByName(dataset, {0.05, 20181204});
    ASSERT_TRUE(data.ok()) << data.status();
    auto engine = OpenEngine(GetParam(), EngineOptions{},
                             /*honor_cost_model_env=*/false);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto mapping = (*engine)->BulkLoad(*data);
    ASSERT_TRUE(mapping.ok()) << mapping.status();
    ASSERT_NE((*engine)->statistics(), nullptr);
    auto session = (*engine)->CreateSession();
    datasets::Workload workload(&*data, &*mapping, 42);
    core::PreparedQueryCache cache(engine->get());
    core::QueryContext ctx;
    ctx.engine = engine->get();
    ctx.session = session.get();
    ctx.workload = &workload;
    ctx.prepared = &cache;

    int checked = 0;
    for (const CatalogPlanGolden& golden : kCatalogPlanGoldens) {
      if (std::string(golden.dataset) != dataset) continue;
      std::vector<const core::QuerySpec*> specs =
          core::QueriesByNumber({golden.number});
      ASSERT_EQ(specs.size(), 1u) << "Q" << golden.number;
      auto ran = specs[0]->run(ctx);
      ASSERT_TRUE(ran.ok()) << dataset << " Q" << golden.number << ": "
                            << ran.status();
      bool relowered = false;
      auto plan = cache.Get(golden.number, [&relowered] {
        relowered = true;
        return Traversal();
      });
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_FALSE(relowered) << dataset << " Q" << golden.number;
      EXPECT_EQ((*plan)->Explain(), golden.explain)
          << dataset << " Q" << golden.number;
      ++checked;
    }
    EXPECT_EQ(checked, 12) << dataset;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CatalogPlanGoldenTest,
                         ::testing::Values("arango", "blaze", "neo19", "neo30",
                                           "orient", "sparksee", "sqlg",
                                           "titan05", "titan10"),
                         [](const auto& info) { return info.param; });

// --- Estimator sanity bounds -------------------------------------------------

TEST(CardinalityEstimatorTest, EqualityExactWithinBucketBudget) {
  // 3 distinct values with known frequencies — far below the 64-bucket
  // budget, so runs never share a bucket and EstimateEq is exact.
  GraphData data;
  data.name = "est";
  for (int i = 0; i < 100; ++i) {
    GraphData::Vertex v;
    v.label = "n";
    const char* color = i < 80 ? "red" : (i < 95 ? "green" : "blue");
    v.properties.emplace_back("color", PropertyValue(color));
    data.vertices.push_back(std::move(v));
  }
  GraphStatistics stats = GraphStatistics::Collect(data);
  const PropertyKeyStats* key = stats.VertexProperty("color");
  ASSERT_NE(key, nullptr);
  EXPECT_DOUBLE_EQ(key->EstimateEq(PropertyValue("red")), 80.0);
  EXPECT_DOUBLE_EQ(key->EstimateEq(PropertyValue("green")), 15.0);
  EXPECT_DOUBLE_EQ(key->EstimateEq(PropertyValue("blue")), 5.0);
  // Above the observed domain: 0. (An in-domain miss estimates at its
  // covering bucket — a histogram cannot tell absence from presence.)
  EXPECT_DOUBLE_EQ(key->EstimateEq(PropertyValue("zzz")), 0.0);
  // Below the observed domain: the first bucket's estimate. A null value
  // ranks below every other type, so it lands on "blue"'s bucket.
  EXPECT_DOUBLE_EQ(key->EstimateEq(PropertyValue("aaa")), 5.0);
  EXPECT_DOUBLE_EQ(key->EstimateEq(PropertyValue()), 5.0);
}

TEST(CardinalityEstimatorTest, DegreeFractionWithinFactorTwo) {
  // 90 vertices of out-degree 1, 10 hubs of out-degree 9: the true
  // fraction with degree >= 5 is 0.10. Log2 buckets put degree 9 in
  // [8, 15] and degree 5 in [4, 7]; the documented bound is 2x.
  GraphData data;
  data.name = "deg";
  for (int i = 0; i < 100; ++i) {
    GraphData::Vertex v;
    v.label = "n";
    data.vertices.push_back(std::move(v));
  }
  auto add_edge = [&](uint64_t src, uint64_t dst) {
    GraphData::Edge e;
    e.src = src;
    e.dst = dst;
    e.label = "l";
    data.edges.push_back(std::move(e));
  };
  for (uint64_t i = 0; i < 90; ++i) add_edge(i, (i + 1) % 100);
  for (uint64_t h = 90; h < 100; ++h) {
    for (uint64_t j = 0; j < 9; ++j) add_edge(h, j);
  }
  GraphStatistics stats = GraphStatistics::Collect(data);
  double truth = 0.10;
  double est = stats.FractionDegreeAtLeast(Direction::kOut, 5);
  EXPECT_GE(est, truth / 2.0);
  EXPECT_LE(est, truth * 2.0);
  // Exact at bucket boundaries and the trivial probes.
  EXPECT_DOUBLE_EQ(stats.FractionDegreeAtLeast(Direction::kOut, 0), 1.0);
  EXPECT_DOUBLE_EQ(stats.FractionDegreeAtLeast(Direction::kOut, 1000), 0.0);
  EXPECT_DOUBLE_EQ(stats.AvgDegree(Direction::kOut),
                   static_cast<double>(data.edges.size()) / 100.0);
}

TEST(CardinalityEstimatorTest, BoundLabelFanoutWeighsLabelsByFrequency) {
  // A label bound at Run time is drawn from the edges (the catalog's
  // Workload::EdgeLabel), so a frequent label comes up often and fans
  // out wide. 10 vertices, 100 edges: 90 "hot", 10 "cold".
  GraphData data;
  data.name = "skew";
  for (int i = 0; i < 10; ++i) data.vertices.push_back({"n", {}});
  for (uint64_t i = 0; i < 100; ++i) {
    GraphData::Edge e;
    e.src = i % 10;
    e.dst = (i + 1) % 10;
    e.label = i < 90 ? "hot" : "cold";
    data.edges.push_back(std::move(e));
  }
  GraphStatistics stats = GraphStatistics::Collect(data);
  CardinalityEstimator est(stats, /*supports_property_index=*/true);

  // both(): 20 edge ends per vertex, 18 "hot" and 2 "cold"; the expected
  // fanout of a drawn label is 0.9 * 18 + 0.1 * 2 = 16.4, where a
  // uniformly chosen label would price (18 + 2) / 2 = 10.
  query::LogicalStep both(query::LogicalOp::kBoth);
  both.bound = true;
  EXPECT_DOUBLE_EQ(est.Fanout(both), 16.4);
  query::LogicalStep out(query::LogicalOp::kOut);
  out.bound = true;
  EXPECT_DOUBLE_EQ(est.Fanout(out), 8.2);
  // A fixed label prices its own fanout.
  query::LogicalStep hot(query::LogicalOp::kBoth);
  hot.label = "hot";
  EXPECT_DOUBLE_EQ(est.Fanout(hot), 18.0);

  // One label: the drawn label is always it. No edges: 0, not 0 / 0.
  for (GraphData::Edge& e : data.edges) e.label = "only";
  GraphStatistics one_label = GraphStatistics::Collect(data);
  CardinalityEstimator one(one_label, /*supports_property_index=*/true);
  EXPECT_DOUBLE_EQ(one.Fanout(both), 20.0);
  data.edges.clear();
  GraphStatistics no_edges = GraphStatistics::Collect(data);
  CardinalityEstimator none(no_edges, /*supports_property_index=*/true);
  EXPECT_DOUBLE_EQ(none.Fanout(both), 0.0);
}

TEST(CardinalityEstimatorTest, ZeroElementLabelsAreTotal) {
  // Unknown labels/keys and empty datasets must estimate 0 everywhere,
  // never divide by zero (the S1 regression surface).
  GraphData empty;
  empty.name = "empty";
  GraphStatistics none = GraphStatistics::Collect(empty);
  EXPECT_EQ(none.VerticesWithLabel("ghost"), 0u);
  EXPECT_EQ(none.EdgesWithLabel("ghost"), 0u);
  EXPECT_EQ(none.VertexProperty("ghost"), nullptr);
  EXPECT_DOUBLE_EQ(none.AvgDegree(Direction::kBoth), 0.0);
  EXPECT_DOUBLE_EQ(none.AvgDegree(Direction::kBoth, "ghost"), 0.0);
  EXPECT_DOUBLE_EQ(none.FractionDegreeAtLeast(Direction::kOut, 1), 0.0);

  GraphData single;
  single.name = "single";
  single.vertices.push_back({"only", {}});
  GraphStatistics one = GraphStatistics::Collect(single);
  EXPECT_EQ(one.vertices, 1u);
  EXPECT_EQ(one.VerticesWithLabel("only"), 1u);
  EXPECT_DOUBLE_EQ(one.AvgDegree(Direction::kOut), 0.0);
  EXPECT_DOUBLE_EQ(one.FractionDegreeAtLeast(Direction::kOut, 1), 0.0);
  EXPECT_DOUBLE_EQ(one.FractionDegreeAtLeast(Direction::kOut, 0), 1.0);

  CardinalityEstimator est(one, /*supports_property_index=*/true);
  query::LogicalStep has{query::LogicalOp::kHas};
  has.key = "ghost";
  has.value = PropertyValue("x");
  EXPECT_DOUBLE_EQ(est.HasRows(has), 0.0);
}

}  // namespace
}  // namespace gdbmicro
