// Tests for the physical-plan layer: lowering goldens (ExplainPlan),
// step-wise vs conflated policy equivalence across the Table 2
// read/traversal query shapes on every engine, the typed per-engine
// execution-policy contract, limit early-stop, and the no-materialization
// guarantee of a streaming trailing count.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/graph/registry.h"
#include "src/query/traversal.h"

namespace gdbmicro {
namespace {

using query::Plan;
using query::PlanStats;
using query::RowKind;
using query::Traversal;
using query::TraversalOutput;

// Order-insensitive canonical form of an output: Gremlin specifies the
// traverser multiset, not its order (each engine emits in storage order).
// Value rows canonicalize by their materialized string (pool indexes are
// session-local), id rows by the flat id.
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

// Fixture builds the known small social graph (same shape as query_test):
//
//   p0 -knows-> p1 -knows-> p2 -knows-> p3     (chain)
//   p0 -knows-> p2                              (shortcut)
//   p4                                          (isolated person)
//   post0 -hasCreator-> p1, post0 -hasTag-> t0
class PlanEquivalenceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    auto engine = OpenEngine(GetParam(), EngineOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();
    session_ = engine_->CreateSession();

    auto add_person = [&](const char* name) {
      PropertyMap props;
      props.emplace_back("name", PropertyValue(name));
      auto v = engine_->AddVertex("person", props);
      EXPECT_TRUE(v.ok());
      return *v;
    };
    p_[0] = add_person("ada");
    p_[1] = add_person("bob");
    p_[2] = add_person("cyd");
    p_[3] = add_person("dee");
    p_[4] = add_person("eve");
    knows0_ = engine_->AddEdge(p_[0], p_[1], "knows", {}).value();
    ASSERT_TRUE(engine_->AddEdge(p_[1], p_[2], "knows", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(p_[2], p_[3], "knows", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(p_[0], p_[2], "knows", {}).ok());
    post_ = engine_->AddVertex("post", {}).value();
    tag_ = engine_->AddVertex("tag", {}).value();
    ASSERT_TRUE(engine_->AddEdge(post_, p_[1], "hasCreator", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(post_, tag_, "hasTag", {}).ok());
  }

  /// Runs `t` under both policies plus the engine-default Execute() and
  /// requires identical counted-ness, counts, and traverser multisets.
  /// Returns the step-wise output for golden assertions.
  TraversalOutput RequirePolicyEquivalence(const Traversal& t,
                                           const char* shape) {
    auto step_plan = t.Lower(QueryExecution::kStepWise);
    auto conf_plan = t.Lower(QueryExecution::kConflated);
    EXPECT_TRUE(step_plan.ok() && conf_plan.ok()) << shape;
    auto step = step_plan->Run(*engine_, *session_, never_);
    auto conf = conf_plan->Run(*engine_, *session_, never_);
    auto dflt = t.Execute(*engine_, *session_, never_);
    EXPECT_TRUE(step.ok()) << shape << ": " << step.status();
    EXPECT_TRUE(conf.ok()) << shape << ": " << conf.status();
    EXPECT_TRUE(dflt.ok()) << shape << ": " << dflt.status();
    if (!step.ok() || !conf.ok() || !dflt.ok()) return TraversalOutput{};
    EXPECT_EQ(step->counted, conf->counted) << shape;
    EXPECT_EQ(step->count, conf->count) << shape;
    EXPECT_EQ(Canon(*step), Canon(*conf)) << shape;
    EXPECT_EQ(step->counted, dflt->counted) << shape;
    EXPECT_EQ(step->count, dflt->count) << shape;
    EXPECT_EQ(Canon(*step), Canon(*dflt)) << shape;
    return std::move(step).value();
  }

  std::unique_ptr<GraphEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  VertexId p_[5];
  VertexId post_ = 0;
  VertexId tag_ = 0;
  EdgeId knows0_ = 0;
  CancelToken never_;
};

TEST_P(PlanEquivalenceTest, Table2ReadAndTraversalShapes) {
  const std::string knows = "knows";
  // The Q.8-Q.35 substrate expressible in the fluent API, plus the exact
  // shapes the conflated planner rewrites, with their fixture goldens.
  struct GoldenCount {
    const char* shape;
    Traversal t;
    uint64_t expect;
  };
  std::vector<GoldenCount> counted = {
      {"Q8 g.V.count", Traversal::V().Count(), 7},
      {"Q9 g.E.count", Traversal::E().Count(), 6},
      {"Q10 g.E.label.dedup", Traversal::E().Label().Dedup().Count(), 3},
      {"Q11 g.V.has(name,cyd)",
       Traversal::V().Has("name", PropertyValue("cyd")).Count(), 1},
      {"Q11 g.V.has miss",
       Traversal::V().Has("name", PropertyValue("nobody")).Count(), 0},
      {"Q13 g.E.hasLabel(knows)", Traversal::E().HasLabel("knows").Count(),
       4},
      {"Q14 g.V(id)", Traversal::V(p_[2]).Count(), 1},
      {"Q15 g.E(id)", Traversal::E(knows0_).Count(), 1},
      {"g.V.hasLabel(person)", Traversal::V().HasLabel("person").Count(), 5},
      {"Q23 v.out", Traversal::V(p_[0]).Out().Count(), 2},
      {"Q22 v.in", Traversal::V(p_[2]).In().Count(), 2},
      {"Q24 v.both(knows)", Traversal::V(p_[1]).Both(knows).Count(), 2},
      {"Q26 v.outE.label.dedup",
       Traversal::V(post_).OutE().Label().Dedup().Count(), 2},
      {"Q25 v.inE.label.dedup",
       Traversal::V(p_[1]).InE().Label().Dedup().Count(), 2},
      {"Q27 v.bothE.label.dedup",
       Traversal::V(p_[2]).BothE().Label().Dedup().Count(), 1},
      {"Q28 degree(in)>=2",
       Traversal::V().WhereDegreeAtLeast(Direction::kIn, 2).Count(), 2},
      {"Q29 degree(out)>=2",
       Traversal::V().WhereDegreeAtLeast(Direction::kOut, 2).Count(), 2},
      {"Q30 degree(both)>=3",
       Traversal::V().WhereDegreeAtLeast(Direction::kBoth, 3).Count(), 2},
      {"Q31 g.V.out.dedup", Traversal::V().Out().Dedup().Count(), 4},
      {"2-hop out.out.dedup",
       Traversal::V(p_[0]).Out().Out().Dedup().Count(), 2},
      {"limit(3)", Traversal::V().Limit(3).Count(), 3},
      {"limit(0)", Traversal::V().Limit(0).Count(), 0},
      {"has+limit",
       Traversal::V().Has("name", PropertyValue("cyd")).Limit(5).Count(), 1},
  };
  for (auto& g : counted) {
    TraversalOutput out = RequirePolicyEquivalence(g.t, g.shape);
    EXPECT_TRUE(out.counted) << g.shape;
    EXPECT_EQ(out.count, g.expect) << g.shape;
  }

  // Non-counted shapes: multiset equivalence is the assertion; spot-check
  // two result sets against the fixture.
  std::vector<std::pair<const char*, Traversal>> uncounted = {
      {"g.V", Traversal::V()},
      {"g.E", Traversal::E()},
      {"g.V.has(name,cyd)",
       Traversal::V().Has("name", PropertyValue("cyd"))},
      {"g.V.out.dedup", Traversal::V().Out().Dedup()},
      {"g.E.hasLabel(knows)", Traversal::E().HasLabel("knows")},
      {"v.both", Traversal::V(p_[1]).Both()},
      {"v.outE(knows)", Traversal::V(p_[0]).OutE(knows)},
      {"labels", Traversal::V(post_).OutE().Label()},
      // Order-sensitive subsets: the Limit guard keeps the rewrites off,
      // so both policies must select the exact same elements.
      {"out.dedup.limit", Traversal::V().Out().Dedup().Limit(1)},
      {"has.limit",
       Traversal::V().Has("name", PropertyValue("ada")).Limit(1)},
  };
  for (auto& [shape, t] : uncounted) RequirePolicyEquivalence(t, shape);

  TraversalOutput cyd = RequirePolicyEquivalence(
      Traversal::V().Has("name", PropertyValue("cyd")), "golden has");
  ASSERT_EQ(cyd.rows.size(), 1u);
  EXPECT_EQ(cyd.rows[0], p_[2]);

  TraversalOutput q31 =
      RequirePolicyEquivalence(Traversal::V().Out().Dedup(), "golden q31");
  std::set<uint64_t> targets(q31.rows.begin(), q31.rows.end());
  EXPECT_EQ(targets, (std::set<uint64_t>{p_[1], p_[2], p_[3], tag_}));
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, PlanEquivalenceTest,
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// --- Lowering goldens (engine-independent) ---------------------------------

TEST(PlanExplainTest, StepWiseLowersStepsOneToOne) {
  EXPECT_EQ(Traversal::V()
                .Has("name", PropertyValue("x"))
                .Count()
                .ExplainPlan(QueryExecution::kStepWise)
                .value(),
            "CountSink\n"
            "  PropertyFilter(name == x)\n"
            "    VertexScan\n");
  EXPECT_EQ(Traversal::V()
                .Out()
                .Dedup()
                .Count()
                .ExplainPlan(QueryExecution::kStepWise)
                .value(),
            "CountSink\n"
            "  Dedup\n"
            "    Expand(out)\n"
            "      VertexScan\n");
  EXPECT_EQ(Traversal::E()
                .HasLabel("knows")
                .ExplainPlan(QueryExecution::kStepWise)
                .value(),
            "LabelFilter(label=knows)\n"
            "  EdgeScan\n");
  EXPECT_EQ(Traversal::V(7)
                .OutE(std::string("knows"))
                .Label()
                .Dedup()
                .ExplainPlan(QueryExecution::kStepWise)
                .value(),
            "Dedup\n"
            "  LabelMap\n"
            "    ExpandE(out, label=knows)\n"
            "      VertexLookup(id=7)\n");
  EXPECT_EQ(Traversal::V()
                .WhereDegreeAtLeast(Direction::kBoth, 3)
                .Limit(10)
                .ExplainPlan(QueryExecution::kStepWise)
                .value(),
            "Limit(10)\n"
            "  DegreeFilter(both >= 3)\n"
            "    VertexScan\n");
}

TEST(PlanExplainTest, ConflatedRewritesFireOnlyForConflatedPolicy) {
  // Has pushdown.
  Traversal has = Traversal::V().Has("name", PropertyValue("x"));
  EXPECT_EQ(has.ExplainPlan(QueryExecution::kConflated).value(),
            "PropertyIndexScan(name == x)\n");
  EXPECT_EQ(has.ExplainPlan(QueryExecution::kStepWise).value(),
            "PropertyFilter(name == x)\n"
            "  VertexScan\n");

  // Q.31 distinct-targets pushdown, with a streaming trailing count.
  Traversal q31 = Traversal::V().Out().Dedup().Count();
  EXPECT_EQ(q31.ExplainPlan(QueryExecution::kConflated).value(),
            "CountSink\n"
            "  DistinctNeighborScan(out)\n");
  EXPECT_EQ(q31.ExplainPlan(QueryExecution::kStepWise).value(),
            "CountSink\n"
            "  Dedup\n"
            "    Expand(out)\n"
            "      VertexScan\n");

  // Edges-by-label pushdown.
  Traversal by_label = Traversal::E().HasLabel("knows");
  EXPECT_EQ(by_label.ExplainPlan(QueryExecution::kConflated).value(),
            "EdgeLabelScan(label=knows)\n");

  // A label-restricted out() is not the Q.31 pattern: no rewrite fires
  // even under the conflated policy.
  EXPECT_EQ(Traversal::V()
                .Out(std::string("knows"))
                .Dedup()
                .ExplainPlan(QueryExecution::kConflated)
                .value(),
            "Dedup\n"
            "  Expand(out, label=knows)\n"
            "    VertexScan\n");

  // A Limit in the suffix selects a subset by order, and a rewritten
  // source emits in native order — the rewrites stay off so both
  // policies pick the same subset.
  EXPECT_EQ(Traversal::V()
                .Out()
                .Dedup()
                .Limit(1)
                .ExplainPlan(QueryExecution::kConflated)
                .value(),
            "Limit(1)\n"
            "  Dedup\n"
            "    Expand(out)\n"
            "      VertexScan\n");
  EXPECT_EQ(Traversal::V()
                .Has("name", PropertyValue("x"))
                .Limit(2)
                .ExplainPlan(QueryExecution::kConflated)
                .value(),
            "Limit(2)\n"
            "  PropertyFilter(name == x)\n"
            "    VertexScan\n");

  // Steps after a terminal Count() are unreachable and dropped.
  EXPECT_EQ(Traversal::V()
                .Count()
                .Dedup()
                .ExplainPlan(QueryExecution::kStepWise)
                .value(),
            "CountSink\n"
            "  VertexScan\n");
}

TEST(PlanPolicyTest, EngineContractsMatchTable1) {
  const std::set<std::string> conflated = {"orient", "sqlg", "titan05",
                                           "titan10"};
  RegisterBuiltinEngines();
  for (const std::string& name : EngineRegistry::Instance().Names()) {
    auto engine = OpenEngine(name, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << name;
    EngineInfo info = (*engine)->info();
    QueryExecution expect = conflated.count(name) > 0
                                ? QueryExecution::kConflated
                                : QueryExecution::kStepWise;
    EXPECT_EQ(info.query_execution, expect) << name;
    EXPECT_EQ(Traversal::PolicyFor(**engine), expect) << name;
    // The Table 1 cell survives as a display string alongside the enum.
    EXPECT_FALSE(info.query_execution_display.empty()) << name;
  }
}

// --- Execution-policy behavior ---------------------------------------------

class PlanBehaviorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto engine = OpenEngine("neo19", EngineOptions{});
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(engine).value();
    session_ = engine_->CreateSession();
    std::vector<VertexId> v;
    for (int i = 0; i < 100; ++i) {
      v.push_back(engine_->AddVertex("n", {}).value());
    }
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          engine_->AddEdge(v[i], v[(i * 7 + 1) % 100], "l", {}).ok());
    }
  }
  std::unique_ptr<GraphEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  CancelToken never_;
};

TEST_F(PlanBehaviorTest, LimitStopsSourceScanUnderConflatedPolicy) {
  Traversal t = Traversal::V().Limit(5);

  PlanStats conflated_stats;
  auto conflated = t.Lower(QueryExecution::kConflated);
  ASSERT_TRUE(conflated.ok());
  auto out = conflated->Run(*engine_, *session_, never_, &conflated_stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 5u);
  // The fused pipeline propagates the limit into the scan: the source
  // emitted (= the engine visited) no more than the limit.
  ASSERT_EQ(conflated_stats.rows_out.size(), 2u);
  EXPECT_LE(conflated_stats.rows_out[0], 5u);
  EXPECT_EQ(conflated_stats.barriers, 0u);

  // The step-wise policy is the TinkerPop behavior the paper measures:
  // the scan materializes every vertex before the limit runs.
  PlanStats step_stats;
  auto step = t.Lower(QueryExecution::kStepWise);
  ASSERT_TRUE(step.ok());
  auto step_out = step->Run(*engine_, *session_, never_, &step_stats);
  ASSERT_TRUE(step_out.ok());
  EXPECT_EQ(step_out->rows.size(), 5u);
  EXPECT_EQ(step_stats.rows_out[0], 100u);
  EXPECT_EQ(step_stats.peak_frontier_rows, 100u);
  EXPECT_EQ(step_stats.barriers, 2u);
}

TEST_F(PlanBehaviorTest, StreamingTrailingCountNeverMaterializes) {
  Traversal t = Traversal::V().Out().Dedup().Count();

  PlanStats conflated_stats;
  auto conflated = t.Lower(QueryExecution::kConflated);
  ASSERT_TRUE(conflated.ok());
  auto conf_out = conflated->Run(*engine_, *session_, never_, &conflated_stats);
  ASSERT_TRUE(conf_out.ok());
  EXPECT_TRUE(conf_out->counted);
  EXPECT_EQ(conflated_stats.barriers, 0u);
  EXPECT_EQ(conflated_stats.peak_frontier_rows, 0u);
  EXPECT_EQ(conflated_stats.peak_frontier_bytes, 0u);

  PlanStats step_stats;
  auto step = t.Lower(QueryExecution::kStepWise);
  ASSERT_TRUE(step.ok());
  auto step_out = step->Run(*engine_, *session_, never_, &step_stats);
  ASSERT_TRUE(step_out.ok());
  EXPECT_EQ(step_out->count, conf_out->count);
  // The step-wise barriers really materialized the full expansion.
  EXPECT_EQ(step_stats.peak_frontier_rows, 100u);
  EXPECT_GT(step_stats.barriers, 0u);

  // A plan is reusable: a second run resets operator state.
  auto again = conflated->Run(*engine_, *session_, never_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->count, conf_out->count);
}

TEST_F(PlanBehaviorTest, CancelledPlanFailsUnderBothPolicies) {
  CancelToken cancelled;
  cancelled.Cancel();
  for (QueryExecution policy :
       {QueryExecution::kStepWise, QueryExecution::kConflated}) {
    auto plan = Traversal::V().Out().Dedup().Lower(policy);
    ASSERT_TRUE(plan.ok());
    auto r = plan->Run(*engine_, *session_, cancelled);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDeadlineExceeded());
  }
}

}  // namespace
}  // namespace gdbmicro
