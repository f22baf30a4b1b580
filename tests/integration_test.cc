// Integration tests across module boundaries: GraphSON file -> engine ->
// queries; generated dataset -> GraphSON round trip -> identical engine
// behaviour; suite runner over a GraphSON-sourced dataset; failure
// injection (cancellation mid-traversal, malformed input, unknown
// engines/datasets).

#include <gtest/gtest.h>

#include "src/core/queries.h"
#include "src/core/runner.h"
#include "src/datasets/generators.h"
#include "src/graph/registry.h"
#include "src/gson/graphson.h"
#include "src/query/algorithms.h"
#include "tests/temp_file.h"

namespace gdbmicro {
namespace {

TEST(IntegrationTest, GraphsonFileToEngineToQueries) {
  // Generate -> write GraphSON -> read back -> load -> query.
  datasets::GenOptions gen;
  gen.scale = 0.005;
  GraphData original = datasets::GenerateLdbc(gen);
  TempFile file("gdbmicro_integration.graphson");
  ASSERT_TRUE(WriteGraphSONFile(original, file.path()).ok());

  auto reloaded = ReadGraphSONFile(file.path());
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->VertexCount(), original.VertexCount());
  ASSERT_EQ(reloaded->EdgeCount(), original.EdgeCount());

  auto engine = OpenEngine("neo19", EngineOptions{});
  ASSERT_TRUE(engine.ok());
  auto mapping = (*engine)->BulkLoad(*reloaded);
  ASSERT_TRUE(mapping.ok());
  CancelToken never;
  auto session = (*engine)->CreateSession();
  EXPECT_EQ((*engine)->CountVertices(*session, never).value(),
            original.VertexCount());
  EXPECT_EQ((*engine)->CountEdges(*session, never).value(),
            original.EdgeCount());
}

TEST(IntegrationTest, GraphsonRoundTripPreservesQueryResults) {
  datasets::GenOptions gen;
  gen.scale = 0.004;
  GraphData original = datasets::GenerateYeast(gen);
  auto round = ReadGraphSON(WriteGraphSON(original));
  ASSERT_TRUE(round.ok());

  // Same engine, both datasets: identical observable results.
  CancelToken never;
  auto e1 = OpenEngine("sparksee", EngineOptions{});
  auto e2 = OpenEngine("sparksee", EngineOptions{});
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto m1 = (*e1)->BulkLoad(original);
  auto m2 = (*e2)->BulkLoad(*round);
  ASSERT_TRUE(m1.ok() && m2.ok());
  auto s1 = (*e1)->CreateSession();
  auto s2 = (*e2)->CreateSession();

  EXPECT_EQ((*e1)->DistinctEdgeLabels(*s1, never).value(),
            (*e2)->DistinctEdgeLabels(*s2, never).value());
  for (uint64_t idx = 0; idx < original.vertices.size(); idx += 131) {
    auto n1 = (*e1)->NeighborsOf(*s1, m1->vertex_ids[idx], Direction::kBoth,
                                 nullptr, never);
    auto n2 = (*e2)->NeighborsOf(*s2, m2->vertex_ids[idx], Direction::kBoth,
                                 nullptr, never);
    ASSERT_TRUE(n1.ok() && n2.ok());
    EXPECT_EQ(n1->size(), n2->size()) << idx;
  }
}

TEST(IntegrationTest, RunnerOverAllDatasets) {
  // Every generated dataset loads and answers a read probe on two
  // architecturally distant engines.
  core::RunnerOptions options;
  options.enable_cost_model = false;
  options.batch_iterations = 0;
  options.deadline = std::chrono::seconds(30);
  core::Runner runner(options);
  datasets::GenOptions gen;
  gen.scale = 0.002;
  auto specs = core::QueriesByNumber({8, 9, 14, 23});
  for (const std::string& name : datasets::AllDatasetNames()) {
    auto data = datasets::GenerateByName(name, gen);
    ASSERT_TRUE(data.ok()) << name;
    for (const char* engine : {"neo19", "sqlg"}) {
      auto results = runner.RunEngine(engine, *data, specs);
      ASSERT_TRUE(results.ok()) << name << "/" << engine;
      for (const auto& m : *results) {
        EXPECT_TRUE(m.status.ok()) << name << "/" << engine << "/" << m.query;
      }
    }
  }
}

TEST(IntegrationTest, CancellationInterruptsDeepTraversal) {
  datasets::GenOptions gen;
  gen.scale = 0.01;
  GraphData data = datasets::GenerateLdbc(gen);  // one dense component
  auto engine = OpenEngine("neo19", EngineOptions{});
  ASSERT_TRUE(engine.ok());
  auto mapping = (*engine)->BulkLoad(data);
  ASSERT_TRUE(mapping.ok());

  CancelToken cancelled;
  cancelled.Cancel();
  auto session = (*engine)->CreateSession();
  auto bfs = query::BreadthFirst(**engine, *session, mapping->vertex_ids[0],
                                 10, std::nullopt, cancelled);
  EXPECT_FALSE(bfs.ok());
  EXPECT_TRUE(bfs.status().IsDeadlineExceeded());

  auto sp = query::ShortestPath(**engine, *session, mapping->vertex_ids[0],
                                mapping->vertex_ids[1], std::nullopt, 10,
                                cancelled);
  EXPECT_FALSE(sp.ok());
}

TEST(IntegrationTest, UnknownEngineAndDatasetAreCleanErrors) {
  EXPECT_FALSE(OpenEngine("nonexistent", EngineOptions{}).ok());
  EXPECT_FALSE(datasets::GenerateByName("nonexistent", {}).ok());
  core::RunnerOptions options;
  core::Runner runner(options);
  GraphData data = datasets::GenerateYeast({.scale = 0.001, .seed = 1});
  auto r = runner.Load("nonexistent", data);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(IntegrationTest, CostModelOnlyAffectsTiming) {
  // Same dataset, cost model on vs off: identical results, different time
  // for the charged engine.
  datasets::GenOptions gen;
  gen.scale = 0.002;
  GraphData data = datasets::GenerateMiCo(gen);

  CancelToken never;
  EngineOptions plain;
  EngineOptions charged;
  charged.enable_cost_model = true;

  auto e1 = OpenEngine("blaze", plain);
  auto e2 = OpenEngine("blaze", charged);
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto m1 = (*e1)->BulkLoad(data);
  auto m2 = (*e2)->BulkLoad(data);
  ASSERT_TRUE(m1.ok() && m2.ok());
  auto s1 = (*e1)->CreateSession();
  auto s2 = (*e2)->CreateSession();
  EXPECT_EQ((*e1)->CountEdges(*s1, never).value(),
            (*e2)->CountEdges(*s2, never).value());
  auto n1 = (*e1)->NeighborsOf(*s1, m1->vertex_ids[3], Direction::kBoth,
                               nullptr, never);
  auto n2 = (*e2)->NeighborsOf(*s2, m2->vertex_ids[3], Direction::kBoth,
                               nullptr, never);
  ASSERT_TRUE(n1.ok() && n2.ok());
  EXPECT_EQ(n1->size(), n2->size());
}

TEST(IntegrationTest, EnginesAgreeOnMicrobenchmarkResults) {
  // The whole point of the methodology: every engine must return the SAME
  // answers for every read query; only timing differs. Run the read/
  // traversal catalog everywhere and compare item counts.
  datasets::GenOptions gen;
  gen.scale = 0.003;
  GraphData data = datasets::GenerateLdbc(gen);
  core::RunnerOptions options;
  options.enable_cost_model = false;
  options.batch_iterations = 0;
  options.deadline = std::chrono::seconds(60);
  core::Runner runner(options);
  auto specs = core::QueriesByNumber(
      {8, 9, 10, 11, 12, 13, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
       34, 35});

  std::map<std::string, uint64_t> reference;
  std::string reference_engine;
  RegisterBuiltinEngines();
  for (const std::string& engine : EngineRegistry::Instance().Names()) {
    auto results = runner.RunEngine(engine, data, specs);
    ASSERT_TRUE(results.ok()) << engine;
    for (const auto& m : *results) {
      if (m.query == "Q1") continue;
      ASSERT_TRUE(m.status.ok()) << engine << "/" << m.query;
      auto [it, inserted] = reference.emplace(m.query, m.items);
      if (!inserted) {
        EXPECT_EQ(m.items, it->second)
            << engine << " disagrees with " << reference_engine << " on "
            << m.query;
      }
    }
    if (reference_engine.empty()) reference_engine = engine;
  }
}

}  // namespace
}  // namespace gdbmicro
