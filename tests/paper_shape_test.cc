// Paper-shape tests: robust qualitative assertions of the findings the
// reproduction targets (the "paper shape" note of each gdbmicro_suite
// report in bench/suite.cc). These deliberately avoid
// tight timing margins — each asserts an effect the paper reports that is
// either structural (failures, space ratios, result sets) or separated by
// an order of magnitude.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/datasets/generators.h"
#include "src/graph/registry.h"
#include "src/query/algorithms.h"
#include "src/query/traversal.h"
#include "src/util/timer.h"

namespace gdbmicro {
namespace {

GraphData HubGraph() {
  datasets::GenOptions gen;
  gen.scale = 0.01;
  return datasets::GenerateFreebase(datasets::FreebaseKind::kTopic, gen);
}

// Fig. 1(a): Titan's delta-encoded adjacency lists are the most compact
// representation of a hub-heavy graph; BlazeGraph's journal + three
// statement indexes are the least compact, by a wide margin.
TEST(PaperShapeTest, TitanSmallestBlazeLargestOnHubGraphs) {
  GraphData data = HubGraph();
  std::map<std::string, uint64_t> bytes;
  for (const char* name : {"titan10", "neo19", "blaze"}) {
    auto engine = OpenEngine(name, EngineOptions{});
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->BulkLoad(data).ok());
    bytes[name] = (*engine)->CheckpointBytes();
  }
  EXPECT_LT(bytes["titan10"], bytes["neo19"]);
  EXPECT_GT(bytes["blaze"], 2 * bytes["titan10"]);
}

// Fig. 1(b): OrientDB pays a per-edge-label cluster overhead — on a
// label-heavy dataset (frb-s regime) its footprint grows with |L| even
// when |E| stays fixed.
TEST(PaperShapeTest, OrientFootprintGrowsWithLabelCardinality) {
  auto build = [](int labels) -> uint64_t {
    auto engine = OpenEngine("orient", EngineOptions{});
    EXPECT_TRUE(engine.ok());
    std::vector<VertexId> v;
    for (int i = 0; i < 200; ++i) {
      v.push_back((*engine)->AddVertex("n", {}).value());
    }
    for (int i = 0; i < 1000; ++i) {
      (*engine)
          ->AddEdge(v[i % 200], v[(i * 7 + 1) % 200],
                    "label_" + std::to_string(i % labels), {})
          .value();
    }
    return (*engine)->CheckpointBytes();
  };
  uint64_t few = build(4);
  uint64_t many = build(400);
  EXPECT_GT(many, few + 100 * 16384 / 2)  // ~per-cluster page overhead
      << "per-label clusters should dominate the footprint";
}

// Fig. 5(b) vs Fig. 6: sparksee's memory exhaustion is specific to the
// degree-filter path; a BFS over the same graph under the same budget
// succeeds.
TEST(PaperShapeTest, SparkseeDegreeFilterOomButBfsCompletes) {
  GraphData data = HubGraph();
  EngineOptions options;
  options.memory_budget_bytes = 256 * 1024;
  auto engine = OpenEngine("sparksee", options);
  ASSERT_TRUE(engine.ok());
  auto mapping = (*engine)->BulkLoad(data);
  ASSERT_TRUE(mapping.ok());
  CancelToken never;
  auto session = (*engine)->CreateSession();

  session->BeginQuery();
  auto degree = query::Traversal::V()
                    .WhereDegreeAtLeast(Direction::kBoth, 4)
                    .Count()
                    .ExecuteCount(**engine, *session, never);
  ASSERT_FALSE(degree.ok());
  EXPECT_TRUE(degree.status().IsResourceExhausted()) << degree.status();

  session->BeginQuery();
  auto bfs = query::BreadthFirst(**engine, *session, mapping->vertex_ids[1],
                                 4, std::nullopt, never);
  EXPECT_TRUE(bfs.ok()) << bfs.status();
}

// Fig. 3(b): the Neo4j 3.0 wrapper makes single CUD operations an order
// of magnitude slower than 1.9, while leaving bulk load competitive.
TEST(PaperShapeTest, Neo30WrapperSlowsSingleWrites) {
  EngineOptions options;
  options.enable_cost_model = true;
  auto v19 = OpenEngine("neo19", options);
  auto v30 = OpenEngine("neo30", options);
  ASSERT_TRUE(v19.ok() && v30.ok());

  auto time_insert = [](GraphEngine& engine) {
    Timer timer;
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(engine.AddVertex("n", {}).ok());
    }
    return timer.ElapsedMicros() / 5;
  };
  int64_t t19 = time_insert(**v19);
  int64_t t30 = time_insert(**v30);
  EXPECT_LT(t19, 300) << "neo19 single insert should be microsecond-class";
  EXPECT_GT(t30, 10 * t19) << "the 3.0 wrapper should dominate";
}

// Fig. 3(c): Titan deletions are tombstones — an order of magnitude
// cheaper than its insertions. Each call is timed alone and each side's
// fastest call compared, so a preempted call cannot flip the result.
TEST(PaperShapeTest, TitanTombstoneDeletesAreCheap) {
  EngineOptions options;
  options.enable_cost_model = true;
  auto engine = OpenEngine("titan05", options);
  ASSERT_TRUE(engine.ok());
  auto a = (*engine)->AddVertex("n", {});
  auto b = (*engine)->AddVertex("n", {});
  std::vector<EdgeId> edges;
  int64_t insert_us = std::numeric_limits<int64_t>::max();
  for (int i = 0; i < 5; ++i) {
    Timer timer;
    edges.push_back((*engine)->AddEdge(*a, *b, "l", {}).value());
    insert_us = std::min(insert_us, timer.ElapsedMicros());
  }
  int64_t delete_us = std::numeric_limits<int64_t>::max();
  for (EdgeId e : edges) {
    Timer timer;
    ASSERT_TRUE((*engine)->RemoveEdge(e).ok());
    delete_us = std::min(delete_us, timer.ElapsedMicros());
  }
  EXPECT_LT(delete_us * 5, insert_us)
      << "tombstone deletes should be far cheaper than the write path";
}

// §6.4 indexing: neo19/orient/sqlg/titan exploit a user attribute index;
// neo30/sparksee/arango accept it without any effect on the search plan;
// blaze cannot create one. Either way results are identical.
TEST(PaperShapeTest, IndexAdoptionMatrix) {
  datasets::GenOptions gen;
  gen.scale = 0.01;
  GraphData data = datasets::GenerateMiCo(gen);
  CancelToken never;

  const std::pair<const char*, bool> kUsesIndex[] = {
      {"neo19", true},   {"orient", true},   {"sqlg", true},
      {"titan10", true}, {"neo30", false},   {"sparksee", false},
      {"arango", false}};
  for (const auto& [name, uses_index] : kUsesIndex) {
    auto engine = OpenEngine(name, EngineOptions{});
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ((*engine)->info().supports_property_index, uses_index) << name;
    ASSERT_TRUE((*engine)->BulkLoad(data).ok());
    auto session = (*engine)->CreateSession();
    auto probe = data.vertices[7].properties.front();
    auto before = (*engine)->FindVerticesByProperty(*session, probe.first,
                                                    probe.second, never);
    ASSERT_TRUE(before.ok()) << name;
    Status created = (*engine)->CreateVertexPropertyIndex(probe.first);
    ASSERT_TRUE(created.ok()) << name << ": " << created;
    auto after = (*engine)->FindVerticesByProperty(*session, probe.first,
                                                   probe.second, never);
    ASSERT_TRUE(after.ok()) << name;
    EXPECT_EQ(before->size(), after->size()) << name;
  }
  auto blaze = OpenEngine("blaze", EngineOptions{});
  ASSERT_TRUE(blaze.ok());
  EXPECT_TRUE((*blaze)->CreateVertexPropertyIndex("name").IsUnimplemented());
}

// §6.2: label-filtered expansion on sqlg touches exactly one join table
// and must not degrade with the number of *other* edge labels, while its
// unfiltered expansion does.
TEST(PaperShapeTest, SqlgLabelFilterIndependentOfLabelCount) {
  auto engine = OpenEngine("sqlg", EngineOptions{});
  ASSERT_TRUE(engine.ok());
  std::vector<VertexId> v;
  for (int i = 0; i < 50; ++i) {
    v.push_back((*engine)->AddVertex("n", {}).value());
  }
  // One "hot" label + 800 cold tables.
  for (int i = 0; i < 200; ++i) {
    (*engine)->AddEdge(v[0], v[1 + i % 49], "hot", {}).value();
  }
  for (int i = 0; i < 800; ++i) {
    (*engine)
        ->AddEdge(v[2], v[3], "cold_" + std::to_string(i), {})
        .value();
  }
  CancelToken never;
  auto session = (*engine)->CreateSession();
  // Each side's fastest of five 50-call batches, so a preempted batch
  // cannot flip the result.
  auto fastest_batch_us = [&](const std::string* label) {
    int64_t fastest = std::numeric_limits<int64_t>::max();
    for (int batch = 0; batch < 5; ++batch) {
      Timer timer;
      for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(
            (*engine)->EdgesOf(*session, v[0], Direction::kOut, label, never)
                .ok());
      }
      fastest = std::min(fastest, timer.ElapsedMicros());
    }
    return fastest;
  };
  std::string hot = "hot";
  int64_t filtered = fastest_batch_us(&hot);
  int64_t unfiltered = fastest_batch_us(nullptr);
  EXPECT_GT(unfiltered, 3 * filtered)
      << "unfiltered expansion must pay the union over every edge table";
}

// The conflation asymmetry behind Fig. 5(b)'s Q31 row: sqlg's adapter
// conflates V().out().dedup() into one scan; the result matches the
// step-wise execution of a non-conflating engine.
TEST(PaperShapeTest, ConflatedQ31MatchesStepwise) {
  datasets::GenOptions gen;
  gen.scale = 0.005;
  GraphData data = datasets::GenerateLdbc(gen);
  CancelToken never;
  std::map<std::string, uint64_t> counts;
  for (const char* name : {"sqlg", "neo19"}) {
    auto engine = OpenEngine(name, EngineOptions{});
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->BulkLoad(data).ok());
    auto session = (*engine)->CreateSession();
    auto n = query::Traversal::V().Out().Dedup().Count().ExecuteCount(
        **engine, *session, never);
    ASSERT_TRUE(n.ok());
    counts[name] = *n;
  }
  EXPECT_EQ(counts["sqlg"], counts["neo19"]);
}

}  // namespace
}  // namespace gdbmicro
