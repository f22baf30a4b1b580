// Tests for the dataset generators (Table 3 shape tracking), the graph
// metrics, and the deterministic workload picker.

#include <gtest/gtest.h>

#include <set>

#include "src/datasets/generators.h"
#include "src/datasets/metrics.h"
#include "src/datasets/workload.h"

namespace gdbmicro {
namespace {

using datasets::ComputeStats;
using datasets::GenOptions;
using datasets::GraphStats;

GenOptions TestScale() {
  GenOptions options;
  options.scale = 0.01;  // 1/100 of paper sizes: fast tests
  return options;
}

TEST(GeneratorsTest, AllDatasetsValidateAndAreDeterministic) {
  for (const std::string& name : datasets::AllDatasetNames()) {
    auto a = datasets::GenerateByName(name, TestScale());
    ASSERT_TRUE(a.ok()) << name;
    EXPECT_TRUE(a->Validate().ok()) << name;
    EXPECT_GT(a->VertexCount(), 0u) << name;
    EXPECT_GT(a->EdgeCount(), 0u) << name;
    auto b = datasets::GenerateByName(name, TestScale());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->vertices.size(), b->vertices.size()) << name;
    ASSERT_EQ(a->edges.size(), b->edges.size()) << name;
    for (size_t i = 0; i < a->edges.size(); i += 97) {
      EXPECT_EQ(a->edges[i].src, b->edges[i].src) << name;
      EXPECT_EQ(a->edges[i].label, b->edges[i].label) << name;
    }
  }
}

TEST(GeneratorsTest, UnknownNameFails) {
  EXPECT_FALSE(datasets::GenerateByName("nope", TestScale()).ok());
}

TEST(GeneratorsTest, YeastShape) {
  GraphData data = datasets::GenerateYeast(TestScale());
  GraphStats s = ComputeStats(data);
  // Paper row: 2.3K nodes, 7.1K edges, 167 labels, dense-ish, ~100 comps.
  EXPECT_NEAR(static_cast<double>(s.vertices), 2361, 50);
  EXPECT_NEAR(static_cast<double>(s.edges), 7182, 100);
  EXPECT_GT(s.labels, 100u);
  EXPECT_LE(s.labels, 169u);
  EXPECT_GT(s.max_component, s.vertices * 9 / 10);
  // Only node properties.
  EXPECT_FALSE(data.vertices[0].properties.empty());
  EXPECT_TRUE(data.edges[0].properties.empty());
}

TEST(GeneratorsTest, MiCoShape) {
  GraphData data = datasets::GenerateMiCo(TestScale());
  GraphStats s = ComputeStats(data);
  // Labels: number of co-authored papers, at most 106 values.
  EXPECT_LE(s.labels, 106u);
  EXPECT_GT(s.labels, 50u);
  // Power-law hubs: max degree far above average.
  EXPECT_GT(static_cast<double>(s.max_degree), 20.0 * s.avg_degree);
}

TEST(GeneratorsTest, FreebaseSamplesShapes) {
  GraphData small = datasets::GenerateFreebase(datasets::FreebaseKind::kSmall,
                                               TestScale());
  GraphData medium = datasets::GenerateFreebase(
      datasets::FreebaseKind::kMedium, TestScale());
  GraphData topic = datasets::GenerateFreebase(datasets::FreebaseKind::kTopic,
                                               TestScale());

  // Frb-S and Frb-M have more vertices than edges (paper Table 3).
  EXPECT_GT(small.VertexCount(), small.EdgeCount());
  EXPECT_GT(medium.VertexCount(), medium.EdgeCount());
  // Frb-O is the dense topic subgraph: E > 2V.
  EXPECT_GT(topic.EdgeCount(), 2 * topic.VertexCount());

  GraphStats ss = ComputeStats(small, {.diameter_samples = 0});
  // Extreme fragmentation: a large fraction of vertices form tiny comps.
  EXPECT_GT(ss.components, ss.vertices / 10);
  EXPECT_GT(ss.modularity, 0.5);

  // Topic restriction: only the six Frb-O domains appear as labels.
  std::set<std::string> domains;
  for (const auto& v : topic.vertices) domains.insert(v.label);
  EXPECT_LE(domains.size(), 6u);
}

TEST(GeneratorsTest, LdbcShape) {
  GraphData data = datasets::GenerateLdbc(TestScale());
  GraphStats s = ComputeStats(data, {.diameter_samples = 0});
  // The paper's ldbc: ONE component, 15 labels, properties on nodes AND
  // edges, an order denser than the Freebase samples.
  EXPECT_EQ(s.components, 1u) << "ldbc must be a single connected component";
  EXPECT_LE(s.labels, 15u);
  EXPECT_GE(s.labels, 8u);
  EXPECT_GT(s.avg_degree, 8.0);
  bool edge_props = false;
  for (const auto& e : data.edges) {
    if (!e.properties.empty()) {
      edge_props = true;
      break;
    }
  }
  EXPECT_TRUE(edge_props);
  EXPECT_EQ(ComputeStats(data, {.diameter_samples = 0}).modularity, 0.0);
}

TEST(MetricsTest, HandComputedGraph) {
  // Two triangles sharing no vertices + 1 isolated vertex.
  GraphData data;
  for (int i = 0; i < 7; ++i) data.vertices.push_back({"n", {}});
  auto edge = [&](uint64_t a, uint64_t b) {
    data.edges.push_back({a, b, "l", {}});
  };
  edge(0, 1);
  edge(1, 2);
  edge(2, 0);
  edge(3, 4);
  edge(4, 5);
  edge(5, 3);
  GraphStats s = ComputeStats(data);
  EXPECT_EQ(s.vertices, 7u);
  EXPECT_EQ(s.edges, 6u);
  EXPECT_EQ(s.labels, 1u);
  EXPECT_EQ(s.components, 3u);  // two triangles + isolated vertex
  EXPECT_EQ(s.max_component, 3u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_NEAR(s.avg_degree, 12.0 / 7.0, 1e-9);
  EXPECT_EQ(s.diameter, 1u);  // triangle diameter
  // Two equal communities, no isolated degree: Q = 2 * (1/2 * 1/2) = 0.5.
  EXPECT_NEAR(s.modularity, 0.5, 1e-9);
}

TEST(WorkloadTest, DeterministicAcrossInstances) {
  GraphData data = datasets::GenerateYeast(TestScale());
  LoadMapping mapping;
  for (uint64_t i = 0; i < data.vertices.size(); ++i) {
    mapping.vertex_ids.push_back(i * 2);  // engine ids: even numbers
  }
  for (uint64_t i = 0; i < data.edges.size(); ++i) {
    mapping.edge_ids.push_back(i * 2 + 1);
  }
  datasets::Workload w1(&data, &mapping, 42);
  datasets::Workload w2(&data, &mapping, 42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(w1.ReadVertex(i), w2.ReadVertex(i));
    EXPECT_EQ(w1.ReadEdge(i), w2.ReadEdge(i));
    EXPECT_EQ(w1.EdgeLabel(i), w2.EdgeLabel(i));
    EXPECT_EQ(w1.VertexProperty(i), w2.VertexProperty(i));
  }
  datasets::Workload w3(&data, &mapping, 43);
  int diffs = 0;
  for (int i = 0; i < 50; ++i) {
    if (w1.ReadVertex(i) != w3.ReadVertex(i)) ++diffs;
  }
  EXPECT_GT(diffs, 25);  // different seed, different picks
}

TEST(WorkloadTest, DeletePoolDisjointFromReadPool) {
  GraphData data = datasets::GenerateMiCo(TestScale());
  LoadMapping mapping;
  for (uint64_t i = 0; i < data.vertices.size(); ++i) {
    mapping.vertex_ids.push_back(i);
  }
  for (uint64_t i = 0; i < data.edges.size(); ++i) {
    mapping.edge_ids.push_back(i);
  }
  datasets::Workload w(&data, &mapping, 7);
  std::set<VertexId> reads, deletes;
  for (int i = 0; i < 200; ++i) {
    reads.insert(w.ReadVertex(i));
    deletes.insert(w.DeleteVertex(i));
  }
  for (VertexId d : deletes) {
    EXPECT_EQ(reads.count(d), 0u) << "delete victim also sampled for reads";
  }
}

TEST(WorkloadTest, SampledPropertiesExist) {
  GraphData data = datasets::GenerateLdbc(TestScale());
  LoadMapping mapping;
  for (uint64_t i = 0; i < data.vertices.size(); ++i) {
    mapping.vertex_ids.push_back(i);
  }
  for (uint64_t i = 0; i < data.edges.size(); ++i) {
    mapping.edge_ids.push_back(i);
  }
  datasets::Workload w(&data, &mapping, 11);
  for (int i = 0; i < 20; ++i) {
    auto [name, value] = w.VertexProperty(i);
    bool found = false;
    for (const auto& v : data.vertices) {
      const PropertyValue* p = FindProperty(v.properties, name);
      if (p != nullptr && *p == value) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << name;
    // ldbc has edge properties, so these must exist too.
    auto [ename, evalue] = w.EdgeProperty(i);
    EXPECT_FALSE(ename.empty());
    (void)evalue;
  }
  EXPECT_GE(w.DegreeK(), 2u);
}

}  // namespace
}  // namespace gdbmicro
