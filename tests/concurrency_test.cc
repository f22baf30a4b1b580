// Concurrent-read conformance: N threads, each with its own QuerySession,
// must observe exactly the same graph as a single-threaded client — same
// counts, same label schema, same neighborhood multisets, same property
// search answers, same traversal/BFS results — on every engine, in both
// cost-model modes. This is the contract in src/graph/engine.h ("a loaded
// engine is an immutable snapshot for the read surface") made executable;
// CI additionally runs this binary under ThreadSanitizer
// (-DGDBMICRO_SANITIZE=thread), which turns any engine-level shared
// mutable state the sessions missed into a hard failure.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/datasets/generators.h"
#include "src/graph/registry.h"
#include "src/graph/writer.h"
#include "src/query/algorithms.h"
#include "src/query/traversal.h"

namespace gdbmicro {
namespace {

constexpr int kThreads = 4;

// Everything one client observes about the loaded graph through the read
// surface. operator== gives the conformance check; the members stay
// sorted/canonical so ordering differences between engines' native walks
// cannot produce false mismatches.
struct Observation {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  std::vector<std::string> edge_labels;
  // probe vertex index -> per-direction neighbor multiset
  std::vector<std::multiset<VertexId>> neighbors;
  std::vector<uint64_t> degrees;
  std::set<VertexId> property_hits;
  std::set<VertexId> bfs_visited;
  uint64_t q31_distinct_targets = 0;

  bool operator==(const Observation&) const = default;
};

// One client's full pass over the read surface, through the caller's
// session (callers own the session so the mixed-mode golden can observe
// twice through one epoch pin). Any error is reported through `ok`
// (gtest assertions are not thread-safe, so worker threads only record).
Observation Observe(const GraphEngine& engine, QuerySession& session_ref,
                    const LoadMapping& mapping,
                    const std::pair<std::string, PropertyValue>& probe_prop,
                    bool* ok) {
  Observation obs;
  CancelToken never;
  QuerySession* session = &session_ref;
  *ok = false;

  auto vcount = engine.CountVertices(*session, never);
  auto ecount = engine.CountEdges(*session, never);
  auto labels = engine.DistinctEdgeLabels(*session, never);
  if (!vcount.ok() || !ecount.ok() || !labels.ok()) return obs;
  obs.vertices = *vcount;
  obs.edges = *ecount;
  obs.edge_labels = *labels;

  for (uint64_t idx = 0; idx < mapping.vertex_ids.size(); idx += 29) {
    VertexId v = mapping.vertex_ids[idx];
    for (Direction dir :
         {Direction::kOut, Direction::kIn, Direction::kBoth}) {
      session->BeginQuery();
      auto nbrs = engine.NeighborsOf(*session, v, dir, nullptr, never);
      if (!nbrs.ok()) return obs;
      obs.neighbors.emplace_back(nbrs->begin(), nbrs->end());
    }
    session->BeginQuery();
    auto deg = engine.CountEdgesOf(*session, v, Direction::kBoth, never);
    if (!deg.ok()) return obs;
    obs.degrees.push_back(*deg);
  }

  session->BeginQuery();
  auto hits = engine.FindVerticesByProperty(*session, probe_prop.first,
                                            probe_prop.second, never);
  if (!hits.ok()) return obs;
  obs.property_hits.insert(hits->begin(), hits->end());

  session->BeginQuery();
  auto bfs = query::BreadthFirst(engine, *session, mapping.vertex_ids[0], 3,
                                 std::nullopt, never);
  if (!bfs.ok()) return obs;
  obs.bfs_visited.insert(bfs->visited.begin(), bfs->visited.end());

  // Q.31 through the plan layer (each client lowers its own plan).
  session->BeginQuery();
  auto q31 = query::Traversal::V().Out().Dedup().Count().ExecuteCount(
      engine, *session, never);
  if (!q31.ok()) return obs;
  obs.q31_distinct_targets = *q31;

  *ok = true;
  return obs;
}

class ConcurrencyTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { RegisterBuiltinEngines(); }
};

TEST_P(ConcurrencyTest, ThreadedReadsMatchSingleThreadedGolden) {
  datasets::GenOptions gen;
  gen.scale = 0.002;
  GraphData data = datasets::GenerateLdbc(gen);
  // A property that exists in the dataset, so the search has hits.
  ASSERT_FALSE(data.vertices.empty());
  std::pair<std::string, PropertyValue> probe_prop;
  for (const auto& v : data.vertices) {
    if (!v.properties.empty()) {
      probe_prop = v.properties.front();
      break;
    }
  }
  ASSERT_FALSE(probe_prop.first.empty());

  for (bool cost_model : {false, true}) {
    EngineOptions options;
    options.enable_cost_model = cost_model;
    // A budget large enough that the per-session arenas never trip: the
    // point here is equivalence, not exhaustion (that path is covered by
    // paper_shape_test).
    options.memory_budget_bytes = 0;
    auto engine =
        OpenEngine(GetParam(), options, /*honor_cost_model_env=*/false);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto mapping = (*engine)->BulkLoad(data);
    ASSERT_TRUE(mapping.ok()) << mapping.status();

    bool golden_ok = false;
    std::unique_ptr<QuerySession> golden_session = (*engine)->CreateSession();
    Observation golden =
        Observe(**engine, *golden_session, *mapping, probe_prop, &golden_ok);
    golden_session.reset();
    ASSERT_TRUE(golden_ok) << GetParam() << " single-threaded pass failed"
                           << " (cost model " << cost_model << ")";
    EXPECT_EQ(golden.vertices, data.vertices.size());
    EXPECT_EQ(golden.edges, data.edges.size());

    std::vector<Observation> observed(kThreads);
    std::vector<char> ok(kThreads, 0);  // vector<bool> is not thread-safe
    {
      std::vector<std::thread> clients;
      clients.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
          bool client_ok = false;
          std::unique_ptr<QuerySession> session = (*engine)->CreateSession();
          observed[static_cast<size_t>(t)] =
              Observe(**engine, *session, *mapping, probe_prop, &client_ok);
          ok[static_cast<size_t>(t)] = client_ok ? 1 : 0;
        });
      }
      for (std::thread& c : clients) c.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(ok[static_cast<size_t>(t)])
          << GetParam() << " client " << t << " failed (cost model "
          << cost_model << ")";
      EXPECT_TRUE(observed[static_cast<size_t>(t)] == golden)
          << GetParam() << " client " << t
          << " observed a different graph (cost model " << cost_model
          << ")";
    }
  }
}

// The PR-6 mixed-mode golden: reader sessions pinned to epoch E keep
// observing the pre-batch snapshot while a writer commits the next epoch,
// and only sessions opened after publication see the new graph.
//
// The epoch scheme is drain-on-publish (see src/graph/epoch.h): the
// writer logs its batch to the WAL concurrently with the readers, then
// blocks in BeginApply until every pinned session closes. So the
// observable contract is exactly: (1) while any reader session is open,
// the store stays byte-identical to the pre-batch golden even though the
// commit is already in flight (writer_waiting() is the in-flight probe);
// (2) a session's entire lifetime sees one snapshot; (3) after the
// readers drain, the commit applies, the epoch advances, and new
// sessions observe the updated graph.
TEST_P(ConcurrencyTest, PinnedReadersKeepTheirSnapshotWhileAWriterCommits) {
  constexpr int kReaders = 3;
  datasets::GenOptions gen;
  gen.scale = 0.002;
  GraphData data = datasets::GenerateLdbc(gen);
  ASSERT_FALSE(data.vertices.empty());
  std::pair<std::string, PropertyValue> probe_prop;
  for (const auto& v : data.vertices) {
    if (!v.properties.empty()) {
      probe_prop = v.properties.front();
      break;
    }
  }

  EngineOptions options;
  options.memory_budget_bytes = 0;
  auto engine = OpenEngine(GetParam(), options, /*honor_cost_model_env=*/false);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto mapping = (*engine)->BulkLoad(data);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  EpochManager& epochs = (*engine)->epochs();
  uint64_t epoch_before = epochs.current();

  // The golden pass closes its session before the write phase: a live
  // pin would block the writer forever.
  bool golden_ok = false;
  std::unique_ptr<QuerySession> golden_session = (*engine)->CreateSession();
  Observation golden =
      Observe(**engine, *golden_session, *mapping, probe_prop, &golden_ok);
  golden_session.reset();
  ASSERT_TRUE(golden_ok);

  GraphWriter writer(engine->get());
  std::atomic<int> readers_pinned{0};
  std::vector<Observation> before(kReaders), during(kReaders);
  std::vector<char> ok_before(kReaders, 0), ok_during(kReaders, 0);
  std::vector<uint64_t> session_epochs(kReaders, ~0ull);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      std::unique_ptr<QuerySession> session = (*engine)->CreateSession();
      session_epochs[i] = session->epoch();
      readers_pinned.fetch_add(1);
      bool pass_ok = false;
      before[i] = Observe(**engine, *session, *mapping, probe_prop, &pass_ok);
      ok_before[i] = pass_ok ? 1 : 0;
      // Wait until the writer's commit is in flight and blocked on our
      // pins, then read everything again through the *same* session: the
      // snapshot must not have moved underneath us.
      while (!epochs.writer_waiting()) {
        std::this_thread::yield();
      }
      during[i] = Observe(**engine, *session, *mapping, probe_prop, &pass_ok);
      ok_during[i] = pass_ok ? 1 : 0;
    });  // session closes here: the reader unpins and the writer drains
  }

  // Start the commit only once every reader holds its pin, so the apply
  // phase is guaranteed to find the gate contended.
  while (readers_pinned.load() < kReaders) {
    std::this_thread::yield();
  }
  WriteBatch batch;
  PendingVertex added = batch.AddVertex(
      "person", {{"mixed_golden", PropertyValue(true)}});
  batch.AddEdge(added, VertexRef(mapping->vertex_ids[0]), "knows", {});
  batch.SetVertexProperty(VertexRef(mapping->vertex_ids[0]), "touched",
                          PropertyValue(true));
  auto receipt = writer.Commit(batch);
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  for (std::thread& r : readers) r.join();

  for (int t = 0; t < kReaders; ++t) {
    size_t i = static_cast<size_t>(t);
    ASSERT_TRUE(ok_before[i]) << GetParam() << " reader " << t;
    ASSERT_TRUE(ok_during[i]) << GetParam() << " reader " << t;
    EXPECT_EQ(session_epochs[i], epoch_before) << GetParam();
    EXPECT_TRUE(before[i] == golden)
        << GetParam() << " reader " << t
        << " saw a different graph before the commit";
    EXPECT_TRUE(during[i] == golden)
        << GetParam() << " reader " << t
        << " saw the write leak into its pinned snapshot";
  }

  // Publication: the epoch advanced and a fresh session sees the batch.
  EXPECT_EQ(epochs.current(), epoch_before + 1);
  EXPECT_EQ(receipt->epoch, epoch_before + 1);
  std::unique_ptr<QuerySession> after = (*engine)->CreateSession();
  EXPECT_EQ(after->epoch(), epoch_before + 1);
  CancelToken never;
  auto vcount = (*engine)->CountVertices(*after, never);
  auto ecount = (*engine)->CountEdges(*after, never);
  ASSERT_TRUE(vcount.ok());
  ASSERT_TRUE(ecount.ok());
  EXPECT_EQ(*vcount, golden.vertices + 1);
  EXPECT_EQ(*ecount, golden.edges + 1);
  ASSERT_EQ(receipt->vertex_ids.size(), 1u);
  auto added_vertex = (*engine)->GetVertex(*after, receipt->vertex_ids[0]);
  ASSERT_TRUE(added_vertex.ok());
  EXPECT_NE(FindProperty(added_vertex->properties, "mixed_golden"), nullptr);
  auto touched = (*engine)->GetVertex(*after, mapping->vertex_ids[0]);
  ASSERT_TRUE(touched.ok());
  EXPECT_NE(FindProperty(touched->properties, "touched"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ConcurrencyTest,
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace gdbmicro
