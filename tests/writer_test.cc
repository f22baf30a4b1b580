// EpochManager and GraphWriter unit tests: the versioned-snapshot write
// path layered over the engines in PR 6. The cross-engine visibility
// golden (readers pinned to an old epoch while a writer publishes) lives
// in concurrency_test.cc; these tests cover the mechanisms in isolation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/engine.h"
#include "src/graph/epoch.h"
#include "src/graph/registry.h"
#include "src/graph/writer.h"
#include "src/storage/wal.h"

namespace gdbmicro {
namespace {

// --- EpochManager -----------------------------------------------------------

TEST(EpochManagerTest, PinUnpinTracksCounts) {
  EpochManager epochs;
  EXPECT_EQ(epochs.current(), 0u);
  uint64_t e = epochs.Pin();
  EXPECT_EQ(e, 0u);
  EXPECT_EQ(epochs.pinned(), 1u);
  uint64_t e2 = epochs.Pin();
  EXPECT_EQ(e2, 0u);
  EXPECT_EQ(epochs.pinned(), 2u);
  epochs.Unpin();
  epochs.Unpin();
  EXPECT_EQ(epochs.pinned(), 0u);
}

TEST(EpochManagerTest, PublishAdvancesTheEpoch) {
  EpochManager epochs;
  epochs.BeginApply();
  EXPECT_EQ(epochs.EndApply(), 1u);
  EXPECT_EQ(epochs.current(), 1u);
  EXPECT_EQ(epochs.Pin(), 1u);  // new readers see the new epoch
  epochs.Unpin();
}

TEST(EpochManagerTest, WriterWaitsForPinnedReadersToDrain) {
  EpochManager epochs;
  EXPECT_EQ(epochs.Pin(), 0u);
  std::atomic<bool> published{false};
  std::thread writer([&] {
    epochs.BeginApply();  // blocks: a reader pins epoch 0
    published.store(true);
    epochs.EndApply();
  });
  // The writer must report itself waiting, and must not get through.
  while (!epochs.writer_waiting()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(published.load());
  epochs.Unpin();  // drain -> writer proceeds
  writer.join();
  EXPECT_TRUE(published.load());
  EXPECT_EQ(epochs.current(), 1u);
}

TEST(EpochManagerTest, NewPinsBlockWhileWriterApplies) {
  EpochManager epochs;
  epochs.BeginApply();  // no pins: enters immediately, gate closed
  std::atomic<bool> pinned{false};
  uint64_t seen = 0;
  std::thread reader([&] {
    seen = epochs.Pin();  // blocks until EndApply
    pinned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pinned.load());
  epochs.EndApply();
  reader.join();
  // The late reader lands on the *published* epoch, never the one being
  // replaced — this is what makes a session's snapshot immutable.
  EXPECT_TRUE(pinned.load());
  EXPECT_EQ(seen, 1u);
  epochs.Unpin();
}

// --- GraphWriter ------------------------------------------------------------

class WriterTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    EngineOptions options;
    auto engine = OpenEngine(GetParam(), options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();
  }

  std::unique_ptr<GraphEngine> engine_;
  CancelToken never_;
};

TEST_P(WriterTest, CommitBindsPendingRefsAndPublishes) {
  GraphWriter writer(engine_.get());
  WriteBatch batch;
  PendingVertex a = batch.AddVertex("person", {{"name", PropertyValue("a")}});
  PendingVertex b = batch.AddVertex("person", {{"name", PropertyValue("b")}});
  batch.AddEdge(a, b, "knows", {});
  batch.SetVertexProperty(b, "age", PropertyValue(30));
  auto receipt = writer.Commit(batch);
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  ASSERT_EQ(receipt->vertex_ids.size(), 2u);
  ASSERT_EQ(receipt->edge_ids.size(), 1u);
  EXPECT_EQ(receipt->sequence, 1u);
  EXPECT_EQ(receipt->epoch, engine_->epochs().current());

  auto session = engine_->CreateSession();
  auto vertex = engine_->GetVertex(*session, receipt->vertex_ids[1]);
  ASSERT_TRUE(vertex.ok());
  const PropertyValue* age = FindProperty(vertex->properties, "age");
  ASSERT_NE(age, nullptr);
  EXPECT_EQ(age->int_value(), 30);
  auto edge = engine_->GetEdge(*session, receipt->edge_ids[0]);
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->src, receipt->vertex_ids[0]);
  EXPECT_EQ(edge->dst, receipt->vertex_ids[1]);
}

TEST_P(WriterTest, EachCommitPublishesOneEpoch) {
  GraphWriter writer(engine_.get());
  for (int i = 0; i < 3; ++i) {
    WriteBatch batch;
    batch.AddVertex("node", {});
    ASSERT_TRUE(writer.Commit(batch).ok());
  }
  EXPECT_EQ(engine_->epochs().current(), 3u);
  EXPECT_EQ(writer.commits(), 3u);
  EXPECT_EQ(writer.wal().flushes(), 3u);  // one durable write per commit
}

TEST_P(WriterTest, RemovesAreIdempotent) {
  GraphWriter writer(engine_.get());
  WriteBatch create;
  create.AddVertex("node", {});
  auto receipt = writer.Commit(create);
  ASSERT_TRUE(receipt.ok());
  VertexId id = receipt->vertex_ids[0];
  WriteBatch remove;
  remove.RemoveVertex(VertexRef(id));
  ASSERT_TRUE(writer.Commit(remove).ok());
  // Removing an already-removed vertex is OK (NotFound tolerated) — the
  // property that makes WAL replay after a crash safe to re-run.
  WriteBatch again;
  again.RemoveVertex(VertexRef(id));
  EXPECT_TRUE(writer.Commit(again).ok());
}

// Replay the WAL a live writer produced into a fresh engine instance and
// compare: recovery must reconstruct the same graph.
TEST_P(WriterTest, ReplayReconstructsTheGraph) {
  GraphWriter writer(engine_.get());
  std::vector<VertexId> vertices;
  for (int i = 0; i < 4; ++i) {
    WriteBatch batch;
    PendingVertex v = batch.AddVertex(
        "node", {{"i", PropertyValue(static_cast<int64_t>(i))}});
    if (!vertices.empty()) {
      batch.AddEdge(v, VertexRef(vertices.back()), "next", {});
    }
    auto receipt = writer.Commit(batch);
    ASSERT_TRUE(receipt.ok());
    vertices.push_back(receipt->vertex_ids[0]);
  }
  WriteBatch mutate;
  mutate.SetVertexProperty(VertexRef(vertices[1]), "touched",
                           PropertyValue(true));
  mutate.RemoveVertex(VertexRef(vertices[3]));
  ASSERT_TRUE(writer.Commit(mutate).ok());

  EngineOptions options;
  auto fresh = OpenEngine(GetParam(), options);
  ASSERT_TRUE(fresh.ok());
  auto stats = GraphWriter::Replay(writer.wal().log(), **fresh);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->commits_applied, 5u);
  EXPECT_TRUE(stats->tail.ok());

  auto live = engine_->CreateSession();
  auto replayed = (*fresh)->CreateSession();
  auto live_count = engine_->CountVertices(*live, never_);
  auto replayed_count = (*fresh)->CountVertices(*replayed, never_);
  ASSERT_TRUE(live_count.ok());
  ASSERT_TRUE(replayed_count.ok());
  EXPECT_EQ(*replayed_count, *live_count);
  auto live_edges = engine_->CountEdges(*live, never_);
  auto replayed_edges = (*fresh)->CountEdges(*replayed, never_);
  ASSERT_TRUE(live_edges.ok());
  ASSERT_TRUE(replayed_edges.ok());
  EXPECT_EQ(*replayed_edges, *live_edges);
  auto touched = (*fresh)->GetVertex(*replayed, vertices[1]);
  ASSERT_TRUE(touched.ok());
  const PropertyValue* flag = FindProperty(touched->properties, "touched");
  ASSERT_NE(flag, nullptr);
  EXPECT_TRUE(flag->bool_value());
  EXPECT_FALSE((*fresh)->GetVertex(*replayed, vertices[3]).ok());
}

TEST_P(WriterTest, DeadDeviceAbortsCommitWithStoreIntact) {
  GraphWriter writer(engine_.get());
  WriteBatch first;
  first.AddVertex("node", {});
  ASSERT_TRUE(writer.Commit(first).ok());
  uint64_t epoch_before = engine_->epochs().current();

  // The injector numbers the appends *it* sees; installed after the
  // first commit, the very next flush is append #1.
  FaultInjector fault(FaultMode::kFailAppend, 1);
  writer.wal().log().set_fault_injector(&fault);
  WriteBatch second;
  second.AddVertex("node", {});
  auto receipt = writer.Commit(second);
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kIOError);
  // The failed commit never touched the store: no epoch published, the
  // vertex count is unchanged.
  EXPECT_EQ(engine_->epochs().current(), epoch_before);
  auto session = engine_->CreateSession();
  auto count = engine_->CountVertices(*session, never_);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  writer.wal().log().set_fault_injector(nullptr);
}

TEST_P(WriterTest, ApplyWriteBatchDirectPathMatchesWriterSemantics) {
  WriteBatch batch;
  PendingVertex v = batch.AddVertex("node", {});
  batch.SetVertexProperty(v, "p", PropertyValue(1));
  std::vector<VertexId> ids;
  ASSERT_TRUE(ApplyWriteBatch(*engine_, batch, &ids, nullptr).ok());
  ASSERT_EQ(ids.size(), 1u);
  auto session = engine_->CreateSession();
  auto vertex = engine_->GetVertex(*session, ids[0]);
  ASSERT_TRUE(vertex.ok());
  EXPECT_NE(FindProperty(vertex->properties, "p"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, WriterTest,
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace gdbmicro
