// Tests for the Gremlin-style traversal machine and the BFS/shortest-path
// algorithms, parameterized across all engines: every engine must produce
// identical query results on the same graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/graph/registry.h"
#include "src/query/algorithms.h"
#include "src/query/traversal.h"

namespace gdbmicro {
namespace {

using query::BreadthFirst;
using query::ShortestPath;
using query::Traversal;

// Fixture builds a known small social graph:
//
//   p0 -knows-> p1 -knows-> p2 -knows-> p3     (chain)
//   p0 -knows-> p2                              (shortcut)
//   p4                                          (isolated person)
//   post0 -hasCreator-> p1, post0 -hasTag-> t0
class QueryTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    RegisterBuiltinEngines();
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
    ASSERT_TRUE(engine_->AddEdge(p_[0], p_[1], "knows", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(p_[1], p_[2], "knows", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(p_[2], p_[3], "knows", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(p_[0], p_[2], "knows", {}).ok());
    auto post = engine_->AddVertex("post", {});
    ASSERT_TRUE(post.ok());
    post_ = *post;
    auto tag = engine_->AddVertex("tag", {});
    ASSERT_TRUE(tag.ok());
    tag_ = *tag;
    ASSERT_TRUE(engine_->AddEdge(post_, p_[1], "hasCreator", {}).ok());
    ASSERT_TRUE(engine_->AddEdge(post_, tag_, "hasTag", {}).ok());
  }

  std::unique_ptr<GraphEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  VertexId p_[5];
  VertexId post_ = 0;
  VertexId tag_ = 0;
  CancelToken never_;
};

TEST_P(QueryTest, SourceCounts) {
  EXPECT_EQ(Traversal::V().Count().ExecuteCount(*engine_, *session_, never_).value(), 7u);
  EXPECT_EQ(Traversal::E().Count().ExecuteCount(*engine_, *session_, never_).value(), 6u);
}

TEST_P(QueryTest, HasLabelFilter) {
  EXPECT_EQ(Traversal::V()
                .HasLabel("person")
                .Count()
                .ExecuteCount(*engine_, *session_, never_)
                .value(),
            5u);
  EXPECT_EQ(Traversal::E()
                .HasLabel("knows")
                .Count()
                .ExecuteCount(*engine_, *session_, never_)
                .value(),
            4u);
}

TEST_P(QueryTest, HasPropertyFilter) {
  auto ids = Traversal::V()
                 .Has("name", PropertyValue("cyd"))
                 .ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, std::vector<uint64_t>{p_[2]});
}

TEST_P(QueryTest, OutInBothHops) {
  auto out = Traversal::V(p_[0]).Out().ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(std::set<uint64_t>(out->begin(), out->end()),
            (std::set<uint64_t>{p_[1], p_[2]}));

  auto in = Traversal::V(p_[2]).In().ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(std::set<uint64_t>(in->begin(), in->end()),
            (std::set<uint64_t>{p_[0], p_[1]}));

  auto both = Traversal::V(p_[1]).Both().ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(std::set<uint64_t>(both->begin(), both->end()),
            (std::set<uint64_t>{p_[0], p_[2], post_}));
}

TEST_P(QueryTest, TwoHopTraversalWithDedup) {
  auto two_hop =
      Traversal::V(p_[0]).Out().Out().Dedup().ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(two_hop.ok());
  // p0 -> {p1, p2} -> {p2, p3} dedup => {p2, p3}
  EXPECT_EQ(std::set<uint64_t>(two_hop->begin(), two_hop->end()),
            (std::set<uint64_t>{p_[2], p_[3]}));
}

TEST_P(QueryTest, EdgeStepsAndLabels) {
  auto labels = Traversal::V(post_)
                    .OutE()
                    .Label()
                    .Dedup()
                    .ExecuteValues(*engine_, *session_, never_);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(std::set<std::string>(labels->begin(), labels->end()),
            (std::set<std::string>{"hasCreator", "hasTag"}));

  auto in_e = Traversal::V(p_[1]).InE().Label().ExecuteValues(*engine_, *session_, never_);
  ASSERT_TRUE(in_e.ok());
  EXPECT_EQ(std::set<std::string>(in_e->begin(), in_e->end()),
            (std::set<std::string>{"knows", "hasCreator"}));
}

TEST_P(QueryTest, LabelRestrictedHop) {
  auto knows_only =
      Traversal::V(p_[1]).Both(std::string("knows")).ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(knows_only.ok());
  EXPECT_EQ(std::set<uint64_t>(knows_only->begin(), knows_only->end()),
            (std::set<uint64_t>{p_[0], p_[2]}));
}

TEST_P(QueryTest, DegreeFilter) {
  // Vertices with bothE degree >= 3: p1 (knows x3? p1: in from p0, out to
  // p2, in hasCreator = 3), p2 (in p1, in p0, out p3 = 3), p0 has 2,
  // post has 2.
  auto ids = Traversal::V()
                 .WhereDegreeAtLeast(Direction::kBoth, 3)
                 .ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(std::set<uint64_t>(ids->begin(), ids->end()),
            (std::set<uint64_t>{p_[1], p_[2]}));
}

TEST_P(QueryTest, GlobalOutDedup) {
  // Q.31 shape: nodes having an incoming edge.
  auto n = Traversal::V().Out().Dedup().Count().ExecuteCount(*engine_, *session_, never_);
  ASSERT_TRUE(n.ok());
  // Targets: p1, p2, p3, tag  (post and p0 and p4 have no incoming edge).
  EXPECT_EQ(*n, 4u);
}

TEST_P(QueryTest, MissingElementSourceYieldsEmpty) {
  // g.V(id)/g.E(id) on a missing element must yield an empty traverser
  // set on every engine (Gremlin semantics), not propagate NotFound.
  const uint64_t no_such = 0x7FFFFFFFFFFFULL;
  auto v = Traversal::V(no_such).ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_TRUE(v->empty());
  auto e = Traversal::E(no_such).ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_TRUE(e->empty());
  auto n = Traversal::V(no_such).Out().Count().ExecuteCount(*engine_, *session_, never_);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0u);
}

TEST_P(QueryTest, LimitStep) {
  auto limited = Traversal::V().Limit(3).ExecuteIds(*engine_, *session_, never_);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 3u);
}

TEST_P(QueryTest, CancelledTraversalFails) {
  CancelToken cancelled;
  cancelled.Cancel();
  auto r = Traversal::V().Out().Dedup().Execute(*engine_, *session_, cancelled);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded());
}

TEST_P(QueryTest, BreadthFirstDepths) {
  auto d1 = BreadthFirst(*engine_, *session_, p_[0], 1, std::nullopt, never_);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(std::set<VertexId>(d1->visited.begin(), d1->visited.end()),
            (std::set<VertexId>{p_[1], p_[2]}));

  auto d2 = BreadthFirst(*engine_, *session_, p_[0], 2, std::nullopt, never_);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(std::set<VertexId>(d2->visited.begin(), d2->visited.end()),
            (std::set<VertexId>{p_[1], p_[2], p_[3], post_}));
  EXPECT_EQ(d2->depth_reached, 2);

  // Label-filtered BFS never leaves the knows subgraph.
  auto knows = BreadthFirst(*engine_, *session_, p_[0], 5, std::string("knows"), never_);
  ASSERT_TRUE(knows.ok());
  EXPECT_EQ(std::set<VertexId>(knows->visited.begin(), knows->visited.end()),
            (std::set<VertexId>{p_[1], p_[2], p_[3]}));

  // Isolated vertex: nothing reachable.
  auto isolated = BreadthFirst(*engine_, *session_, p_[4], 3, std::nullopt, never_);
  ASSERT_TRUE(isolated.ok());
  EXPECT_TRUE(isolated->visited.empty());
}

TEST_P(QueryTest, BreadthFirstStoreSemanticsExcludeStart) {
  // The Gremlin store(vs) contract (see BfsResult in algorithms.h): vs is
  // seeded with the start, so `visited` reports only *reached* vertices —
  // the start never appears, even when a cycle leads back to it.
  auto cycle_a = engine_->AddVertex("cycle", {});
  auto cycle_b = engine_->AddVertex("cycle", {});
  auto cycle_c = engine_->AddVertex("cycle", {});
  ASSERT_TRUE(cycle_a.ok() && cycle_b.ok() && cycle_c.ok());
  ASSERT_TRUE(engine_->AddEdge(*cycle_a, *cycle_b, "ring", {}).ok());
  ASSERT_TRUE(engine_->AddEdge(*cycle_b, *cycle_c, "ring", {}).ok());
  ASSERT_TRUE(engine_->AddEdge(*cycle_c, *cycle_a, "ring", {}).ok());

  auto bfs = BreadthFirst(*engine_, *session_, *cycle_a, 5, std::string("ring"), never_);
  ASSERT_TRUE(bfs.ok());
  EXPECT_EQ(std::set<VertexId>(bfs->visited.begin(), bfs->visited.end()),
            (std::set<VertexId>{*cycle_b, *cycle_c}));
  EXPECT_EQ(std::count(bfs->visited.begin(), bfs->visited.end(), *cycle_a),
            0);
  // |stored| == |visited| + 1: both neighbors reached in one hop, done.
  EXPECT_EQ(bfs->depth_reached, 1);

  // A self-loop on the start is likewise never reported: the start is
  // already in vs when its own neighborhood is expanded.
  auto looped = engine_->AddVertex("cycle", {});
  ASSERT_TRUE(looped.ok());
  ASSERT_TRUE(engine_->AddEdge(*looped, *looped, "ring", {}).ok());
  auto self = BreadthFirst(*engine_, *session_, *looped, 3, std::string("ring"), never_);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self->visited.empty());
  EXPECT_EQ(self->depth_reached, 0);
}

TEST_P(QueryTest, ShortestPaths) {
  auto direct = ShortestPath(*engine_, *session_, p_[0], p_[3], std::nullopt, 10, never_);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct->found);
  // p0 -> p2 -> p3 via the shortcut: length 3 vertices.
  EXPECT_EQ(direct->path.size(), 3u);
  EXPECT_EQ(direct->path.front(), p_[0]);
  EXPECT_EQ(direct->path.back(), p_[3]);

  auto to_self = ShortestPath(*engine_, *session_, p_[1], p_[1], std::nullopt, 10, never_);
  ASSERT_TRUE(to_self.ok());
  EXPECT_EQ(to_self->path, std::vector<VertexId>{p_[1]});

  auto unreachable =
      ShortestPath(*engine_, *session_, p_[0], p_[4], std::nullopt, 10, never_);
  ASSERT_TRUE(unreachable.ok());
  EXPECT_FALSE(unreachable->found);

  // Label-restricted: tag is reachable only through post edges, so a
  // "knows"-only search fails.
  auto labeled =
      ShortestPath(*engine_, *session_, p_[0], tag_, std::string("knows"), 10, never_);
  ASSERT_TRUE(labeled.ok());
  EXPECT_FALSE(labeled->found);
}

TEST_P(QueryTest, ShortestPathDepthBound) {
  // p0 -> p3 needs 2 hops; a 1-hop budget must report unreachable with an
  // empty path, on both execution routes.
  for (query::PathMode mode :
       {query::PathMode::kAuto, query::PathMode::kFrontierOnly}) {
    auto bounded = ShortestPath(*engine_, *session_, p_[0], p_[3],
                                std::nullopt, 1, never_, mode);
    ASSERT_TRUE(bounded.ok());
    EXPECT_FALSE(bounded->found);
    EXPECT_TRUE(bounded->path.empty());
  }
}

TEST_P(QueryTest, ParallelEdgesVisitOnce) {
  // A duplicate knows edge must not duplicate BFS results or shorten the
  // shortest path.
  ASSERT_TRUE(engine_->AddEdge(p_[0], p_[1], "knows", {}).ok());
  auto bfs = BreadthFirst(*engine_, *session_, p_[0], 1, std::nullopt, never_);
  ASSERT_TRUE(bfs.ok());
  EXPECT_EQ(std::count(bfs->visited.begin(), bfs->visited.end(), p_[1]), 1);
  auto sp = ShortestPath(*engine_, *session_, p_[0], p_[3], std::nullopt, 10,
                         never_);
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp->path.size(), 3u);
}

TEST_P(QueryTest, UnknownVertexIdsStayCheap) {
  // Regression: an id far beyond the engine's id bound must not make the
  // dense visited set allocate proportionally to the id value (it spills
  // to the sparse overflow set instead). Whatever the engine's
  // missing-vertex semantics, the query must return (not crash) and both
  // execution modes must agree.
  const VertexId no_such = 0x7FFFFFFFFFFFULL;
  auto bfs_auto = BreadthFirst(*engine_, *session_, no_such, 2, std::nullopt,
                               never_, query::PathMode::kAuto);
  auto bfs_frontier =
      BreadthFirst(*engine_, *session_, no_such, 2, std::nullopt, never_,
                   query::PathMode::kFrontierOnly);
  EXPECT_EQ(bfs_auto.ok(), bfs_frontier.ok());
  if (bfs_auto.ok()) {
    EXPECT_EQ(bfs_auto->visited, bfs_frontier->visited);
  }
  auto sp = ShortestPath(*engine_, *session_, p_[0], no_such, std::nullopt,
                         5, never_);
  if (sp.ok()) {
    EXPECT_FALSE(sp->found);
  }
}

TEST_P(QueryTest, IndexedRoutePreservesGoldenAnswers) {
  // Building the optional path index must not change any Q.32-Q.35
  // answer: re-run the golden assertions from BreadthFirstDepths /
  // ShortestPaths with the index live and verify it actually served the
  // label-free queries.
  ASSERT_TRUE(engine_->BuildPathIndex(never_).ok());

  auto d2 = BreadthFirst(*engine_, *session_, p_[0], 2, std::nullopt, never_);
  ASSERT_TRUE(d2.ok());
  EXPECT_TRUE(d2->stats.used_index);
  EXPECT_EQ(std::set<VertexId>(d2->visited.begin(), d2->visited.end()),
            (std::set<VertexId>{p_[1], p_[2], p_[3], post_}));
  EXPECT_EQ(d2->depth_reached, 2);

  auto direct = ShortestPath(*engine_, *session_, p_[0], p_[3], std::nullopt,
                             10, never_);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->stats.used_index);
  ASSERT_TRUE(direct->found);
  EXPECT_EQ(direct->path.size(), 3u);

  // source == target: {src}, found, no existence check — on both routes.
  auto to_self = ShortestPath(*engine_, *session_, p_[1], p_[1], std::nullopt,
                              10, never_);
  ASSERT_TRUE(to_self.ok());
  EXPECT_EQ(to_self->path, std::vector<VertexId>{p_[1]});

  // Unreachable target answered without a frontier.
  auto unreachable = ShortestPath(*engine_, *session_, p_[0], p_[4],
                                  std::nullopt, 10, never_);
  ASSERT_TRUE(unreachable.ok());
  EXPECT_FALSE(unreachable->found);
  EXPECT_TRUE(unreachable->stats.used_index);
  EXPECT_EQ(unreachable->stats.expanded, 0u);

  // Label filters bypass the index and keep their golden answer.
  auto labeled = ShortestPath(*engine_, *session_, p_[0], tag_,
                              std::string("knows"), 10, never_);
  ASSERT_TRUE(labeled.ok());
  EXPECT_FALSE(labeled->stats.used_index);
  EXPECT_FALSE(labeled->found);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, QueryTest,
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace gdbmicro
