// PathIndex conformance across all nine engines: every indexed BFS /
// shortest-path answer must equal the reference frontier answer on a
// cyclic multi-component graph (components and the bidirectional search
// both exercised) and on the repository benchmark's fragmented
// Freebase-like graph, the bidirectional search must honour the depth
// limit, the indexed BFS must match a plain reference walk over every
// edge in visit order, counters and charges, the index's layout
// invariants must hold, the index must invalidate with a typed status
// when a commit publishes a new epoch, and a governor trip during build
// must leave the engine fully usable on the frontier path. The
// concurrent-probe test runs under the TSan CI job: probes are const and
// thread-safe by contract. The suite also runs under ASan and UBSan: the
// index kernels index flat arrays by ordinal.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/datasets/generators.h"
#include "src/datasets/workload.h"
#include "src/graph/registry.h"
#include "src/graph/writer.h"
#include "src/query/algorithms.h"
#include "src/query/governor.h"

namespace gdbmicro {
namespace {

using query::BreadthFirst;
using query::PathMode;
using query::ShortestPath;

/// The multigraph layout, built here from the engine's own edge scan:
/// every edge once per direction, each vertex's out-targets then its
/// in-sources in `ScanEdges` order, in index ordinals.
std::vector<std::vector<uint32_t>> MultigraphRanges(
    const GraphEngine& engine) {
  const PathIndex& index = *engine.path_index();
  std::vector<std::vector<uint32_t>> out(index.NumVertices());
  std::vector<std::vector<uint32_t>> in(index.NumVertices());
  auto session = engine.CreateSession();
  Status scanned =
      engine.ScanEdges(*session, CancelToken(), [&](const EdgeEnds& e) {
        const uint32_t s = index.OrdOf(e.src), t = index.OrdOf(e.dst);
        EXPECT_NE(s, PathIndex::kNoOrd);
        EXPECT_NE(t, PathIndex::kNoOrd);
        if (s == PathIndex::kNoOrd || t == PathIndex::kNoOrd) return false;
        out[s].push_back(t);
        in[t].push_back(s);
        return true;
      });
  EXPECT_TRUE(scanned.ok()) << scanned;
  for (size_t v = 0; v < out.size(); ++v) {
    out[v].insert(out[v].end(), in[v].begin(), in[v].end());
  }
  return out;
}

/// Structural invariants of the index layout, checked through the public
/// accessors against the multigraph layout: each vertex's range holds no
/// neighbour twice and equals, in order, the first occurrences in its
/// multigraph range, the scan's edges are all counted, and the connected
/// components are exactly the contiguous component ranges.
void ExpectLayoutInvariants(const GraphEngine& engine) {
  const PathIndex& index = *engine.path_index();
  const std::vector<std::vector<uint32_t>> multigraph =
      MultigraphRanges(engine);
  const uint32_t n = index.NumVertices();
  uint64_t multigraph_slots = 0;
  for (uint32_t v = 0; v < n; ++v) {
    PathIndex::NeighborRange both = index.BothNeighbors(v);
    const std::vector<uint32_t> range(both.begin(), both.end());
    ASSERT_EQ(std::set<uint32_t>(range.begin(), range.end()).size(),
              range.size())
        << "ordinal " << v << " holds a neighbour twice";
    std::vector<uint32_t> firsts;
    std::set<uint32_t> seen;
    for (uint32_t w : multigraph[v]) {
      if (seen.insert(w).second) firsts.push_back(w);
    }
    ASSERT_EQ(range, firsts) << "ordinal " << v;
    multigraph_slots += multigraph[v].size();
    for (uint32_t w : range) {
      ASSERT_TRUE(index.SameComponent(v, w)) << v << " ~ " << w;
    }
  }
  EXPECT_EQ(multigraph_slots, 2 * index.stats().edges);

  // No edge leaves a range (checked above), and a search from a range's
  // first ordinal reaches all of it: each range is one component.
  uint64_t components = 0;
  std::vector<bool> reached(n, false);
  for (uint32_t v = 0; v < n; v += static_cast<uint32_t>(
                                   index.ComponentSize(v))) {
    ASSERT_EQ(index.ComponentBegin(v), v) << "component not contiguous";
    ++components;
    const uint64_t end = v + index.ComponentSize(v);
    for (uint64_t w = v; w < end; ++w) {
      ASSERT_EQ(index.ComponentBegin(static_cast<uint32_t>(w)), v);
      ASSERT_TRUE(index.SameComponent(v, static_cast<uint32_t>(w)));
    }
    std::vector<uint32_t> stack{v};
    reached[v] = true;
    uint64_t count = 1;
    while (!stack.empty()) {
      uint32_t u = stack.back();
      stack.pop_back();
      for (uint32_t w : index.BothNeighbors(u)) {
        if (!reached[w]) {
          reached[w] = true;
          ++count;
          stack.push_back(w);
        }
      }
    }
    EXPECT_EQ(count, end - v) << "range at " << v << " is not connected";
  }
  EXPECT_EQ(components, index.stats().components);
}

// Fixture graph — three undirected components, cycles and tendrils:
//
//   A:  r0 -> r1 -> r2 -> r3 -> r0   (directed 4-cycle)
//       r0 -> r2                     (chord)
//       r0 -> r1                     (parallel edge)
//       r2 -> r2                     (self-loop)
//       r1 -> a0 -> a1               (tail)
//   B:  b0 -> b1 -> b2, b2 -> b1     (2-cycle)
//   C:  c0                           (isolated)
//
// 10 vertices, 3 components — small enough that the cost-model-on ctest
// leg stays fast, rich enough that every index route (components,
// bidirectional search, CSR BFS) decides something.
class PathIndexTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    RegisterBuiltinEngines();
    auto engine = OpenEngine(GetParam(), EngineOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();

    auto add = [&](const char* label) {
      auto v = engine_->AddVertex(label, {});
      EXPECT_TRUE(v.ok());
      all_.push_back(*v);
      return *v;
    };
    r_[0] = add("ring");
    r_[1] = add("ring");
    r_[2] = add("ring");
    r_[3] = add("ring");
    a_[0] = add("tail");
    a_[1] = add("tail");
    b_[0] = add("line");
    b_[1] = add("line");
    b_[2] = add("line");
    c_ = add("lone");
    auto edge = [&](VertexId s, VertexId t) {
      ASSERT_TRUE(engine_->AddEdge(s, t, "e", {}).ok());
    };
    edge(r_[0], r_[1]);
    edge(r_[1], r_[2]);
    edge(r_[2], r_[3]);
    edge(r_[3], r_[0]);
    edge(r_[0], r_[2]);  // chord
    edge(r_[0], r_[1]);  // parallel
    edge(r_[2], r_[2]);  // self-loop
    edge(r_[1], a_[0]);
    edge(a_[0], a_[1]);
    edge(b_[0], b_[1]);
    edge(b_[1], b_[2]);
    edge(b_[2], b_[1]);

    Status built = engine_->BuildPathIndex(never_);
    ASSERT_TRUE(built.ok()) << built;
    session_ = engine_->CreateSession();
  }

  std::set<VertexId> VisitedSetOf(const query::BfsResult& r) {
    return std::set<VertexId>(r.visited.begin(), r.visited.end());
  }

  /// Every consecutive pair of an SP path must be engine-adjacent.
  void ExpectValidPath(const std::vector<VertexId>& path, VertexId src,
                       VertexId dst) {
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      auto neighbors = engine_->NeighborsOf(*session_, path[i],
                                            Direction::kBoth, nullptr, never_);
      ASSERT_TRUE(neighbors.ok());
      EXPECT_TRUE(std::find(neighbors->begin(), neighbors->end(),
                            path[i + 1]) != neighbors->end())
          << "path edge " << path[i] << " -> " << path[i + 1]
          << " is not an engine edge";
    }
  }

  std::unique_ptr<GraphEngine> engine_;
  std::unique_ptr<QuerySession> session_;
  std::vector<VertexId> all_;
  VertexId r_[4], a_[2], b_[3], c_ = 0;
  CancelToken never_;
};

TEST_P(PathIndexTest, BuildStatsDescribeTheGraph) {
  const PathIndex* index = engine_->path_index();
  ASSERT_NE(index, nullptr);
  const PathIndexStats& st = index->stats();
  EXPECT_EQ(st.vertices, 10u);
  EXPECT_EQ(st.edges, 12u);
  EXPECT_EQ(st.components, 3u);
  EXPECT_GT(st.bytes, 0u);
}

TEST_P(PathIndexTest, LayoutInvariantsHold) {
  const PathIndex* index = engine_->path_index();
  ASSERT_NE(index, nullptr);
  ExpectLayoutInvariants(*engine_);
  // The relabelling is a bijection between ordinals and engine ids.
  std::set<VertexId> ids;
  for (uint32_t o = 0; o < index->NumVertices(); ++o) {
    EXPECT_EQ(index->OrdOf(index->IdOf(o)), o);
    ids.insert(index->IdOf(o));
  }
  EXPECT_EQ(ids, std::set<VertexId>(all_.begin(), all_.end()));

  // Resident bytes are exactly the live arrays: id map, ordinal -> id,
  // the CSR (V + 1 offsets, one slot per distinct neighbour), and
  // component ids and offsets. The 12 edges fill 24 multigraph slots; the
  // parallel r0 -> r1 (twice), the self-loop's second direction and
  // b1 <-> b2 (twice) repeat a neighbour, which leaves 19.
  const PathIndexStats& st = index->stats();
  const uint64_t v = st.vertices;
  constexpr uint64_t kDistinctSlots = 19;
  const uint64_t dense_bound = engine_->VertexIdUpperBound();
  const uint64_t id_map = dense_bound > 0 ? dense_bound * sizeof(uint32_t)
                                          : v * (sizeof(VertexId) + 4);
  const uint64_t want = id_map + v * sizeof(VertexId) + (v + 1) * 8 +
                        kDistinctSlots * 4 + v * 4 + (st.components + 1) * 4;
  EXPECT_EQ(st.bytes, want);
}

TEST_P(PathIndexTest, LayoutInvariantsHoldOnTinyGraphs) {
  // An empty graph, one vertex with a self-loop, a star beside an
  // isolated pair, and a triangle.
  for (uint64_t shape = 0; shape < 4; ++shape) {
    SCOPED_TRACE(::testing::Message() << "shape " << shape);
    GraphData data;
    if (shape == 1) {
      data.vertices.push_back({"n", {}});
      data.edges.push_back({0, 0, "e", {}});
    } else if (shape == 2) {
      for (int i = 0; i < 6; ++i) data.vertices.push_back({"n", {}});
      for (uint64_t leaf = 1; leaf < 4; ++leaf) {
        data.edges.push_back({0, leaf, "e", {}});
      }
      data.edges.push_back({5, 4, "e", {}});
    } else if (shape == 3) {
      for (int i = 0; i < 3; ++i) data.vertices.push_back({"n", {}});
      for (uint64_t v = 0; v < 3; ++v) {
        data.edges.push_back({v, (v + 1) % 3, "e", {}});
      }
    }
    auto engine = OpenEngine(GetParam(), EngineOptions{});
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->BulkLoad(data).ok());
    ASSERT_TRUE((*engine)->BuildPathIndex(never_).ok());
    const PathIndex* index = (*engine)->path_index();
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->NumVertices(), data.vertices.size());
    ExpectLayoutInvariants(**engine);
  }
}

TEST_P(PathIndexTest, MemoryTripAtTheLastChargeInstallsNoIndex) {
  // The whole build's ledger, under a budget it cannot reach.
  query::GovernorOptions ample;
  ample.memory_budget_bytes = uint64_t{1} << 40;
  query::ResourceGovernor ledger(ample);
  ASSERT_TRUE(engine_->BuildPathIndex(ledger.token()).ok());
  const uint64_t total = ledger.token().charged_bytes();

  // One byte short of the total trips at the build's last charge, inside
  // the adjacency build, and installs no index.
  query::GovernorOptions short_budget;
  short_budget.memory_budget_bytes = total - 1;
  query::ResourceGovernor governor(short_budget);
  Status build = engine_->BuildPathIndex(governor.token());
  EXPECT_TRUE(build.IsResourceExhausted()) << build;
  EXPECT_NE(build.message().find("PathIndex::BuildAdjacency"),
            std::string::npos)
      << build;
  EXPECT_EQ(engine_->path_index(), nullptr);

  // The exact budget builds the same index again.
  query::GovernorOptions exact;
  exact.memory_budget_bytes = total;
  query::ResourceGovernor exact_gov(exact);
  ASSERT_TRUE(engine_->BuildPathIndex(exact_gov.token()).ok());
  ExpectLayoutInvariants(*engine_);
}

TEST_P(PathIndexTest, NotBuiltByDefault) {
  auto other = OpenEngine(GetParam(), EngineOptions{});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ((*other)->path_index(), nullptr);
}

TEST_P(PathIndexTest, IndexedBfsMatchesFrontierEverywhere) {
  for (VertexId start : all_) {
    for (int depth = 1; depth <= 4; ++depth) {
      auto indexed = BreadthFirst(*engine_, *session_, start, depth,
                                  std::nullopt, never_, PathMode::kAuto);
      auto frontier =
          BreadthFirst(*engine_, *session_, start, depth, std::nullopt,
                       never_, PathMode::kFrontierOnly);
      ASSERT_TRUE(indexed.ok()) << indexed.status();
      ASSERT_TRUE(frontier.ok()) << frontier.status();
      EXPECT_TRUE(indexed->stats.used_index);
      EXPECT_STREQ(indexed->stats.route, "index-bfs");
      EXPECT_FALSE(frontier->stats.used_index);
      EXPECT_EQ(VisitedSetOf(*indexed), VisitedSetOf(*frontier))
          << "start " << start << " depth " << depth;
      EXPECT_EQ(indexed->depth_reached, frontier->depth_reached);
      // Start-vertex semantics survive the indexed route: never reported.
      EXPECT_EQ(std::count(indexed->visited.begin(), indexed->visited.end(),
                           start),
                0);
    }
  }
}

TEST_P(PathIndexTest, IndexedShortestPathAgreesOnAllPairs) {
  for (VertexId src : all_) {
    for (VertexId dst : all_) {
      for (int max_depth : {1, 10}) {
        auto indexed = ShortestPath(*engine_, *session_, src, dst,
                                    std::nullopt, max_depth, never_,
                                    PathMode::kAuto);
        auto frontier = ShortestPath(*engine_, *session_, src, dst,
                                     std::nullopt, max_depth, never_,
                                     PathMode::kFrontierOnly);
        ASSERT_TRUE(indexed.ok()) << indexed.status();
        ASSERT_TRUE(frontier.ok()) << frontier.status();
        EXPECT_EQ(indexed->found, frontier->found)
            << src << " -> " << dst << " depth " << max_depth;
        if (indexed->found) {
          // Minimum-hop length must agree; the witness path may differ
          // (ties broken by visit order on either route) but must be a
          // real path.
          EXPECT_EQ(indexed->path.size(), frontier->path.size());
          ExpectValidPath(indexed->path, src, dst);
        } else {
          EXPECT_TRUE(indexed->path.empty());
        }
      }
    }
  }
}

TEST_P(PathIndexTest, BidirSearchHonoursTheDepthLimit) {
  // r0 - r1 - a0 - a1 is the shortest undirected path: budgets below its
  // three hops refute it after a bounded search, and a budget of three
  // finds it.
  for (int max_depth : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "max_depth " << max_depth);
    auto indexed = ShortestPath(*engine_, *session_, r_[0], a_[1],
                                std::nullopt, max_depth, never_,
                                PathMode::kAuto);
    auto frontier = ShortestPath(*engine_, *session_, r_[0], a_[1],
                                 std::nullopt, max_depth, never_,
                                 PathMode::kFrontierOnly);
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    ASSERT_TRUE(frontier.ok()) << frontier.status();
    EXPECT_STREQ(indexed->stats.route, "index-bidir");
    EXPECT_EQ(indexed->found, max_depth == 3);
    EXPECT_EQ(indexed->found, frontier->found);
    EXPECT_EQ(indexed->path.size(), frontier->path.size());
    if (indexed->found) {
      EXPECT_EQ(indexed->path.size(), 4u);
      ExpectValidPath(indexed->path, r_[0], a_[1]);
    } else {
      EXPECT_TRUE(indexed->path.empty());
    }
  }
}

TEST_P(PathIndexTest, EdgeCaseSemanticsAgree) {
  // source == target: {src}, found, no existence check — both routes.
  for (PathMode mode : {PathMode::kAuto, PathMode::kFrontierOnly}) {
    auto self = ShortestPath(*engine_, *session_, r_[2], r_[2], std::nullopt,
                             10, never_, mode);
    ASSERT_TRUE(self.ok());
    EXPECT_TRUE(self->found);
    EXPECT_EQ(self->path, std::vector<VertexId>{r_[2]});
  }
  // Self-loop vertex: BFS from r2 never reports r2 itself.
  auto bfs = BreadthFirst(*engine_, *session_, r_[2], 3, std::nullopt,
                          never_, PathMode::kAuto);
  ASSERT_TRUE(bfs.ok());
  EXPECT_EQ(std::count(bfs->visited.begin(), bfs->visited.end(), r_[2]), 0);
  // Parallel edges: r1 appears exactly once in r0's BFS.
  auto par = BreadthFirst(*engine_, *session_, r_[0], 1, std::nullopt,
                          never_, PathMode::kAuto);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(std::count(par->visited.begin(), par->visited.end(), r_[1]), 1);
  // Unreachable target: both routes agree, indexed answers without search.
  for (PathMode mode : {PathMode::kAuto, PathMode::kFrontierOnly}) {
    auto un = ShortestPath(*engine_, *session_, r_[0], c_, std::nullopt, 30,
                           never_, mode);
    ASSERT_TRUE(un.ok());
    EXPECT_FALSE(un->found);
    EXPECT_TRUE(un->path.empty());
    if (mode == PathMode::kAuto) {
      EXPECT_STREQ(un->stats.route, "index-component");
      EXPECT_EQ(un->stats.expanded, 0u);
    }
  }
  // Unknown start id: the indexed route must defer to the engine's
  // missing-vertex semantics (whatever they are, both modes agree).
  const VertexId no_such = 0x7FFFFFFFFFFFULL;
  auto missing_auto = BreadthFirst(*engine_, *session_, no_such, 2,
                                   std::nullopt, never_, PathMode::kAuto);
  auto missing_frontier =
      BreadthFirst(*engine_, *session_, no_such, 2, std::nullopt, never_,
                   PathMode::kFrontierOnly);
  EXPECT_EQ(missing_auto.ok(), missing_frontier.ok());
  if (missing_auto.ok()) {
    EXPECT_EQ(VisitedSetOf(*missing_auto), VisitedSetOf(*missing_frontier));
  }
}

TEST_P(PathIndexTest, LabelFilteredQueriesNeverUseTheIndex) {
  auto bfs = BreadthFirst(*engine_, *session_, r_[0], 3, std::string("e"),
                          never_, PathMode::kAuto);
  ASSERT_TRUE(bfs.ok());
  EXPECT_TRUE(bfs->stats.index_available);
  EXPECT_FALSE(bfs->stats.used_index);
  EXPECT_STREQ(bfs->stats.route, "frontier");
}

TEST_P(PathIndexTest, CommitDropsTheIndex) {
  ASSERT_NE(engine_->path_index(), nullptr);
  // Sessions pin the snapshot epoch; the commit's apply phase drains them,
  // so release ours first (holding it would deadlock BeginApply — which is
  // exactly the guarantee that makes invalidation race-free).
  session_.reset();

  GraphWriter writer(engine_.get());
  WriteBatch batch;
  PendingVertex nv = batch.AddVertex("ring", {});
  batch.AddEdge(nv, VertexRef(r_[0]), "e", {});
  auto receipt = writer.Commit(batch);
  ASSERT_TRUE(receipt.ok()) << receipt.status();

  EXPECT_EQ(engine_->path_index(), nullptr);

  // Queries still run (frontier fallback) and see the new vertex.
  session_ = engine_->CreateSession();
  VertexId added = receipt->vertex_ids[0];
  auto bfs = BreadthFirst(*engine_, *session_, r_[0], 1, std::nullopt,
                          never_, PathMode::kAuto);
  ASSERT_TRUE(bfs.ok());
  EXPECT_FALSE(bfs->stats.used_index);
  EXPECT_EQ(VisitedSetOf(*bfs).count(added), 1u);

  // Rebuild covers the committed write; indexed answers include it.
  ASSERT_TRUE(engine_->BuildPathIndex(never_).ok());
  auto rebuilt = BreadthFirst(*engine_, *session_, r_[0], 1, std::nullopt,
                              never_, PathMode::kAuto);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt->stats.used_index);
  EXPECT_EQ(VisitedSetOf(*rebuilt).count(added), 1u);
}

TEST_P(PathIndexTest, GovernorTripDuringBuildLeavesEngineUsable) {
  // Memory trip: a budget far below the index's own structures.
  query::GovernorOptions tight;
  tight.memory_budget_bytes = 64;
  query::ResourceGovernor memory_gov(tight);
  Status build = engine_->BuildPathIndex(memory_gov.token());
  EXPECT_TRUE(build.IsResourceExhausted()) << build;
  EXPECT_EQ(engine_->path_index(), nullptr);

  // Deadline trip: an already-spent deadline.
  query::GovernorOptions spent;
  spent.deadline = std::chrono::nanoseconds(-1);
  query::ResourceGovernor deadline_gov(spent);
  build = engine_->BuildPathIndex(deadline_gov.token());
  EXPECT_TRUE(build.IsDeadlineExceeded()) << build;
  EXPECT_EQ(engine_->path_index(), nullptr);

  // The engine stays fully usable on the frontier path...
  auto bfs = BreadthFirst(*engine_, *session_, r_[0], 2, std::nullopt,
                          never_, PathMode::kAuto);
  ASSERT_TRUE(bfs.ok());
  EXPECT_FALSE(bfs->stats.used_index);
  EXPECT_EQ(VisitedSetOf(*bfs),
            (std::set<VertexId>{r_[1], r_[2], r_[3], a_[0]}));

  // ...and an ungoverned rebuild recovers completely.
  ASSERT_TRUE(engine_->BuildPathIndex(never_).ok());
  auto indexed = BreadthFirst(*engine_, *session_, r_[0], 2, std::nullopt,
                              never_, PathMode::kAuto);
  ASSERT_TRUE(indexed.ok());
  EXPECT_TRUE(indexed->stats.used_index);
  EXPECT_EQ(VisitedSetOf(*indexed),
            (std::set<VertexId>{r_[1], r_[2], r_[3], a_[0]}));
}

TEST_P(PathIndexTest, BuildAfterBulkLoadIndexesAndTimesTheSnapshot) {
  GraphData data;
  data.name = "tiny";
  for (int i = 0; i < 6; ++i) data.vertices.push_back({"n", {}});
  auto edge = [&](uint64_t s, uint64_t t) {
    data.edges.push_back({s, t, "e", {}});
  };
  edge(0, 1);
  edge(1, 2);
  edge(2, 0);  // cycle
  edge(2, 3);
  edge(4, 5);  // second component

  auto engine = OpenEngine(GetParam(), EngineOptions{});
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkLoad(data).ok());
  EXPECT_EQ((*engine)->path_index(), nullptr);  // off until built

  ASSERT_TRUE((*engine)->BuildPathIndex(never_).ok());
  const PathIndex* index = (*engine)->path_index();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->stats().vertices, 6u);
  EXPECT_EQ(index->stats().components, 2u);
  EXPECT_GT(index->stats().build_millis, 0.0);
}

TEST_P(PathIndexTest, ConcurrentSessionsShareOneIndex) {
  // Reference answers computed single-threaded on the frontier path.
  auto ref_bfs = BreadthFirst(*engine_, *session_, r_[0], 3, std::nullopt,
                              never_, PathMode::kFrontierOnly);
  ASSERT_TRUE(ref_bfs.ok());
  const std::set<VertexId> want_bfs = VisitedSetOf(*ref_bfs);
  auto ref_sp = ShortestPath(*engine_, *session_, r_[0], a_[1], std::nullopt,
                             30, never_, PathMode::kFrontierOnly);
  ASSERT_TRUE(ref_sp.ok());
  const size_t want_sp_len = ref_sp->path.size();

  constexpr int kThreads = 4;
  constexpr int kIterations = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&] {
      auto session = engine_->CreateSession();
      CancelToken never;
      for (int i = 0; i < kIterations; ++i) {
        auto bfs = BreadthFirst(*engine_, *session, r_[0], 3, std::nullopt,
                                never, PathMode::kAuto);
        if (!bfs.ok() || !bfs->stats.used_index ||
            std::set<VertexId>(bfs->visited.begin(), bfs->visited.end()) !=
                want_bfs) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        auto sp = ShortestPath(*engine_, *session, r_[0], a_[1], std::nullopt,
                               30, never, PathMode::kAuto);
        if (!sp.ok() || !sp->found || sp->path.size() != want_sp_len) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Differential check on the shape of the repository benchmark's `reach`
// workload: the fragmented Freebase-like graph (one giant component among
// thousands of small ones, zipf hubs), probed at Workload::PathEndpoints
// pairs. Every engine builds the index and answers the pairs through it;
// one engine also answers them on the frontier route, the reference,
// through the same long-lived session. Far more than 255 queries of
// each route share that session, so the one-byte epochs of both the
// frontier visited set and the index routes' marks wrap many times.
// (Frontier answers on every engine would take minutes: sqlg walks one
// table per edge label, and frb-l has thousands.)

/// One engine's answers to the workload pairs, in dataset vertex indexes
/// so engines compare directly.
struct PairAnswers {
  std::vector<std::set<uint64_t>> bfs;  // per pair, depths 2..5
  std::vector<int> sp_hops;             // per pair; -1 when not found
  std::map<std::string, int> sp_routes;
};

constexpr int kWorkloadPairs = 300;
constexpr int kSpMaxDepth = 30;  // the catalog's Q.34 bound

void CollectAnswers(const GraphEngine& engine, QuerySession& session,
                    const GraphData& data, const LoadMapping& mapping,
                    PathMode mode, PairAnswers* out) {
  std::map<VertexId, uint64_t> index_of;
  for (uint64_t i = 0; i < mapping.vertex_ids.size(); ++i) {
    index_of[mapping.vertex_ids[i]] = i;
  }
  std::set<std::pair<VertexId, VertexId>> adjacent;
  for (const GraphData::Edge& e : data.edges) {
    VertexId a = mapping.vertex_ids[e.src], b = mapping.vertex_ids[e.dst];
    adjacent.emplace(a, b);
    adjacent.emplace(b, a);
  }
  const bool indexed = mode == PathMode::kAuto;
  CancelToken never;
  datasets::Workload workload(&data, &mapping, /*seed=*/42);
  for (int i = 0; i < kWorkloadPairs; ++i) {
    auto [src, dst] = workload.PathEndpoints(i);
    SCOPED_TRACE(::testing::Message() << "pair " << i);
    for (int depth = 2; depth <= 5; ++depth) {
      auto bfs = BreadthFirst(engine, session, src, depth, std::nullopt,
                              never, mode);
      ASSERT_TRUE(bfs.ok()) << bfs.status();
      ASSERT_EQ(bfs->stats.used_index, indexed);
      std::set<uint64_t> reached;
      for (VertexId v : bfs->visited) reached.insert(index_of.at(v));
      ASSERT_EQ(reached.size(), bfs->visited.size()) << "duplicate visit";
      out->bfs.push_back(std::move(reached));
    }

    auto sp = ShortestPath(engine, session, src, dst, std::nullopt,
                           kSpMaxDepth, never, mode);
    ASSERT_TRUE(sp.ok()) << sp.status();
    ++out->sp_routes[sp->stats.route];
    out->sp_hops.push_back(sp->found ? static_cast<int>(sp->path.size()) - 1
                                     : -1);
    if (sp->found) {
      ASSERT_EQ(sp->path.front(), src);
      ASSERT_EQ(sp->path.back(), dst);
      for (size_t k = 0; k + 1 < sp->path.size(); ++k) {
        ASSERT_EQ(adjacent.count({sp->path[k], sp->path[k + 1]}), 1u)
            << "path hop " << k << " is not an edge";
      }
    } else {
      ASSERT_TRUE(sp->path.empty());
    }
  }
}

TEST(PathIndexWorkloadTest, IndexedAgreesWithFrontierOnWorkloadPairs) {
  datasets::GenOptions options;
  options.scale = 0.0005;
  auto data = datasets::GenerateByName("frb-l", options);
  ASSERT_TRUE(data.ok()) << data.status();
  RegisterBuiltinEngines();

  PairAnswers reference;
  bool have_reference = false;
  for (const char* name : {"neo19", "arango", "blaze", "neo30", "orient",
                           "sparksee", "sqlg", "titan05", "titan10"}) {
    SCOPED_TRACE(name);
    auto engine =
        OpenEngine(name, EngineOptions{}, /*honor_cost_model_env=*/false);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto mapping = (*engine)->BulkLoad(*data);
    ASSERT_TRUE(mapping.ok()) << mapping.status();
    ASSERT_TRUE((*engine)->BuildPathIndex(CancelToken()).ok());
    ExpectLayoutInvariants(**engine);
    if (HasFatalFailure()) return;
    auto session = (*engine)->CreateSession();
    if (!have_reference) {
      CollectAnswers(**engine, *session, *data, *mapping,
                     PathMode::kFrontierOnly, &reference);
      if (HasFatalFailure()) return;
      have_reference = true;
    }
    PairAnswers indexed;
    CollectAnswers(**engine, *session, *data, *mapping, PathMode::kAuto,
                   &indexed);
    if (HasFatalFailure()) return;
    // The pairs reach both the component tier and the bidirectional search.
    EXPECT_GT(indexed.sp_routes["index-bidir"], 0);
    EXPECT_GT(indexed.sp_routes["index-component"], 0);
    for (int i = 0; i < kWorkloadPairs; ++i) {
      SCOPED_TRACE(::testing::Message() << "pair " << i);
      for (int d = 0; d < 4; ++d) {
        ASSERT_EQ(indexed.bfs[i * 4 + d], reference.bfs[i * 4 + d])
            << "BFS depth " << d + 2;
      }
      ASSERT_EQ(indexed.sp_hops[i], reference.sp_hops[i]);
    }
  }
}

// Reference walks for the indexed BFS: a plain level-synchronous BFS over
// the multigraph layout, every edge once per direction, written out here
// slot by slot, which the indexed BreadthFirst over its distinct-neighbour
// CSR must match in everything it reports — visit order, depth reached,
// vertices expanded and governor charges — on the `reach` graph shape. So
// the repeats the index leaves out are shown to change no search. The
// indexed kernel stamps and queues every slot without branching on whether
// it is new, so a slot read once the whole component is stored is written
// one past the component (the queue's spare slot); the sweep covers such
// starts, and reruns each on a fresh session, whose queue is allocated to
// exactly the size the search asks for, so an undersized queue shows under
// ASan.

/// What a BFS over the multigraph reports.
struct ReferenceWalk {
  std::vector<VertexId> visited;  // reached vertices, in visit order
  int depth_reached = 0;
  uint64_t expanded = 0;
  uint64_t spare_slot_writes = 0;  // index slots read, component stored
};

/// BFS from `root` through `multigraph` for at most `max_depth` levels;
/// it stops at the level boundary where the root's whole component is
/// stored.
ReferenceWalk WalkMultigraph(
    const PathIndex& index,
    const std::vector<std::vector<uint32_t>>& multigraph, uint32_t root,
    int max_depth) {
  ReferenceWalk walk;
  std::set<uint32_t> stored{root};
  std::vector<uint32_t> frontier{root};
  const uint64_t component = index.ComponentSize(root);
  for (int depth = 0; depth < max_depth && !frontier.empty(); ++depth) {
    if (stored.size() == component) break;
    std::vector<uint32_t> next;
    for (uint32_t v : frontier) {
      ++walk.expanded;
      std::set<uint32_t> in_range;  // the index keeps first occurrences
      for (uint32_t w : multigraph[v]) {
        if (in_range.insert(w).second && stored.size() == component) {
          ++walk.spare_slot_writes;
        }
        if (!stored.insert(w).second) continue;
        next.push_back(w);
        walk.visited.push_back(index.IdOf(w));
      }
    }
    if (!next.empty()) walk.depth_reached = depth + 1;
    frontier = std::move(next);
  }
  return walk;
}

TEST(PathIndexWorkloadTest, IndexedSearchesMatchReferenceWalks) {
  datasets::GenOptions options;
  options.scale = 0.0005;
  auto data = datasets::GenerateByName("frb-l", options);
  ASSERT_TRUE(data.ok()) << data.status();
  RegisterBuiltinEngines();
  constexpr int kPairs = 100;
  constexpr uint64_t kVertexBytes = 17;  // the governor's BFS charge
  // A budget far above any search here: the token then keeps its ledger.
  constexpr uint64_t kAmpleBudget = uint64_t{1} << 40;

  for (const char* name : {"neo19", "arango", "blaze", "neo30", "orient",
                           "sparksee", "sqlg", "titan05", "titan10"}) {
    SCOPED_TRACE(name);
    auto engine =
        OpenEngine(name, EngineOptions{}, /*honor_cost_model_env=*/false);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto mapping = (*engine)->BulkLoad(*data);
    ASSERT_TRUE(mapping.ok()) << mapping.status();
    ASSERT_TRUE((*engine)->BuildPathIndex(CancelToken()).ok());
    const PathIndex& index = *(*engine)->path_index();
    const std::vector<std::vector<uint32_t>> multigraph =
        MultigraphRanges(**engine);
    auto session = (*engine)->CreateSession();
    datasets::Workload workload(&*data, &*mapping, /*seed=*/42);
    CancelToken never;

    int spare_slot_searches = 0;
    VertexId budget_start = kInvalidId;
    ReferenceWalk budget_golden;
    for (int i = 0; i < kPairs; ++i) {
      const VertexId src = workload.PathEndpoints(i).first;
      SCOPED_TRACE(::testing::Message() << "pair " << i);
      const uint32_t s = index.OrdOf(src);
      ASSERT_NE(s, PathIndex::kNoOrd);
      for (int depth = 0; depth <= 6; ++depth) {
        SCOPED_TRACE(::testing::Message() << "depth " << depth);
        const ReferenceWalk want = WalkMultigraph(index, multigraph, s, depth);
        CancelToken ledger =
            CancelToken::WithLimits(std::chrono::nanoseconds(0), kAmpleBudget);
        auto bfs = BreadthFirst(**engine, *session, src, depth, std::nullopt,
                                ledger, PathMode::kAuto);
        ASSERT_TRUE(bfs.ok()) << bfs.status();
        ASSERT_STREQ(bfs->stats.route, "index-bfs");
        ASSERT_EQ(bfs->visited, want.visited);
        EXPECT_EQ(bfs->depth_reached, want.depth_reached);
        EXPECT_EQ(bfs->stats.expanded, want.expanded);
        EXPECT_EQ(ledger.charged_bytes(), want.visited.size() * kVertexBytes);
        if (want.spare_slot_writes > 0) {
          ++spare_slot_searches;
          auto fresh = (*engine)->CreateSession();
          auto again = BreadthFirst(**engine, *fresh, src, depth,
                                    std::nullopt, never, PathMode::kAuto);
          ASSERT_TRUE(again.ok()) << again.status();
          EXPECT_EQ(again->visited, want.visited);
        }
        if (depth == 3 && budget_start == kInvalidId &&
            want.visited.size() >= 2) {
          budget_start = src;
          budget_golden = want;
        }
      }
    }
    EXPECT_GT(spare_slot_searches, 0) << "no search wrote the spare slot";

    // A budget one vertex short of the BFS's total trips on both routes,
    // and the session then still returns the golden answer.
    ASSERT_NE(budget_start, kInvalidId);
    const uint64_t total = budget_golden.visited.size() * kVertexBytes;
    for (PathMode mode : {PathMode::kAuto, PathMode::kFrontierOnly}) {
      query::GovernorOptions short_budget;
      short_budget.memory_budget_bytes = total - kVertexBytes;
      query::ResourceGovernor governor(short_budget);
      auto tripped = BreadthFirst(**engine, *session, budget_start, 3,
                                  std::nullopt, governor.token(), mode);
      ASSERT_FALSE(tripped.ok()) << "mode " << static_cast<int>(mode);
      EXPECT_TRUE(tripped.status().IsResourceExhausted()) << tripped.status();
    }
    auto golden = BreadthFirst(**engine, *session, budget_start, 3,
                               std::nullopt, never, PathMode::kAuto);
    ASSERT_TRUE(golden.ok()) << golden.status();
    EXPECT_EQ(golden->visited, budget_golden.visited);
    EXPECT_EQ(golden->depth_reached, budget_golden.depth_reached);
    auto frontier =
        BreadthFirst(**engine, *session, budget_start, 3, std::nullopt,
                     never, PathMode::kFrontierOnly);
    ASSERT_TRUE(frontier.ok()) << frontier.status();
    EXPECT_EQ(std::set<VertexId>(frontier->visited.begin(),
                                 frontier->visited.end()),
              std::set<VertexId>(budget_golden.visited.begin(),
                                 budget_golden.visited.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, PathIndexTest,
    ::testing::Values("arango", "blaze", "neo19", "neo30", "orient",
                      "sparksee", "sqlg", "titan05", "titan10"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace gdbmicro
