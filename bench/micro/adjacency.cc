// Adjacency scenario: the vector-returning wrappers (EdgesOf/NeighborsOf)
// versus the streaming visitors (ForEachEdgeOf/ForEachNeighbor) on every
// engine, plus the Fig. 5/6/7 consumer workloads (2-hop traversal
// expansion, BFS, shortest path) driven each way. Reports hops/sec and
// heap allocations per hop, with the cost models off so the numbers are
// the data structures' own. A failed adjacency call is a violation: the
// walk it cut short would otherwise read as a faster one.

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/micro/micro.h"
#include "src/query/algorithms.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {
namespace {

// The vector-based BFS the consumers used before the visitor rewrite:
// NeighborsOf materializes every expansion, visited is a hash set.
Result<uint64_t> VectorBfs(const GraphEngine& engine, QuerySession& session,
                           VertexId start, int max_depth,
                           const CancelToken& cancel) {
  std::unordered_set<VertexId> stored{start};
  std::vector<VertexId> frontier{start};
  uint64_t visited = 0;
  for (int depth = 0; depth < max_depth && !frontier.empty(); ++depth) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      auto neighbors =
          engine.NeighborsOf(session, v, Direction::kBoth, nullptr, cancel);
      if (!neighbors.ok()) return neighbors.status();
      for (VertexId n : *neighbors) {
        if (stored.insert(n).second) {
          next.push_back(n);
          ++visited;
        }
      }
    }
    frontier = std::move(next);
  }
  return visited;
}

// Two-hop both().both() expansion (the Fig. 5 Q.26/Q.27 shape), vector
// style: every hop materializes its neighborhood.
Result<uint64_t> VectorTwoHop(const GraphEngine& engine,
                              QuerySession& session, VertexId start,
                              const CancelToken& cancel) {
  uint64_t count = 0;
  auto first =
      engine.NeighborsOf(session, start, Direction::kBoth, nullptr, cancel);
  if (!first.ok()) return first.status();
  for (VertexId mid : *first) {
    auto second =
        engine.NeighborsOf(session, mid, Direction::kBoth, nullptr, cancel);
    if (!second.ok()) return second.status();
    count += second->size();
  }
  return count;
}

// Same expansion through the visitors: nothing materialized.
Result<uint64_t> VisitorTwoHop(const GraphEngine& engine,
                               QuerySession& session, VertexId start,
                               const CancelToken& cancel) {
  uint64_t count = 0;
  Status second;
  GDB_RETURN_IF_ERROR(engine.ForEachNeighbor(
      session, start, Direction::kBoth, nullptr, cancel, [&](VertexId mid) {
        second = engine.ForEachNeighbor(session, mid, Direction::kBoth,
                                        nullptr, cancel, [&](VertexId) {
                                          ++count;
                                          return true;
                                        });
        return second.ok();
      }));
  GDB_RETURN_IF_ERROR(second);
  return count;
}

}  // namespace

Json::Object RunAdjacency(MicroRun& run) {
  const int rounds = run.flags.rounds;
  std::printf("adjacency micro-bench: %d rounds, cost model off\n\n",
              rounds);
  run.Table({{"engine", "engine", -9},
             {"workload", "workload", -12},
             {"vector_hops_per_sec", "vec hops/s", 12},
             {"visitor_hops_per_sec", "visit hops/s", 12},
             {"speedup", "speedup", 9, 2},
             {"vector_allocs_per_hop", "vec a/hop", 9, 3},
             {"visitor_allocs_per_hop", "visit a/hop", 11, 3}});

  CancelToken never;
  for (const std::string& name : run.flags.engines) {
    // Cost model off: measure the data structures.
    auto loaded = run.Load(name, run.data);
    if (!loaded) continue;
    const GraphEngine& engine = *loaded->engine;
    QuerySession& session = *loaded->session;
    std::vector<VertexId> probes;
    const std::vector<VertexId>& ids = loaded->mapping.vertex_ids;
    for (size_t i = 0; i < ids.size(); i += 13) probes.push_back(ids[i]);

    // Failed calls in the current workload's two measurements.
    uint64_t errors = 0;
    auto emit = [&](const char* workload, const Measured& vec,
                    const Measured& vis) {
      if (errors > 0) {
        run.Fail(StrFormat("%s %s: %llu adjacency calls failed",
                           name.c_str(), workload,
                           (unsigned long long)errors));
        errors = 0;
      }
      run.Emit({
          {"engine", Json(name)},
          {"workload", Json(workload)},
          {"vector_hops_per_sec", Json(Ratio(vec.count, vec.seconds))},
          {"visitor_hops_per_sec", Json(Ratio(vis.count, vis.seconds))},
          {"speedup", Json(Ratio(vec.seconds, vis.seconds))},
          {"vector_allocs_per_hop", Json(Ratio(vec.allocs, vec.count))},
          {"visitor_allocs_per_hop", Json(Ratio(vis.allocs, vis.count))},
      });
    };
    auto add = [&](const Result<uint64_t>& hops) {
      if (hops.ok()) return *hops;
      ++errors;
      return uint64_t{0};
    };

    // 1-hop neighborhood (Q.23-Q.25 substrate).
    Measured vec_hop = Measure([&] {
      uint64_t hops = 0;
      for (int r = 0; r < rounds; ++r) {
        for (VertexId v : probes) {
          auto neighbors = engine.NeighborsOf(session, v, Direction::kBoth,
                                              nullptr, never);
          if (neighbors.ok()) {
            hops += neighbors->size();
          } else {
            ++errors;
          }
        }
      }
      return hops;
    });
    Measured vis_hop = Measure([&] {
      uint64_t hops = 0;
      for (int r = 0; r < rounds; ++r) {
        for (VertexId v : probes) {
          Status s = engine.ForEachNeighbor(session, v, Direction::kBoth,
                                            nullptr, never, [&](VertexId) {
                                              ++hops;
                                              return true;
                                            });
          if (!s.ok()) ++errors;
        }
      }
      return hops;
    });
    emit("1-hop", vec_hop, vis_hop);

    // 2-hop expansion (Fig. 5 traversal shape).
    std::vector<VertexId> hop2_probes(
        probes.begin(),
        probes.begin() + std::min<size_t>(probes.size(), 64));
    Measured vec_2hop = Measure([&] {
      uint64_t hops = 0;
      for (VertexId v : hop2_probes) {
        hops += add(VectorTwoHop(engine, session, v, never));
      }
      return hops;
    });
    Measured vis_2hop = Measure([&] {
      uint64_t hops = 0;
      for (VertexId v : hop2_probes) {
        hops += add(VisitorTwoHop(engine, session, v, never));
      }
      return hops;
    });
    emit("2-hop", vec_2hop, vis_2hop);

    // BFS (Fig. 6 shape): vector baseline vs the visitor-driven
    // BreadthFirst with its flat visited structure.
    std::vector<VertexId> bfs_starts(
        probes.begin(),
        probes.begin() + std::min<size_t>(probes.size(), 8));
    Measured vec_bfs = Measure([&] {
      uint64_t hops = 0;
      for (VertexId v : bfs_starts) {
        hops += add(VectorBfs(engine, session, v, 3, never));
      }
      return hops;
    });
    Measured vis_bfs = Measure([&] {
      uint64_t hops = 0;
      for (VertexId v : bfs_starts) {
        auto r =
            query::BreadthFirst(engine, session, v, 3, std::nullopt, never);
        if (r.ok()) {
          hops += r->visited.size();
        } else {
          ++errors;
        }
      }
      return hops;
    });
    emit("bfs-d3", vec_bfs, vis_bfs);

    // Shortest path (Fig. 7 shape) through the rewritten consumer; both
    // columns stream, the comparison of interest is vs the BFS baseline
    // row above, so report the visitor path in both slots.
    if (bfs_starts.size() >= 2) {
      Measured sp = Measure([&] {
        uint64_t hops = 0;
        for (size_t i = 0; i + 1 < bfs_starts.size(); i += 2) {
          auto r = query::ShortestPath(engine, session, bfs_starts[i],
                                       bfs_starts[i + 1], std::nullopt, 8,
                                       never);
          if (r.ok()) {
            hops += r->path.size();
          } else {
            ++errors;
          }
        }
        return hops;
      });
      emit("sp", sp, sp);
    }
  }
  std::printf(
      "\n(hops/s higher is better; a/hop = heap allocations per visited\n"
      " element. The visitor path must show ~0 allocations per hop on all\n"
      " nine engines: records are read in place, and arango still reads\n"
      " and validates every edge document a hop opens, without a JSON\n"
      " tree — its layout's cost is paid in time, not allocations.)\n");
  return {
      {"bench", Json("micro_adjacency")},
      {"dataset", Json(run.flags.dataset)},
      {"scale", Json(run.flags.scale)},
      {"rounds", Json(rounds)},
      {"results", run.TakeRows()},
  };
}

}  // namespace bench
}  // namespace gdbmicro
