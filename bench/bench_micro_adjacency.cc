// Micro-benchmark for the adjacency hot path: the vector-returning
// wrappers (EdgesOf/NeighborsOf) versus the streaming visitors
// (ForEachEdgeOf/ForEachNeighbor) on every engine, plus the Fig. 5/6/7
// consumer workloads (2-hop traversal expansion, BFS, shortest path)
// driven each way. Reports hops/sec and heap allocations per hop, with
// the cost models off so the numbers are the data structures' own.
//
// Usage: bench_micro_adjacency [--scale=<f>] [--engines=a,b,c]
//        [--rounds=<n>] [--dataset=<name>] [--json=<path>]
//
// --json writes the per-engine/per-workload measurements as a
// machine-readable BENCH_*.json artifact (archived by CI).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "src/datasets/generators.h"
#include "src/graph/registry.h"
#include "src/query/algorithms.h"
#include "src/util/json.h"
#include "src/util/timer.h"

// --- global allocation counter ---------------------------------------------
// Counts every operator-new hit in the process. Single-threaded binary, so
// a plain counter (volatile against over-eager optimization) is enough.

static uint64_t g_allocs = 0;

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gdbmicro {
namespace {

struct Measurement {
  double seconds = 0;
  uint64_t allocs = 0;
  uint64_t hops = 0;  // elements visited (neighbors, BFS vertices, ...)

  double HopsPerSec() const { return hops > 0 ? hops / seconds : 0.0; }
  double AllocsPerHop() const {
    return hops > 0 ? static_cast<double>(allocs) / hops : 0.0;
  }
};

template <typename Fn>
Measurement Measure(Fn&& fn) {
  Measurement m;
  uint64_t before = g_allocs;
  Timer timer;
  m.hops = fn();
  m.seconds = timer.ElapsedSeconds();
  m.allocs = g_allocs - before;
  return m;
}

// The vector-based BFS the consumers used before the visitor rewrite:
// NeighborsOf materializes every expansion, visited is a hash set.
uint64_t VectorBfs(const GraphEngine& engine, QuerySession& session,
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
      if (!neighbors.ok()) return visited;
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
uint64_t VectorTwoHop(const GraphEngine& engine, QuerySession& session,
                      VertexId start, const CancelToken& cancel) {
  uint64_t count = 0;
  auto first =
      engine.NeighborsOf(session, start, Direction::kBoth, nullptr, cancel);
  if (!first.ok()) return 0;
  for (VertexId mid : *first) {
    auto second =
        engine.NeighborsOf(session, mid, Direction::kBoth, nullptr, cancel);
    if (!second.ok()) return count;
    count += second->size();
  }
  return count;
}

// Same expansion through the visitors: nothing materialized.
uint64_t VisitorTwoHop(const GraphEngine& engine, QuerySession& session,
                       VertexId start, const CancelToken& cancel) {
  uint64_t count = 0;
  engine
      .ForEachNeighbor(session, start, Direction::kBoth, nullptr, cancel,
                       [&](VertexId mid) {
                         engine
                             .ForEachNeighbor(session, mid, Direction::kBoth,
                                              nullptr, cancel,
                                              [&](VertexId) {
                                                ++count;
                                                return true;
                                              })
                             .ok();
                         return true;
                       })
      .ok();
  return count;
}

void PrintRow(const char* engine, const char* workload,
              const Measurement& vec, const Measurement& vis,
              Json::Array* json_rows) {
  double speedup = vis.seconds > 0 ? vec.seconds / vis.seconds : 0.0;
  std::printf(
      "%-9s %-12s %12.0f %12.0f %9.2f %9.3f %9.3f\n", engine, workload,
      vec.HopsPerSec(), vis.HopsPerSec(), speedup, vec.AllocsPerHop(),
      vis.AllocsPerHop());
  json_rows->push_back(Json(Json::Object{
      {"engine", Json(engine)},
      {"workload", Json(workload)},
      {"vector_hops_per_sec", Json(vec.HopsPerSec())},
      {"visitor_hops_per_sec", Json(vis.HopsPerSec())},
      {"speedup", Json(speedup)},
      {"vector_allocs_per_hop", Json(vec.AllocsPerHop())},
      {"visitor_allocs_per_hop", Json(vis.AllocsPerHop())},
  }));
}

int Run(int argc, char** argv) {
  bench::MicroBenchFlags flags;
  if (!bench::ParseMicroBenchFlags(argc, argv, &flags)) return 2;
  const double scale = flags.scale;
  const int rounds = flags.rounds;
  const std::string& dataset = flags.dataset;
  const std::string& json_path = flags.json_path;
  std::vector<std::string> engines = flags.engines;

  RegisterBuiltinEngines();
  if (engines.empty()) engines = EngineRegistry::Instance().Names();

  datasets::GenOptions gen;
  gen.scale = scale;
  auto data = datasets::GenerateByName(dataset, gen);
  if (!data.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", dataset.c_str(),
                 data.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "adjacency micro-bench: dataset=%s scale=%.3f (%zu vertices, %zu "
      "edges), %d rounds, cost model off\n\n",
      dataset.c_str(), scale, data->vertices.size(), data->edges.size(),
      rounds);
  std::printf("%-9s %-12s %12s %12s %9s %9s %9s\n", "engine", "workload",
              "vec hops/s", "visit hops/s", "speedup", "vec a/hop",
              "visit a/hop");

  CancelToken never;
  Json::Array json_rows;
  for (const std::string& name : engines) {
    EngineOptions options;  // cost model off: measure the data structures
    auto engine = OpenEngine(name, options, /*honor_cost_model_env=*/false);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   engine.status().ToString().c_str());
      continue;
    }
    auto mapping = (*engine)->BulkLoad(*data);
    if (!mapping.ok()) {
      std::fprintf(stderr, "%s load: %s\n", name.c_str(),
                   mapping.status().ToString().c_str());
      continue;
    }
    auto session = (*engine)->CreateSession();
    const std::vector<VertexId>& ids = mapping->vertex_ids;
    std::vector<VertexId> probes;
    for (size_t i = 0; i < ids.size(); i += 13) probes.push_back(ids[i]);

    // 1-hop neighborhood (Q.23-Q.25 substrate).
    Measurement vec_hop = Measure([&] {
      uint64_t hops = 0;
      for (int r = 0; r < rounds; ++r) {
        for (VertexId v : probes) {
          auto neighbors =
              (*engine)->NeighborsOf(*session, v, Direction::kBoth,
                                     nullptr, never);
          if (neighbors.ok()) hops += neighbors->size();
        }
      }
      return hops;
    });
    Measurement vis_hop = Measure([&] {
      uint64_t hops = 0;
      for (int r = 0; r < rounds; ++r) {
        for (VertexId v : probes) {
          (*engine)
              ->ForEachNeighbor(*session, v, Direction::kBoth, nullptr,
                                never,
                                [&](VertexId) {
                                  ++hops;
                                  return true;
                                })
              .ok();
        }
      }
      return hops;
    });
    PrintRow(name.c_str(), "1-hop", vec_hop, vis_hop, &json_rows);

    // 2-hop expansion (Fig. 5 traversal shape).
    std::vector<VertexId> hop2_probes(
        probes.begin(),
        probes.begin() + std::min<size_t>(probes.size(), 64));
    Measurement vec_2hop = Measure([&] {
      uint64_t hops = 0;
      for (VertexId v : hop2_probes) {
        hops += VectorTwoHop(**engine, *session, v, never);
      }
      return hops;
    });
    Measurement vis_2hop = Measure([&] {
      uint64_t hops = 0;
      for (VertexId v : hop2_probes) {
        hops += VisitorTwoHop(**engine, *session, v, never);
      }
      return hops;
    });
    PrintRow(name.c_str(), "2-hop", vec_2hop, vis_2hop, &json_rows);

    // BFS (Fig. 6 shape): vector baseline vs the visitor-driven
    // BreadthFirst with its flat visited structure.
    std::vector<VertexId> bfs_starts(
        probes.begin(),
        probes.begin() + std::min<size_t>(probes.size(), 8));
    Measurement vec_bfs = Measure([&] {
      uint64_t hops = 0;
      for (VertexId v : bfs_starts) {
        hops += VectorBfs(**engine, *session, v, 3, never);
      }
      return hops;
    });
    Measurement vis_bfs = Measure([&] {
      uint64_t hops = 0;
      for (VertexId v : bfs_starts) {
        auto r =
            query::BreadthFirst(**engine, *session, v, 3, std::nullopt, never);
        if (r.ok()) hops += r->visited.size();
      }
      return hops;
    });
    PrintRow(name.c_str(), "bfs-d3", vec_bfs, vis_bfs, &json_rows);

    // Shortest path (Fig. 7 shape) through the rewritten consumer; both
    // columns stream, the comparison of interest is vs the BFS baseline
    // row above, so report the visitor path in both slots.
    if (bfs_starts.size() >= 2) {
      Measurement sp = Measure([&] {
        uint64_t hops = 0;
        for (size_t i = 0; i + 1 < bfs_starts.size(); i += 2) {
          auto r = query::ShortestPath(**engine, *session, bfs_starts[i],
                                       bfs_starts[i + 1], std::nullopt, 8,
                                       never);
          if (r.ok()) hops += r->path.size();
        }
        return hops;
      });
      PrintRow(name.c_str(), "sp", sp, sp, &json_rows);
    }
  }
  if (!json_path.empty()) {
    Json doc(Json::Object{
        {"bench", Json("micro_adjacency")},
        {"dataset", Json(dataset)},
        {"scale", Json(scale)},
        {"rounds", Json(rounds)},
        {"results", Json(std::move(json_rows))},
    });
    if (!bench::WriteJsonArtifact(json_path, doc)) return 1;
  }
  std::printf(
      "\n(hops/s higher is better; a/hop = heap allocations per visited\n"
      " element. The visitor path must show ~0 allocations per hop on all\n"
      " nine engines: records are read in place, and arango still reads\n"
      " and validates every edge document a hop opens, without a JSON\n"
      " tree — its layout's cost is paid in time, not allocations.)\n");
  return 0;
}

}  // namespace
}  // namespace gdbmicro

int main(int argc, char** argv) { return gdbmicro::Run(argc, argv); }
