// Path-index scenario: the post-load path index tier
// (src/graph/path_index.h). Every workload runs twice per engine — the
// paper-faithful frontier execution (PathMode::kFrontierOnly, the
// reference) and the indexed execution (PathMode::kAuto) — on identical
// query pairs. Any answer disagreement is a violation and fails the run.
//
// The graph is a deterministic "archipelago": disconnected islands, each
// a directed ring with chords, tendril chains hanging off it, a few
// parallel edges and self-loops. Cross-island shortest paths are the
// certain negatives the index answers from its component tier without
// any search; in-island probes exercise the bidirectional search and
// the CSR BFS against the frontier's engine-visitor expansion.
//
// Workloads (all label-free, cost model off — the index is the subject):
//   sp-fig7    shortest path, max_depth=30 (the paper's Q.34/Q.35 bound),
//              in-island pairs plus a cross-island tail
//   bfs-d3     breadth-first to depth 3 (Q.32/Q.33 shape)
//
// Each mode first answers every pair once untimed (the answers compared,
// and the session's scratch warmed), then times --rounds passes over the
// pairs one by one; a row's rates come from its fastest pass, so one slow
// pass on a shared host does not move a row.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bench/micro/micro.h"
#include "src/query/algorithms.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {
namespace {

using query::BreadthFirst;
using query::PathMode;
using query::ShortestPath;

constexpr int kIslands = 8;
constexpr int kSpMaxDepth = 30;  // the suite's Q.34/Q.35 loop bound

/// Deterministic archipelago sized by --scale (0.02 ~ 2K vertices).
/// Island i occupies a contiguous vertex range; within it:
///   * ring 0..ring_n-1 closed directed cycle
///   * chord every 7th ring vertex jumping +ring_n/4 (shrinks diameter)
///   * tendril chains of length 3 hanging off every 11th ring vertex
///   * a parallel duplicate of the first ring edge and one self-loop
GraphData ArchipelagoData(double scale) {
  size_t total = std::max<size_t>(800, static_cast<size_t>(100000.0 * scale));
  size_t per_island = total / kIslands;
  // 3/4 ring, 1/4 tendrils (chains of 3 => one anchor per 11 ring slots).
  size_t ring_n = per_island * 3 / 4;
  GraphData data;
  data.name = "archipelago";
  auto add_vertex = [&](const char* label) {
    GraphData::Vertex v;
    v.label = label;
    data.vertices.push_back(std::move(v));
    return data.vertices.size() - 1;
  };
  auto add_edge = [&](uint64_t src, uint64_t dst, const char* label) {
    GraphData::Edge e;
    e.src = src;
    e.dst = dst;
    e.label = label;
    data.edges.push_back(std::move(e));
  };
  for (int island = 0; island < kIslands; ++island) {
    std::vector<uint64_t> ring;
    ring.reserve(ring_n);
    for (size_t i = 0; i < ring_n; ++i) ring.push_back(add_vertex("isle"));
    for (size_t i = 0; i < ring_n; ++i) {
      add_edge(ring[i], ring[(i + 1) % ring_n], "ring");
    }
    for (size_t i = 0; i < ring_n; i += 7) {
      add_edge(ring[i], ring[(i + ring_n / 4) % ring_n], "chord");
    }
    for (size_t i = 0; i < ring_n; i += 11) {
      uint64_t prev = ring[i];
      for (int hop = 0; hop < 3; ++hop) {
        uint64_t t = add_vertex("tendril");
        add_edge(prev, t, "tendril");
        prev = t;
      }
    }
    add_edge(ring[0], ring[1], "ring");     // parallel edge
    add_edge(ring[2], ring[2], "self");     // self-loop
  }
  return data;
}

enum class Kind { kShortestPath, kBfs };

struct Workload {
  const char* name;
  Kind kind;
  // Pairs are indexes into the LoadMapping's vertex_ids (BFS uses .first).
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
};

/// Deterministic query pairs over the archipelago layout. `island_span`
/// is the number of dataset vertices per island (contiguous ranges).
std::vector<Workload> Workloads(size_t n_vertices, size_t island_span) {
  std::mt19937_64 rng(0xA5C1D3);
  auto pick = [&](uint64_t lo, uint64_t hi) {  // [lo, hi)
    return lo + rng() % (hi - lo);
  };
  auto island_range = [&](int island) {
    uint64_t lo = static_cast<uint64_t>(island) * island_span;
    uint64_t hi = std::min<uint64_t>(lo + island_span, n_vertices);
    return std::make_pair(lo, hi);
  };
  std::vector<Workload> loads;
  const int kPairs = 48;

  Workload sp{"sp-fig7", Kind::kShortestPath, {}};
  for (int i = 0; i < kPairs; ++i) {
    if (i % 4 == 3) {  // cross-island tail: certain negatives
      auto [lo, hi] = island_range(i % kIslands);
      auto [olo, ohi] = island_range((i + 5) % kIslands);
      sp.pairs.emplace_back(pick(lo, hi), pick(olo, ohi));
    } else {
      auto [lo, hi] = island_range(i % kIslands);
      sp.pairs.emplace_back(pick(lo, hi), pick(lo, hi));
    }
  }
  loads.push_back(std::move(sp));

  Workload bfs{"bfs-d3", Kind::kBfs, {}};
  for (int i = 0; i < 16; ++i) {
    auto [lo, hi] = island_range(i % kIslands);
    bfs.pairs.emplace_back(pick(lo, hi), 0);
  }
  loads.push_back(std::move(bfs));
  return loads;
}

/// One query; the answer is encoded so both modes can be compared:
/// SP -> path length (0 = not found), BFS -> number of vertices reached.
Result<uint64_t> RunOne(const GraphEngine& engine, QuerySession& session,
                        Kind kind, VertexId src, VertexId dst, PathMode mode,
                        const CancelToken& cancel) {
  switch (kind) {
    case Kind::kShortestPath: {
      GDB_ASSIGN_OR_RETURN(query::PathResult r,
                           ShortestPath(engine, session, src, dst,
                                        std::nullopt, kSpMaxDepth, cancel,
                                        mode));
      return r.found ? r.path.size() : 0u;
    }
    case Kind::kBfs: {
      GDB_ASSIGN_OR_RETURN(query::BfsResult r,
                           BreadthFirst(engine, session, src, 3, std::nullopt,
                                        cancel, mode));
      return r.visited.size();
    }
  }
  return Status::InvalidArgument("unknown workload kind");
}

struct ModeRun {
  std::vector<uint64_t> answers;
  double qps = 0;  // from the fastest timed pass
};

Result<ModeRun> RunMode(const GraphEngine& engine, QuerySession& session,
                        const Workload& load,
                        const std::vector<VertexId>& ids, PathMode mode,
                        int rounds, const CancelToken& cancel) {
  ModeRun run;
  run.answers.reserve(load.pairs.size());
  // Verification pass (also warms per-session scratch), then timed rounds.
  for (const auto& [a, b] : load.pairs) {
    GDB_ASSIGN_OR_RETURN(
        uint64_t answer,
        RunOne(engine, session, load.kind, ids[a], ids[b], mode, cancel));
    run.answers.push_back(answer);
  }
  double fastest = 0;
  for (int r = 0; r < rounds; ++r) {
    Timer timer;
    for (const auto& [a, b] : load.pairs) {
      GDB_RETURN_IF_ERROR(
          RunOne(engine, session, load.kind, ids[a], ids[b], mode, cancel)
              .status());
    }
    double seconds = timer.ElapsedSeconds();
    fastest = r == 0 ? seconds : std::min(fastest, seconds);
  }
  run.qps = fastest > 0 ? static_cast<double>(load.pairs.size()) / fastest
                        : 0.0;
  return run;
}

}  // namespace

Json::Object RunPathIndex(MicroRun& run) {
  const int rounds = run.flags.rounds;
  GraphData data = ArchipelagoData(run.flags.scale);
  size_t island_span = data.vertices.size() / kIslands;
  std::vector<Workload> loads =
      Workloads(data.vertices.size(), island_span);
  std::printf(
      "path-index micro-bench: %zu vertices, %zu edges, %d islands, "
      "%d rounds (fastest)\n\n",
      data.vertices.size(), data.edges.size(), kIslands, rounds);
  run.Table({{"engine", "engine", -9},
             {"workload", "workload", -10},
             {"frontier_qps", "frontier q/s", 12},
             {"indexed_qps", "indexed q/s", 12},
             {"speedup", "speedup", 8, 2},
             {"index_build_ms", "index ms", 9, 1},
             {"index_bytes", "index B", 9}});

  CancelToken never;
  bool mismatch = false;
  for (const std::string& name : run.flags.engines) {
    // Cost model off: the index tier is the subject, not the simulated
    // per-operation penalties.
    auto loaded = run.Load(name, data, EngineOptions{});
    if (!loaded) continue;
    if (!run.Check(loaded->engine->BuildPathIndex(never),
                   name + " path index build")) {
      continue;
    }
    const GraphEngine& engine = *loaded->engine;
    const PathIndexStats& ist = engine.path_index()->stats();

    for (const Workload& load : loads) {
      auto frontier =
          RunMode(engine, *loaded->session, load, loaded->mapping.vertex_ids,
                  PathMode::kFrontierOnly, rounds, never);
      auto indexed =
          RunMode(engine, *loaded->session, load, loaded->mapping.vertex_ids,
                  PathMode::kAuto, rounds, never);
      if (!frontier.ok() || !indexed.ok()) {
        mismatch = true;
        run.Fail(name + " " + load.name + ": run failed: " +
                 (!frontier.ok() ? frontier : indexed).status().ToString());
        continue;
      }
      for (size_t i = 0; i < load.pairs.size(); ++i) {
        if (frontier->answers[i] != indexed->answers[i]) {
          mismatch = true;
          run.Fail(StrFormat(
              "%s %s: DISAGREEMENT pair %zu (v%llu, v%llu): frontier=%llu "
              "indexed=%llu",
              name.c_str(), load.name, i,
              (unsigned long long)load.pairs[i].first,
              (unsigned long long)load.pairs[i].second,
              (unsigned long long)frontier->answers[i],
              (unsigned long long)indexed->answers[i]));
        }
      }
      run.Emit({
          {"engine", Json(name)},
          {"workload", Json(load.name)},
          {"pairs", Json(static_cast<uint64_t>(load.pairs.size()))},
          {"frontier_qps", Json(frontier->qps)},
          {"indexed_qps", Json(indexed->qps)},
          {"speedup", Json(Ratio(indexed->qps, frontier->qps))},
          {"index_build_ms", Json(ist.build_millis)},
          {"index_bytes", Json(ist.bytes)},
      });
    }
    std::printf("%-9s index: %llu components\n", name.c_str(),
                (unsigned long long)ist.components);
  }

  return {
      {"bench", Json("micro_pathindex")},
      {"scale", Json(run.flags.scale)},
      {"rounds", Json(rounds)},
      {"disagreements", Json(mismatch)},
      {"results", run.TakeRows()},
  };
}

}  // namespace bench
}  // namespace gdbmicro
