// Ablation scenario: four engine design choices the paper's §6 analysis
// turns on, each measured as the sides of one decision on a hub graph:
//
//  1. chains — neo19 vs neo30 relationship chains on a 4,096-edge hub over
//     64 labels: splitting chains by (label, direction) speeds the
//     label-filtered walk and taxes the unfiltered walk of a label-diverse
//     neighborhood (paper §6.4 "Progress across Versions").
//  2. ridbag — orient appends to one hub at degree 32, 64, 1,024 and
//     8,192, across the switch from the embedded adjacency (record rewrite
//     per edge) to the external bag.
//  3. fk-probe — sqlg's edge access with the label known (one foreign-key
//     probe) vs unknown (the union over every edge table), over 16 and
//     1,024 edge tables: the Fig. 2 / Fig. 6 asymmetry.
//  4. hub — sparksee bitmap adjacency vs neo19 record chains vs titan10
//     rows for a hub neighborhood at degree 256 and 16,384.
//
// Cost models are off: these measure the data structures. Every row is
// timed with Measure. The hubs are built with raw appends before any
// session is open (the engine.h write contract), and every walk must
// return what the hub graph it built holds, or the run fails.

#include <string>
#include <vector>

#include "bench/micro/micro.h"
#include "src/graph/registry.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {
namespace {

// Walks per row and round: one hub walk is microseconds.
constexpr int kWalksPerRound = 64;
// The label the filtered walks ask for.
constexpr int kFilterLabel = 7;

std::string Label(int i) { return "rel_" + std::to_string(i); }

/// A hub vertex with `degree` out-edges to 256 spokes; edge i is labelled
/// Label(i % labels). Built with raw appends, so no session is open yet.
struct Hub {
  std::unique_ptr<GraphEngine> engine;
  VertexId hub = 0;
  std::vector<VertexId> spokes;
  std::vector<uint64_t> per_label;  // edges per label index
};

std::optional<Hub> BuildHub(MicroRun& run, const std::string& name,
                            int degree, int labels) {
  const std::string what = StrFormat("%s hub d=%d", name.c_str(), degree);
  auto engine = OpenEngine(name, EngineOptions{},
                           /*honor_cost_model_env=*/false);
  if (!run.Check(engine.status(), what)) return std::nullopt;
  Hub h{std::move(engine).value(), 0, {},
        std::vector<uint64_t>(static_cast<size_t>(labels))};
  auto hub = h.engine->AddVertex("hub", {});
  if (!run.Check(hub.status(), what)) return std::nullopt;
  h.hub = *hub;
  for (int i = 0; i < 256; ++i) {
    auto spoke = h.engine->AddVertex("spoke", {});
    if (!run.Check(spoke.status(), what)) return std::nullopt;
    h.spokes.push_back(*spoke);
  }
  Rng rng(42);
  for (int i = 0; i < degree; ++i) {
    auto e = h.engine->AddEdge(h.hub, h.spokes[rng.Uniform(h.spokes.size())],
                               Label(i % labels), {});
    if (!run.Check(e.status(), what)) return std::nullopt;
    ++h.per_label[static_cast<size_t>(i % labels)];
  }
  return h;
}

/// One row of the table: `m` timed `ops` ops, each of which had to count
/// `items`.
void EmitRow(MicroRun& run, const char* comparison, const Hub& h,
             const char* variant, int degree, uint64_t items, int ops,
             const Measured& m) {
  run.Emit({
      {"comparison", Json(comparison)},
      {"engine", Json(std::string(h.engine->name()))},
      {"variant", Json(variant)},
      {"degree", Json(static_cast<int64_t>(degree))},
      {"labels", Json(static_cast<int64_t>(h.per_label.size()))},
      {"items", Json(items)},
      {"ops", Json(static_cast<int64_t>(ops))},
      {"us_per_op", Json(Ratio(m.seconds * 1e6, ops))},
      {"ns_per_item", Json(Ratio(m.seconds * 1e9, m.count))},
      {"allocs_per_op", Json(Ratio(m.allocs, ops))},
  });
}

/// Times --rounds x kWalksPerRound walks of the hub's neighborhood through
/// one session; `walk` returns the elements it saw. Fails unless every
/// walk saw `expected`.
template <typename Walk>
void TimeWalks(MicroRun& run, const char* comparison, const Hub& h,
               const char* variant, int degree, uint64_t expected,
               Walk walk) {
  std::unique_ptr<QuerySession> session = h.engine->CreateSession();
  const int walks = run.flags.rounds * kWalksPerRound;
  int wrong = 0;
  std::string first_wrong;
  Measured m = Measure([&] {
    uint64_t items = 0;
    for (int w = 0; w < walks; ++w) {
      Result<size_t> n = walk(*session);
      if (n.ok() && *n == expected) {
        items += *n;
      } else if (wrong++ == 0) {
        first_wrong = n.ok() ? std::to_string(*n) : n.status().ToString();
      }
    }
    return items;
  });
  if (wrong > 0) {
    run.Fail(StrFormat("%s %s %s d=%d: %d of %d walks did not return %llu "
                       "(first: %s)",
                       comparison, std::string(h.engine->name()).c_str(),
                       variant, degree, wrong, walks,
                       (unsigned long long)expected, first_wrong.c_str()));
  }
  EmitRow(run, comparison, h, variant, degree, expected, walks, m);
}

/// Label-filtered and unfiltered EdgesOf walks of one hub.
void TimeEdgeWalks(MicroRun& run, const char* comparison, const Hub& h,
                   int degree) {
  const std::string label = Label(kFilterLabel);
  CancelToken never;
  auto edges = [&](QuerySession& session,
                   const std::string* filter) -> Result<size_t> {
    auto e = h.engine->EdgesOf(session, h.hub, Direction::kBoth, filter,
                               never);
    if (!e.ok()) return e.status();
    return e->size();
  };
  TimeWalks(run, comparison, h, "filtered", degree,
            h.per_label[kFilterLabel],
            [&](QuerySession& s) { return edges(s, &label); });
  TimeWalks(run, comparison, h, "unfiltered", degree,
            static_cast<uint64_t>(degree),
            [&](QuerySession& s) { return edges(s, nullptr); });
}

/// Orient appends `degree` edges to each of --rounds fresh hubs, with no
/// session open, then counts each hub's edges through a session.
void TimeAppends(MicroRun& run, int degree) {
  const std::string what = StrFormat("orient append d=%d", degree);
  std::vector<Hub> hubs;
  for (int r = 0; r < run.flags.rounds; ++r) {
    auto h = BuildHub(run, "orient", 0, 1);
    if (!h) return;
    hubs.push_back(std::move(*h));
  }
  Status failed;
  Measured m = Measure([&] {
    uint64_t appended = 0;
    for (Hub& h : hubs) {
      for (int i = 0; i < degree; ++i) {
        auto e = h.engine->AddEdge(h.hub, h.spokes[0], Label(0), {});
        if (e.ok()) {
          ++appended;
        } else if (failed.ok()) {
          failed = e.status();
        }
      }
    }
    return appended;
  });
  if (!run.Check(failed, what)) return;
  CancelToken never;
  for (const Hub& h : hubs) {
    auto session = h.engine->CreateSession();
    auto n = h.engine->CountEdgesOf(*session, h.hub, Direction::kOut, never);
    if (!run.Check(n.status(), what)) return;
    if (*n != static_cast<uint64_t>(degree)) {
      run.Fail(StrFormat("%s: the hub holds %llu edges", what.c_str(),
                         (unsigned long long)*n));
    }
  }
  EmitRow(run, "ridbag", hubs[0], "append", degree,
          static_cast<uint64_t>(degree), run.flags.rounds, m);
}

}  // namespace

Json::Object RunAblation(MicroRun& run) {
  std::printf(
      "ablation micro-bench: %d rounds x %d walks per row, cost model "
      "off\n\n",
      run.flags.rounds, kWalksPerRound);
  run.Table({{"comparison", "comparison", -10},
             {"engine", "engine", -9},
             {"variant", "variant", -10},
             {"degree", "degree", 7},
             {"labels", "labels", 6},
             {"items", "items", 6},
             {"us_per_op", "us/op", 10, 2},
             {"ns_per_item", "ns/item", 9, 2},
             {"allocs_per_op", "allocs/op", 9, 1}});

  // 1. Relationship-chain splitting.
  for (const char* name : {"neo19", "neo30"}) {
    if (auto h = BuildHub(run, name, 4096, 64)) {
      TimeEdgeWalks(run, "chains", *h, 4096);
    }
  }
  // 2. The ridbag threshold (orient's kEmbeddedAdjLimit is 64).
  for (int degree : {32, 64, 1024, 8192}) TimeAppends(run, degree);
  // 3. Foreign-key probe vs edge-table union.
  for (int tables : {16, 1024}) {
    if (auto h = BuildHub(run, "sqlg", 4096, tables)) {
      TimeEdgeWalks(run, "fk-probe", *h, 4096);
    }
  }
  // 4. Hub neighborhoods.
  CancelToken never;
  for (const char* name : {"sparksee", "neo19", "titan10"}) {
    for (int degree : {256, 16384}) {
      auto h = BuildHub(run, name, degree, 4);
      if (!h) continue;
      TimeWalks(run, "hub", *h, "neighbors", degree,
                static_cast<uint64_t>(degree),
                [&](QuerySession& s) -> Result<size_t> {
                  auto n = h->engine->NeighborsOf(s, h->hub, Direction::kBoth,
                                                  nullptr, never);
                  if (!n.ok()) return n.status();
                  return n->size();
                });
    }
  }
  std::printf(
      "\n(us/op: one walk, or one fresh hub filled by appends; ns/item: per\n"
      " edge walked or appended. neo30's label-split chains make the\n"
      " filtered walk an order cheaper than neo19's; orient's per-append\n"
      " cost falls past the embedded limit of 64; sqlg's label-known probe\n"
      " reads one edge table, its union every table.)\n");
  return {
      {"bench", Json("micro_ablation")},
      {"rounds", Json(run.flags.rounds)},
      {"walks_per_round", Json(static_cast<int64_t>(kWalksPerRound))},
      {"results", run.TakeRows()},
  };
}

}  // namespace bench
}  // namespace gdbmicro
