// Ablation microbenchmarks for four engine design choices — each
// compares the two sides of one architectural decision the paper's §6
// analysis turns on:
//
//  1. neo19 vs neo30 relationship chains: splitting by (label, direction)
//     speeds label-filtered expansion and taxes unfiltered scans of
//     label-diverse neighborhoods (paper §6.4 "Progress across Versions").
//  2. orient ridbags: embedded adjacency (record rewrite per edge) vs the
//     external bag it switches to past the threshold.
//  3. sqlg edge access: one FK-index probe (label known) vs the union
//     over every edge table (label unknown) — the Fig. 2/Fig. 6 asymmetry.
//  4. sparksee bitmap adjacency vs neo19 record chains for hub expansion.
//
// Cost models are OFF throughout: these measure the data structures.

#include <benchmark/benchmark.h>

#include "src/graph/registry.h"
#include "src/util/rng.h"

namespace gdbmicro {
namespace {

constexpr int kLabelCount = 64;

std::unique_ptr<GraphEngine> HubEngine(const std::string& name,
                                       int hub_degree, int labels) {
  RegisterBuiltinEngines();
  auto engine = OpenEngine(name, EngineOptions{}).value();
  VertexId hub = engine->AddVertex("hub", {}).value();
  std::vector<VertexId> spokes;
  for (int i = 0; i < 256; ++i) {
    spokes.push_back(engine->AddVertex("spoke", {}).value());
  }
  Rng rng(42);
  for (int i = 0; i < hub_degree; ++i) {
    engine
        ->AddEdge(hub, spokes[rng.Uniform(spokes.size())],
                  "rel_" + std::to_string(i % labels), {})
        .value();
  }
  return engine;
}

// --- 1. relationship-chain splitting ---------------------------------------

void BM_ChainExpansion(benchmark::State& state, const std::string& engine_name,
                       bool filtered) {
  auto engine = HubEngine(engine_name, static_cast<int>(state.range(0)),
                          kLabelCount);
  auto session = engine->CreateSession();
  CancelToken never;
  std::string label = "rel_7";
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->EdgesOf(
        *session, 0, Direction::kBoth, filtered ? &label : nullptr, never));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ChainExpansion, neo19_unfiltered, "neo19", false)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_ChainExpansion, neo19_filtered, "neo19", true)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_ChainExpansion, neo30_unfiltered, "neo30", false)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_ChainExpansion, neo30_filtered, "neo30", true)
    ->Arg(4096);

// --- 2. orient ridbag threshold ----------------------------------------------

void BM_OrientAdjacencyAppend(benchmark::State& state) {
  // degree below the embedded limit (record rewrite per append) vs far
  // above it (external bag append).
  const int64_t degree = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = OpenEngine("orient", EngineOptions{}).value();
    VertexId hub = engine->AddVertex("hub", {}).value();
    VertexId other = engine->AddVertex("o", {}).value();
    state.ResumeTiming();
    for (int64_t i = 0; i < degree; ++i) {
      engine->AddEdge(hub, other, "l", {}).value();
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OrientAdjacencyAppend)->Arg(32)->Arg(64)->Arg(1024)->Arg(8192);

// --- 3. sqlg FK probe vs table union ----------------------------------------

void BM_SqlgExpansion(benchmark::State& state, bool filtered) {
  auto engine = HubEngine("sqlg", 4096, static_cast<int>(state.range(0)));
  auto session = engine->CreateSession();
  CancelToken never;
  std::string label = "rel_7";
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->EdgesOf(
        *session, 0, Direction::kBoth, filtered ? &label : nullptr, never));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SqlgExpansion, filtered, true)->Arg(16)->Arg(1024);
BENCHMARK_CAPTURE(BM_SqlgExpansion, union_all, false)->Arg(16)->Arg(1024);

// --- 4. bitmap vs record-chain hub expansion ----------------------------------

void BM_HubNeighborhood(benchmark::State& state,
                        const std::string& engine_name) {
  auto engine = HubEngine(engine_name, static_cast<int>(state.range(0)), 4);
  auto session = engine->CreateSession();
  CancelToken never;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->NeighborsOf(*session, 0, Direction::kBoth, nullptr, never));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_HubNeighborhood, sparksee, "sparksee")
    ->Arg(256)->Arg(16384);
BENCHMARK_CAPTURE(BM_HubNeighborhood, neo19, "neo19")->Arg(256)->Arg(16384);
BENCHMARK_CAPTURE(BM_HubNeighborhood, titan10, "titan10")
    ->Arg(256)->Arg(16384);

}  // namespace
}  // namespace gdbmicro

BENCHMARK_MAIN();
