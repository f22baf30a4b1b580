// Load scenario: the bulk-load fast path. Every engine's native loader
// (EngineOptions::bulk_load_mode = kNative — presized storage, interned
// strings, deferred secondary-structure construction) against the
// paper-faithful per-element loader (kPerElement — one AddVertex/AddEdge
// per element, indexes maintained per statement). The cost models are
// off, so the numbers are the data structures' own; the per-element
// column is still the Fig. 3(a) story in miniature — blaze pays three
// B+Tree rebalances per statement and drops far below every other engine.

#include <string>

#include "bench/micro/micro.h"

namespace gdbmicro {
namespace bench {
namespace {

/// The fastest of `rounds` loads into fresh instances, or nullopt once
/// one of them fails (a violation the run has recorded).
std::optional<BulkLoadStats> BestLoad(MicroRun& run, const std::string& name,
                                      BulkLoadMode mode) {
  std::optional<BulkLoadStats> best;
  for (int r = 0; r < run.flags.rounds; ++r) {
    EngineOptions options;  // cost model off: measure the loaders
    options.bulk_load_mode = mode;
    auto loaded = run.Load(name, run.data, options);
    if (!loaded) return std::nullopt;
    const BulkLoadStats& stats = loaded->engine->load_stats();
    if (!best || stats.TotalMillis() < best->TotalMillis()) best = stats;
  }
  return best;
}

}  // namespace

Json::Object RunLoad(MicroRun& run) {
  std::printf(
      "load micro-bench: %d rounds (best), cost model off, native vs "
      "per-element loader\n\n",
      run.flags.rounds);
  run.Table({{"engine", "engine", -9},
             {"native_elements_per_sec", "native el/s", 12},
             {"per_element_elements_per_sec", "perelem el/s", 12},
             {"speedup", "speedup", 8, 2},
             {"native_millis", "native ms", 11, 1},
             {"native_index_build_millis", "idx ms", 10, 1},
             {"per_element_millis", "perelem ms", 12, 1}});

  for (const std::string& name : run.flags.engines) {
    auto native = BestLoad(run, name, BulkLoadMode::kNative);
    auto perel = BestLoad(run, name, BulkLoadMode::kPerElement);
    if (!native || !perel) continue;
    run.Emit({
        {"engine", Json(name)},
        {"native_elements_per_sec", Json(native->ElementsPerSec())},
        {"per_element_elements_per_sec", Json(perel->ElementsPerSec())},
        {"speedup", Json(Ratio(perel->TotalMillis(), native->TotalMillis()))},
        {"native_millis", Json(native->TotalMillis())},
        {"native_index_build_millis", Json(native->index_build_millis)},
        {"per_element_millis", Json(perel->TotalMillis())},
        {"native_bytes", Json(native->bytes)},
        {"per_element_bytes", Json(perel->bytes)},
    });
  }
  std::printf(
      "\n(el/s higher is better; idx ms = deferred secondary-structure\n"
      " build inside the native loader. blaze's per-element column is the\n"
      " Fig. 3(a) pathology: three statement-index rebalances per insert\n"
      " put it far below every other engine's loader.)\n");
  return {
      {"bench", Json("micro_load")},
      {"dataset", Json(run.flags.dataset)},
      {"scale", Json(run.flags.scale)},
      {"rounds", Json(run.flags.rounds)},
      {"elements", Json(run.data.VertexCount() + run.data.EdgeCount())},
      {"results", run.TakeRows()},
  };
}

}  // namespace bench
}  // namespace gdbmicro
