// Prepared scenario: every query shape is run two ways against every
// engine — rebuilt-per-iteration (construct the Traversal, lower it, run
// it: what the harness used to do for each of the paper's thousands of
// repetitions) and prepared (lowered once via Traversal::Prepare,
// per-iteration arguments rebound through PlanParams, results collected
// into reused session scratch). Reports queries/sec each way, the
// prepared speedup, and heap allocations per iteration — on cheap point
// queries the rebuild path's lowering dominates, which is exactly the
// harness overhead the prepared layer removes from the architecture
// signal. Both paths must return the same result counts, and every
// iteration must succeed: two failing paths would agree on nothing.

#include <functional>
#include <string>
#include <vector>

#include "bench/micro/micro.h"
#include "src/query/traversal.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {
namespace {

using query::Bound;
using query::PlanParams;
using query::Traversal;

/// One benchmarked shape: the bound form for Prepare, a per-iteration
/// rebuild factory, and how the iteration's parameters are picked.
struct Shape {
  const char* name;
  bool point;  // a cheap point query (the headline prepared win)
  Traversal bound;
  std::function<Traversal(const PlanParams&)> rebuild;
  std::function<void(uint64_t, PlanParams*)> pick;  // iteration -> params
};

}  // namespace

Json::Object RunPrepared(MicroRun& run) {
  const uint64_t iterations = static_cast<uint64_t>(run.flags.iterations);
  std::printf("prepared micro-bench: %llu iterations, cost model off\n\n",
              (unsigned long long)iterations);
  run.Table({{"engine", "engine", -9},
             {"shape", "shape", -18},
             {"rebuilt_qps", "rebuilt q/s", 12},
             {"prepared_qps", "prepared q/s", 12},
             {"speedup", "speedup", 8, 2},
             {"rebuilt_allocs_per_iteration", "reb a/it", 10, 3},
             {"prepared_allocs_per_iteration", "prep a/it", 10, 3}});

  CancelToken never;
  for (const std::string& name : run.flags.engines) {
    // Cost model off: measure the harness layers.
    auto loaded = run.Load(name, run.data);
    if (!loaded) continue;
    const GraphEngine& engine = *loaded->engine;
    QuerySession& session = *loaded->session;
    const std::vector<VertexId>& vids = loaded->mapping.vertex_ids;
    const std::vector<EdgeId>& eids = loaded->mapping.edge_ids;
    if (vids.empty() || eids.empty()) {
      run.Fail(name + ": dataset " + run.flags.dataset +
               " loaded no vertices or no edges");
      continue;
    }
    const std::string probe_label = run.data.edges.front().label;

    std::vector<Shape> shapes;
    shapes.push_back(
        {"V(id).count", true, Traversal::V(Bound{}).Count(),
         [](const PlanParams& p) { return Traversal::V(p.id).Count(); },
         [&](uint64_t i, PlanParams* p) { p->id = vids[i % vids.size()]; }});
    shapes.push_back(
        {"E(id).count", true, Traversal::E(Bound{}).Count(),
         [](const PlanParams& p) { return Traversal::E(p.id).Count(); },
         [&](uint64_t i, PlanParams* p) { p->id = eids[i % eids.size()]; }});
    shapes.push_back(
        {"V(id).out.count", true, Traversal::V(Bound{}).Out().Count(),
         [](const PlanParams& p) { return Traversal::V(p.id).Out().Count(); },
         [&](uint64_t i, PlanParams* p) { p->id = vids[i % vids.size()]; }});
    shapes.push_back(
        {"V(id).bothE.label", false,
         Traversal::V(Bound{}).BothE(std::string(probe_label)).Label().Dedup(),
         [&](const PlanParams& p) {
           return Traversal::V(p.id).BothE(std::string(probe_label))
               .Label()
               .Dedup();
         },
         [&](uint64_t i, PlanParams* p) { p->id = vids[i % vids.size()]; }});

    for (Shape& shape : shapes) {
      auto prepared = shape.bound.Prepare(engine);
      if (!run.Check(prepared.status(), name + " " + shape.name + " prepare")) {
        continue;
      }
      PlanParams params;
      // Warmup: session scratch buffers and dictionary reach capacity.
      for (uint64_t i = 0; i < 64; ++i) {
        shape.pick(i, &params);
        prepared->RunCount(session, never, params).ok();
      }
      // Times `iterations` runs of `one` and sums their result counts;
      // every failed run is a violation.
      auto measure = [&](const char* path, auto one) {
        uint64_t errors = 0;
        Measured m = Measure([&] {
          uint64_t checksum = 0;
          for (uint64_t i = 0; i < iterations; ++i) {
            shape.pick(i, &params);
            Result<uint64_t> n = one();
            if (n.ok()) {
              checksum += *n;
            } else {
              ++errors;
            }
          }
          return checksum;
        });
        if (errors > 0) {
          run.Fail(StrFormat("%s %s: %llu %s runs failed", name.c_str(),
                             shape.name, (unsigned long long)errors, path));
        }
        return m;
      };
      Measured prep = measure("prepared", [&] {
        return prepared->RunCount(session, never, params);
      });
      Measured rebuilt = measure("rebuilt", [&] {
        return shape.rebuild(params).ExecuteCount(engine, session, never);
      });
      if (prep.count != rebuilt.count) {
        run.Fail(StrFormat("%s %s: RESULT MISMATCH prepared=%llu rebuilt=%llu",
                           name.c_str(), shape.name,
                           (unsigned long long)prep.count,
                           (unsigned long long)rebuilt.count));
      }
      run.Emit({
          {"engine", Json(name)},
          {"shape", Json(shape.name)},
          {"point_query", Json(shape.point)},
          {"rebuilt_qps", Json(Ratio(iterations, rebuilt.seconds))},
          {"prepared_qps", Json(Ratio(iterations, prep.seconds))},
          {"speedup", Json(Ratio(rebuilt.seconds, prep.seconds))},
          {"rebuilt_allocs_per_iteration",
           Json(Ratio(rebuilt.allocs, iterations))},
          {"prepared_allocs_per_iteration",
           Json(Ratio(prep.allocs, iterations))},
          {"result_checksum", Json(prep.count)},
      });
    }
  }
  std::printf(
      "\n(speedup = rebuilt q/s over prepared q/s on the same engine and\n"
      " session; a/it = heap allocations per iteration. The prepared path\n"
      " must show ~0 allocations on the point shapes — its per-run state\n"
      " lives in the session's PlanScratch, and per-iteration arguments\n"
      " are rebound through PlanParams instead of re-lowering.)\n");
  return {
      {"bench", Json("micro_prepared")},
      {"dataset", Json(run.flags.dataset)},
      {"scale", Json(run.flags.scale)},
      {"iterations", Json(static_cast<int64_t>(iterations))},
      {"results", run.TakeRows()},
  };
}

}  // namespace bench
}  // namespace gdbmicro
