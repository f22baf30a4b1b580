// Plan scenario: the operator pipeline's execution policies. Every query
// shape is lowered twice — step-wise (materializing barrier after every
// operator, the TinkerPop model) and conflated (planner rewrites + fused
// streaming pass) — and run against every engine with the cost models
// off, so the numbers are the execution model's own. Reports wall-clock
// per run, the speedup of the conflated policy, and the peak
// intermediate-result bytes each policy materialized (PlanStats). The
// policies must agree on every result.

#include <string>
#include <vector>

#include "bench/micro/micro.h"
#include "src/query/traversal.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {
namespace {

using query::Plan;
using query::PlanStats;
using query::Traversal;

struct PolicyMeasurement {
  double seconds_per_run = 0;
  uint64_t rows = 0;  // result cardinality (count value for counted shapes)
  uint64_t peak_frontier_bytes = 0;
  uint64_t source_rows = 0;  // rows the source emitted (early-stop proof)
};

/// Runs `t` lowered under `policy` `rounds` times; stats from the last
/// run, time averaged.
Result<PolicyMeasurement> MeasurePolicy(const Traversal& t,
                                        QueryExecution policy,
                                        const GraphEngine& engine,
                                        QuerySession& session, int rounds,
                                        const CancelToken& cancel) {
  GDB_ASSIGN_OR_RETURN(Plan plan, t.Lower(policy));
  PolicyMeasurement m;
  PlanStats stats;
  Timer timer;
  for (int r = 0; r < rounds; ++r) {
    GDB_ASSIGN_OR_RETURN(query::TraversalOutput out,
                         plan.Run(engine, session, cancel, &stats));
    m.rows = out.counted ? out.count : out.rows.size();
  }
  m.seconds_per_run = timer.ElapsedSeconds() / rounds;
  m.peak_frontier_bytes = stats.peak_frontier_bytes;
  m.source_rows = stats.rows_out.empty() ? 0 : stats.rows_out[0];
  return m;
}

}  // namespace

Json::Object RunPlan(MicroRun& run) {
  const GraphData& data = run.data;
  const int rounds = run.flags.rounds;

  // Dataset-derived probes: an existing vertex property for the Has
  // pushdown and an existing edge label for the HasLabel pushdown.
  size_t probe_idx = 0;
  while (probe_idx < data.vertices.size() &&
         data.vertices[probe_idx].properties.empty()) {
    ++probe_idx;
  }
  if (probe_idx == data.vertices.size() || data.edges.empty()) {
    run.Fail("dataset " + run.flags.dataset + " lacks probe properties/edges");
    return {};
  }
  const auto& [probe_key, probe_value] =
      data.vertices[probe_idx].properties.front();
  const std::string probe_label = data.edges.front().label;

  struct Shape {
    const char* name;
    Traversal t;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"V.has", Traversal::V().Has(probe_key, probe_value)});
  shapes.push_back(
      {"V.out.dedup.count", Traversal::V().Out().Dedup().Count()});
  shapes.push_back(
      {"E.hasLabel.count", Traversal::E().HasLabel(probe_label).Count()});
  shapes.push_back({"V.limit.100", Traversal::V().Limit(100)});
  shapes.push_back({"V.count", Traversal::V().Count()});

  std::printf("plan micro-bench: %d rounds, cost model off\n", rounds);
  std::printf("probe: has(%s == %s), hasLabel(%s)\n\n", probe_key.c_str(),
              probe_value.ToString().c_str(), probe_label.c_str());
  run.Table({{"engine", "engine", -9},
             {"shape", "shape", -18},
             {"rows", "rows", 8},
             {"stepwise_ms", "step ms", 10, 3},
             {"conflated_ms", "confl ms", 10, 3},
             {"speedup", "speedup", 8, 2},
             {"stepwise_peak_frontier_bytes", "step peak B", 12}});

  CancelToken never;
  for (const std::string& name : run.flags.engines) {
    // Cost model off: measure the execution model.
    auto loaded = run.Load(name, data);
    if (!loaded) continue;
    for (const Shape& shape : shapes) {
      auto step = MeasurePolicy(shape.t, QueryExecution::kStepWise,
                                *loaded->engine, *loaded->session, rounds,
                                never);
      auto conf = MeasurePolicy(shape.t, QueryExecution::kConflated,
                                *loaded->engine, *loaded->session, rounds,
                                never);
      if (!step.ok() || !conf.ok()) {
        run.Fail(name + " " + shape.name + ": " +
                 (step.ok() ? conf : step).status().ToString());
        continue;
      }
      if (step->rows != conf->rows) {
        // The policies must agree on results; a mismatch at bench scale
        // is a planner bug and fails the run (CI's smoke step).
        run.Fail(StrFormat("%s %s: POLICY MISMATCH step=%llu confl=%llu",
                           name.c_str(), shape.name,
                           (unsigned long long)step->rows,
                           (unsigned long long)conf->rows));
      }
      run.Emit({
          {"engine", Json(name)},
          {"shape", Json(shape.name)},
          {"rows", Json(step->rows)},
          {"stepwise_ms", Json(step->seconds_per_run * 1e3)},
          {"conflated_ms", Json(conf->seconds_per_run * 1e3)},
          {"speedup",
           Json(Ratio(step->seconds_per_run, conf->seconds_per_run))},
          {"stepwise_peak_frontier_bytes", Json(step->peak_frontier_bytes)},
          {"conflated_peak_frontier_bytes", Json(conf->peak_frontier_bytes)},
          {"stepwise_source_rows", Json(step->source_rows)},
          {"conflated_source_rows", Json(conf->source_rows)},
      });
    }
  }
  std::printf(
      "\n(speedup = step-wise ms / conflated ms; step peak B = the peak\n"
      " materialized frontier the step-wise barriers paid. The conflated\n"
      " policy materializes no frontier at all — counted shapes stream\n"
      " into the sink, Limit stops the source scan itself.)\n");
  return {
      {"bench", Json("micro_plan")},
      {"dataset", Json(run.flags.dataset)},
      {"scale", Json(run.flags.scale)},
      {"rounds", Json(rounds)},
      {"results", run.TakeRows()},
  };
}

}  // namespace bench
}  // namespace gdbmicro
