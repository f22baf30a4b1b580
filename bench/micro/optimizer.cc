// Optimizer scenario: query shapes written in ADVERSARIAL order (cheap
// keep-everything filters first, the selective predicate last; expansion
// shapes the rule-based planner has no pattern for) are lowered twice —
// rule-based (syntactic lowering, today's baseline) and cost-based
// (load-time statistics) — plus a hand-ordered BEST version of each shape
// lowered rule-based, the oracle the optimizer is judged against.
//
// For each engine and shape it reports (each plan's fastest of --rounds
// timed runs, so one slow run on a shared host does not move a ratio):
//   rule ms   the adversarial ordering, rule-based lowering
//   cost ms   the same adversarial traversal, cost-based lowering
//   hand ms   the best hand-ordered traversal, rule-based lowering
//   x adv     rule ms / cost ms  (the optimizer's win over the trap)
//   vs hand   cost ms / hand ms  (1.0 = matches the oracle; < 1 beats it,
//             e.g. when the optimizer picks an index the syntax didn't)
//
// All three lowerings must return identical results. The summary line
// counts engines where the cost-based plan is >= 2x the adversarial
// ordering AND within 20% of the hand-ordered oracle on at least one
// shape.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/micro/micro.h"
#include "src/query/traversal.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {
namespace {

using query::Plan;
using query::Traversal;

/// Skewed synthetic graph sized by --scale (0.02 ~ 2K vertices):
///  * tier:  "rare" on 1% of vertices, "common" on the rest
///  * grp:   10 uniform groups ("g0".."g9")
///  * kind:  "thing" on every vertex (the keep-everything trap filter)
///  * edges: a "follows" ring plus out-degree-12 hubs on every 50th
///    vertex, so a degree filter is both selective and expensive.
GraphData SkewedData(double scale) {
  size_t n = std::max<size_t>(500, static_cast<size_t>(100000.0 * scale));
  GraphData data;
  data.name = "optskew";
  data.vertices.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    GraphData::Vertex v;
    v.label = "node";
    v.properties.emplace_back(
        "tier", PropertyValue(i % 100 == 0 ? "rare" : "common"));
    v.properties.emplace_back("grp",
                              PropertyValue("g" + std::to_string(i % 10)));
    v.properties.emplace_back("kind", PropertyValue("thing"));
    data.vertices.push_back(std::move(v));
  }
  auto add_edge = [&](uint64_t src, uint64_t dst, const char* label) {
    GraphData::Edge e;
    e.src = src;
    e.dst = dst;
    e.label = label;
    data.edges.push_back(std::move(e));
  };
  for (uint64_t i = 0; i < n; ++i) add_edge(i, (i + 1) % n, "follows");
  for (uint64_t h = 0; h < n; h += 50) {
    for (uint64_t j = 1; j <= 12; ++j) add_edge(h, (h + j) % n, "likes");
  }
  return data;
}

struct PlanTiming {
  double ms = 0;  // fastest round
  uint64_t rows = 0;
};

Result<PlanTiming> MeasurePlan(const Plan& plan, const GraphEngine& engine,
                               QuerySession& session, int rounds,
                               const CancelToken& cancel) {
  PlanTiming m;
  for (int r = 0; r < rounds; ++r) {
    Timer timer;
    GDB_ASSIGN_OR_RETURN(query::TraversalOutput out,
                         plan.Run(engine, session, cancel));
    double ms = timer.ElapsedMillis();
    m.ms = r == 0 ? ms : std::min(m.ms, ms);
    m.rows = out.counted ? out.count : out.rows.size();
  }
  return m;
}

struct Shape {
  const char* name;
  Traversal adversarial;  // selective predicate written last
  Traversal hand_best;    // the same query, best hand ordering
};

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  shapes.push_back({"filters-adv",
                    Traversal::V()
                        .Has("kind", PropertyValue("thing"))
                        .Has("grp", PropertyValue("g3"))
                        .Has("tier", PropertyValue("rare"))
                        .Count(),
                    Traversal::V()
                        .Has("tier", PropertyValue("rare"))
                        .Has("grp", PropertyValue("g3"))
                        .Has("kind", PropertyValue("thing"))
                        .Count()});
  shapes.push_back({"degree-adv",
                    Traversal::V()
                        .WhereDegreeAtLeast(Direction::kOut, 8)
                        .Has("tier", PropertyValue("rare"))
                        .Count(),
                    Traversal::V()
                        .Has("tier", PropertyValue("rare"))
                        .WhereDegreeAtLeast(Direction::kOut, 8)
                        .Count()});
  // No hand-ordering helps here: the win is the access-path choice
  // (one edge scan instead of a per-vertex expansion of both()).
  shapes.push_back({"both-dedup", Traversal::V().Both().Dedup().Count(),
                    Traversal::V().Both().Dedup().Count()});
  return shapes;
}

}  // namespace

Json::Object RunOptimizer(MicroRun& run) {
  const int rounds = run.flags.rounds;
  GraphData data = SkewedData(run.flags.scale);
  std::printf(
      "optimizer micro-bench: %zu vertices, %zu edges, %d rounds, "
      "stats %s\n\n",
      data.vertices.size(), data.edges.size(), rounds,
      run.flags.stats ? "on" : "off");
  run.Table({{"engine", "engine", -9},
             {"shape", "shape", -12},
             {"rows", "rows", 6},
             {"rule_adversarial_ms", "rule ms", 10, 3},
             {"cost_adversarial_ms", "cost ms", 10, 3},
             {"hand_best_ms", "hand ms", 10, 3},
             {"speedup_vs_adversarial", "x adv", 8, 2},
             {"cost_over_hand", "vs hand", 8, 2}});

  CancelToken never;
  int engines_meeting_criteria = 0;
  for (const std::string& name : run.flags.engines) {
    EngineOptions options;  // cost model off: measure the planner's effect
    options.collect_statistics = run.flags.stats;
    auto loaded = run.Load(name, data, options);
    if (!loaded) continue;
    const GraphEngine& engine = *loaded->engine;
    QuerySession& session = *loaded->session;
    QueryExecution policy = Traversal::PolicyFor(engine);

    bool meets = false;
    for (const Shape& shape : Shapes()) {
      auto measure = [&](Result<Plan> plan) -> Result<PlanTiming> {
        GDB_RETURN_IF_ERROR(plan.status());
        return MeasurePlan(*plan, engine, session, rounds, never);
      };
      auto rule = measure(shape.adversarial.Lower(policy));
      auto cost = measure(shape.adversarial.LowerFor(engine, policy));
      auto hand = measure(shape.hand_best.Lower(policy));
      if (!rule.ok() || !cost.ok() || !hand.ok()) {
        run.Fail(name + " " + shape.name + ": " +
                 (!rule.ok() ? rule : !cost.ok() ? cost : hand)
                     .status()
                     .ToString());
        continue;
      }
      if (rule->rows != cost->rows || rule->rows != hand->rows) {
        run.Fail(StrFormat(
            "%s %s: RESULT MISMATCH rule=%llu cost=%llu hand=%llu",
            name.c_str(), shape.name, (unsigned long long)rule->rows,
            (unsigned long long)cost->rows, (unsigned long long)hand->rows));
      }
      double x_adv = Ratio(rule->ms, cost->ms);
      double vs_hand = Ratio(cost->ms, hand->ms);
      if (x_adv >= 2.0 && vs_hand <= 1.2) meets = true;
      run.Emit({
          {"engine", Json(name)},
          {"shape", Json(shape.name)},
          {"rows", Json(rule->rows)},
          {"rule_adversarial_ms", Json(rule->ms)},
          {"cost_adversarial_ms", Json(cost->ms)},
          {"hand_best_ms", Json(hand->ms)},
          {"speedup_vs_adversarial", Json(x_adv)},
          {"cost_over_hand", Json(vs_hand)},
      });
    }
    if (meets) ++engines_meeting_criteria;
  }

  std::printf(
      "\n%d engine(s) met the acceptance bar (cost-based >= 2x the\n"
      "adversarial ordering and within 20%% of the hand-ordered oracle\n"
      "on at least one shape; the bar asks for >= 3).\n",
      engines_meeting_criteria);
  return {
      {"bench", Json("micro_optimizer")},
      {"scale", Json(run.flags.scale)},
      {"rounds", Json(rounds)},
      {"stats", Json(run.flags.stats)},
      {"engines_meeting_criteria", Json(engines_meeting_criteria)},
      {"results", run.TakeRows()},
  };
}

}  // namespace bench
}  // namespace gdbmicro
