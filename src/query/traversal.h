// A Gremlin-style traversal machine.
//
// A Traversal is a list of logical steps built fluently (V().Has(...)
// .Out().Dedup().Count()). Execute() no longer interprets the steps: it
// *lowers* them into a physical operator plan (plan.h / operators.h) and
// runs that. The execution policy is selected from the engine's typed
// EngineInfo::query_execution contract:
//
//  * QueryExecution::kStepWise engines get a plan run with a
//    materializing barrier after every operator — exactly the TinkerPop
//    adapter behavior the paper measures, including its intermediate-
//    result memory profile.
//  * QueryExecution::kConflated engines (Table 1's "Optimized" column)
//    get planner rewrites that push step patterns into native engine
//    queries plus a fused streaming pass with limit/count pushdown.
//
// Use Lower()/ExplainPlan() to inspect the physical plan a traversal
// compiles to without executing it.

#ifndef GDBMICRO_QUERY_TRAVERSAL_H_
#define GDBMICRO_QUERY_TRAVERSAL_H_

#include <optional>
#include <string>
#include <vector>

#include "src/graph/engine.h"
#include "src/query/plan.h"

namespace gdbmicro {
namespace query {

class Traversal {
 public:
  /// g.V() — all vertices (full scan source).
  static Traversal V();
  /// g.V(id) — a single vertex; missing id yields an empty traverser set.
  static Traversal V(VertexId id);
  /// g.V(?) — the id is a PlanParams slot bound at Run time, so one
  /// prepared plan serves every per-iteration id without re-lowering.
  static Traversal V(Bound);
  /// g.E() — all edges.
  static Traversal E();
  /// g.E(id) — a single edge; missing id yields an empty traverser set.
  static Traversal E(EdgeId id);
  /// g.E(?) — bound-id edge source (see V(Bound)).
  static Traversal E(Bound);

  /// Filters vertices/edges by label.
  Traversal& HasLabel(std::string label);
  /// Filters elements by property equality (paper Q.11/Q.12 shape).
  Traversal& Has(std::string key, PropertyValue value);
  /// 1-hop adjacency (paper Q.22-24). Empty optional = any label; the
  /// Bound overloads read the label from PlanParams at Run time.
  Traversal& Out(std::optional<std::string> label = std::nullopt);
  Traversal& In(std::optional<std::string> label = std::nullopt);
  Traversal& Both(std::optional<std::string> label = std::nullopt);
  Traversal& Out(Bound);
  Traversal& In(Bound);
  Traversal& Both(Bound);
  /// Incident edges (paper Q.25-27 substrate).
  Traversal& OutE(std::optional<std::string> label = std::nullopt);
  Traversal& InE(std::optional<std::string> label = std::nullopt);
  Traversal& BothE(std::optional<std::string> label = std::nullopt);
  /// Maps elements to their label string.
  Traversal& Label();
  /// Removes duplicate traversers (paper Q.10/Q.31 shape).
  Traversal& Dedup();
  /// Keeps the first n traversers.
  Traversal& Limit(uint64_t n);
  /// Keeps vertices whose degree in `dir` is at least k — the
  /// g.V.filter{it.bothE.count() >= k} shape of Q.28-Q.30. Executed
  /// Gremlin-style: the inner count materializes the incident edge list.
  Traversal& WhereDegreeAtLeast(Direction dir, uint64_t k);
  /// Terminal count.
  Traversal& Count();

  /// Lowers to a physical plan and runs it against `engine` under the
  /// policy PolicyFor(engine) selects. `session` is the calling client's
  /// read session (one per thread; see the engine.h concurrency
  /// contract). Rebuild-and-execute is the comparison baseline for the
  /// prepared path; hot loops should Prepare() once instead.
  Result<TraversalOutput> Execute(const GraphEngine& engine,
                                  QuerySession& session,
                                  const CancelToken& cancel) const;

  /// Lowers once under the engine's policy into a reusable PreparedPlan:
  /// immutable, shareable across that engine's sessions, with bound
  /// steps (V(Bound{}), E(Bound{}), Out(Bound{})) taking their
  /// per-iteration arguments from PlanParams at Run time.
  Result<PreparedPlan> Prepare(const GraphEngine& engine) const;

  /// Lowers this traversal under an explicit policy without executing.
  Result<Plan> Lower(QueryExecution policy) const;

  /// Like Lower(), but cost-based when `engine` carries load-time
  /// statistics (rule-based otherwise) — the lowering Execute()/Prepare()
  /// use, exposed for plan inspection and optimizer A/B tests.
  Result<Plan> LowerFor(const GraphEngine& engine,
                        QueryExecution policy) const;

  /// Renders the lowered operator tree (see Plan::Explain).
  Result<std::string> ExplainPlan(QueryExecution policy) const;

  /// The execution policy Execute() selects for `engine`: its typed
  /// Table 1 query-execution contract.
  static QueryExecution PolicyFor(const GraphEngine& engine);

  /// Convenience: Execute and return the final count (the size of the
  /// traverser set if no Count() step is present).
  Result<uint64_t> ExecuteCount(const GraphEngine& engine,
                                QuerySession& session,
                                const CancelToken& cancel) const;

  /// Convenience: Execute and return vertex/edge ids.
  Result<std::vector<uint64_t>> ExecuteIds(const GraphEngine& engine,
                                           QuerySession& session,
                                           const CancelToken& cancel) const;

  /// Convenience: Execute and return value strings.
  Result<std::vector<std::string>> ExecuteValues(
      const GraphEngine& engine, QuerySession& session,
      const CancelToken& cancel) const;

 private:
  std::vector<LogicalStep> steps_;
};

}  // namespace query
}  // namespace gdbmicro

#endif  // GDBMICRO_QUERY_TRAVERSAL_H_
