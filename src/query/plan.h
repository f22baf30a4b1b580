// Physical query plans for the traversal machine.
//
// A Traversal is *lowered* into a linear chain of physical operators
// (operators.h) under one of two execution policies, mirroring the
// paper's Table 1 "Query execution" split:
//
//  * QueryExecution::kStepWise — the TinkerPop adapter model: the plan is
//    run operator-at-a-time with a materializing barrier after every
//    operator. Each operator consumes the full traverser frontier the
//    previous one produced; intermediate results are real vectors whose
//    peak size is reported in PlanStats (the "large intermediate results"
//    the paper blames for several systems' failures).
//
//  * QueryExecution::kConflated — the Sqlg/Titan adapter model: the
//    planner first applies prefix rewrites that push whole step patterns
//    into native engine queries (Has → PropertyIndexScan, E().HasLabel →
//    EdgeLabelScan, V().Out().Dedup() → a streaming distinct over
//    ScanEdges), then fuses the remaining chain into a single streaming
//    pass with no barriers: each operator pushes rows straight into its
//    consumer, a trailing Count() never materializes a frontier, and a
//    Limit() stops the source scan itself (the operator chain propagates
//    "stop" upstream through the sink return value).
//
// Both policies run the *same* operator implementations; only the
// executor and the planner rewrites differ, so result equivalence is
// structural. Plan::Explain() prints the operator tree (root = last
// operator, children indented, the RDF-3X print(indent) idiom) and is
// the unit-testable surface of the lowering pass.
//
// Prepared execution (the RDF-3X compile-once/run-many discipline): a
// Plan is immutable after Lower() and Run() is const — every per-run
// mutable structure (dedup sets, limit counters, count accumulators,
// step-wise frontier buffers, the rendered-value dictionary) lives in a
// per-session PlanScratch, so ONE lowered plan serves any number of
// concurrent sessions with zero re-lowering and near-zero per-run
// allocation. Traversal::Prepare(engine) wraps that in a PreparedPlan;
// per-iteration query arguments (the vertex id of g.V(id), the value of
// has(k, v), an adjacency label) are bound at Run time through
// PlanParams slots instead of rebuilding and re-lowering the traversal.
//
// Rows are flat: a traverser is one uint64_t — the vertex/edge id, or an
// index into the session's interned value pool for label/property-value
// rows. The row *kind* is a static property of each pipeline position
// (computed at lowering), so step-wise barriers move POD columns instead
// of vectors of string-carrying structs, and a value string is
// materialized exactly once per distinct value per session.

#ifndef GDBMICRO_QUERY_PLAN_H_
#define GDBMICRO_QUERY_PLAN_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/engine.h"
#include "src/storage/hash_index.h"

namespace gdbmicro {
namespace query {

class Operator;
class CardinalityEstimator;

/// Number of selectivity classes a bound has(k, ?) value can land in
/// (log-scale over estimated matching rows; see
/// CardinalityEstimator::ClassOf). PreparedPlan keeps at most one
/// re-priced lowering per class.
inline constexpr int kSelectivityClasses = 4;

/// What a pipeline position's rows denote. Uniform per position: sources
/// fix it, and every operator maps its input kind to one output kind, so
/// lowering computes the whole chain statically (this is what lets a row
/// be a bare uint64_t).
enum class RowKind : uint8_t { kVertex, kEdge, kValue };

/// Session-lifetime dictionary of rendered value strings (labels,
/// property values). Value rows carry an index into this pool; equal
/// strings intern to equal indexes, so Dedup over values is integer
/// dedup and a repeated label costs zero allocation after its first
/// appearance. Storage is a deque: views handed out stay valid for the
/// session's lifetime. The index is one open-addressing table keyed by
/// those views, so interning a new value adds no hash node.
class ValuePool {
 public:
  uint64_t Intern(std::string_view s) {
    if (const uint64_t* idx = index_.Get(s)) return *idx;
    values_.emplace_back(s);
    uint64_t idx = values_.size() - 1;
    index_.Put(values_.back(), idx);
    return idx;
  }
  std::string_view Get(uint64_t idx) const { return values_[idx]; }
  size_t size() const { return values_.size(); }

 private:
  std::deque<std::string> values_;
  HashIndex<std::string_view, uint64_t> index_;
};

/// Per-run arguments for a plan with bound steps (Traversal::V(Bound{}),
/// Has(key, Bound{}), Out(Bound{}) …). One slot per argument class is all
/// the Table 2 shapes need; rebinding reuses the slots' storage.
struct PlanParams {
  uint64_t id = 0;      // g.V(?) / g.E(?) source id
  PropertyValue value;  // has(k, ?) comparison value
  std::string label;    // adjacency label of out(?) / inE(?) / …
};

/// Marker selecting the bound-parameter overloads of the Traversal
/// builder steps: Traversal::V(Bound{}) lowers to a source whose id is
/// read from PlanParams at Run time.
struct Bound {};

/// Output of a plan run, structure-of-arrays: a flat id column plus a
/// value column that is materialized only when the plan ends in a
/// Values()/Label() map. For value rows, rows[i] is the pool index and
/// values[i] the interned string (a view into the session's ValuePool —
/// valid for the session's lifetime). Reused across runs via RunInto:
/// Clear() drops rows, not capacity.
struct TraversalOutput {
  RowKind kind = RowKind::kVertex;
  std::vector<uint64_t> rows;
  std::vector<std::string_view> values;
  uint64_t count = 0;
  bool counted = false;

  size_t size() const { return rows.size(); }
  void Clear() {
    rows.clear();
    values.clear();
    count = 0;
    counted = false;
    kind = RowKind::kVertex;
  }
};

/// One operator's slot of per-run state (dedup set, limit/count
/// accumulator). Epoch-stamped: a slot is lazily reset the first time an
/// operator touches it in a run whose epoch differs from the stamp, so
/// starting a run is O(1) — no per-operator reset sweep, and untouched
/// slots cost nothing. `seen` is an open-addressing set whose reset keeps
/// its slots: a warm slot allocates nothing until a run admits more
/// distinct rows than its slots hold, a run that fills less than an
/// eighth of them shrinks it back to 16 (HashIndex::Reset), and a slot
/// whose operator never dedups never allocates at all.
struct OpScratch {
  uint64_t epoch = 0;
  uint64_t counter = 0;
  HashIndex<uint64_t, bool> seen;
};

/// All per-run mutable state of plan execution, owned by a QuerySession
/// (one client thread) and reused across every plan that session runs —
/// the counterpart of TraversalScratch for the operator pipeline. Living
/// here instead of in the operators is what makes a lowered Plan
/// immutable and shareable across concurrent sessions.
struct PlanScratch final : public SessionState {
  /// Monotonic run counter; OpScratch slots lazily reset against it.
  uint64_t run_epoch = 0;
  /// One slot per operator position, grown to the widest plan seen.
  std::vector<OpScratch> ops;
  /// Step-wise barrier buffers (flat POD columns, swapped per barrier).
  std::vector<uint64_t> frontier;
  std::vector<uint64_t> next;
  /// Interned label / property-value strings (session lifetime).
  ValuePool pool;
  /// Reused render buffer for non-string property values.
  std::string value_buf;
  /// Reused output for count-only consumers (PreparedPlan::RunCount).
  TraversalOutput count_out;

  /// The session's scratch, installed on first use.
  static PlanScratch& For(QuerySession& session);
};

/// The logical steps a Traversal records; Plan::Lower consumes them.
enum class LogicalOp {
  kSourceV,
  kSourceVId,
  kSourceE,
  kSourceEId,
  kHasLabel,
  kHas,
  kOut,
  kIn,
  kBoth,
  kOutE,
  kInE,
  kBothE,
  kOutV,
  kInV,
  kLabel,
  kValues,
  kDedup,
  kLimit,
  kDegreeFilter,
  kCount,
};

struct LogicalStep {
  explicit LogicalStep(LogicalOp o) : op(o) {}

  LogicalOp op;
  uint64_t id = 0;         // source id / limit n / degree k
  std::string key;         // property key / label
  PropertyValue value;     // Has() value
  std::optional<std::string> label;  // adjacency label filter
  Direction dir = Direction::kBoth;  // degree filter direction
  /// Step argument is a PlanParams slot bound at Run time (the id of
  /// kSourceVId/kSourceEId, the value of kHas, an adjacency label).
  bool bound = false;
};

/// Per-run execution statistics, filled by Plan::Run when requested.
/// The step-wise numbers are the intermediate-result memory profile the
/// paper measures; the per-operator row counts make early-stop claims
/// testable ("V().Limit(5) visited <= 5 vertices").
struct PlanStats {
  /// rows_out[i] = rows operator i pushed into its consumer (for the
  /// source, the number of elements the engine scan emitted).
  std::vector<uint64_t> rows_out;
  /// est_rows[i] = the optimizer's estimated output rows of operator i
  /// (empty for rule-based plans). Compare against rows_out to see where
  /// the cost model mis-estimated.
  std::vector<double> est_rows;
  /// Materializing barriers executed (0 under the conflated policy).
  uint64_t barriers = 0;
  /// Largest materialized frontier, in rows and approximate bytes.
  uint64_t peak_frontier_rows = 0;
  uint64_t peak_frontier_bytes = 0;
};

/// A lowered, runnable physical plan: a linear operator chain whose first
/// element is a source. Immutable after Lower() — Run() is const and all
/// per-run state lives in the calling session's PlanScratch, so one Plan
/// may be executed by any number of sessions concurrently (each session
/// is still single-threaded, like the engine contract). Move-only (owns
/// the operators).
class Plan {
 public:
  ~Plan();
  Plan(Plan&&) noexcept;
  Plan& operator=(Plan&&) noexcept;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  /// Lowers logical steps into a physical chain under `policy`. The
  /// conflated policy applies the planner rewrites; step-wise maps steps
  /// one-to-one. Steps after a Count() are unreachable and dropped.
  static Result<Plan> Lower(const std::vector<LogicalStep>& steps,
                            QueryExecution policy);

  /// Cost-based lowering: with a non-null `estimator`, commutable filter
  /// runs are ordered by estimated selectivity rank, access paths
  /// (PropertyIndexScan / EdgeLabelScan / DistinctNeighborScan) are
  /// chosen by estimated cardinality under BOTH policies, and per-
  /// operator row estimates are recorded (Explain / PlanStats). A null
  /// estimator is exactly the rule-based overload above. The optimizer
  /// never changes the emitted result multiset, and pure filter
  /// reordering preserves even the row order.
  static Result<Plan> Lower(const std::vector<LogicalStep>& steps,
                            QueryExecution policy,
                            const CardinalityEstimator* estimator);

  /// Executes the plan into `out` (cleared first; its capacity is
  /// reused, so a caller that keeps one TraversalOutput across runs
  /// allocates nothing at steady state). `session` must belong to
  /// `engine`; `params` supplies the bound-step arguments (required iff
  /// needs_params()). `stats`, when non-null, is overwritten.
  Status RunInto(const GraphEngine& engine, QuerySession& session,
                 const CancelToken& cancel, const PlanParams* params,
                 TraversalOutput* out, PlanStats* stats = nullptr) const;

  /// Convenience wrapper returning a fresh output.
  Result<TraversalOutput> Run(const GraphEngine& engine,
                              QuerySession& session, const CancelToken& cancel,
                              PlanStats* stats = nullptr) const;

  /// Operator tree, root (last operator) first, two-space indent per
  /// child level. One operator per line: Name or Name(args). Plans
  /// lowered with an estimator append " ~rows=N" per operator;
  /// rule-based plans print without annotations (the golden format).
  std::string Explain() const;

  /// Estimated output rows per operator (empty for rule-based plans).
  const std::vector<double>& estimated_rows() const { return est_rows_; }

  QueryExecution policy() const { return policy_; }
  size_t num_operators() const { return ops_.size(); }
  /// True when the chain has bound steps: RunInto then requires params.
  bool needs_params() const { return needs_params_; }
  /// Kind of the rows the plan emits (meaningless for counted plans).
  RowKind output_kind() const { return output_kind_; }
  /// Statically-known upper bound on the emitted row count, when the
  /// chain can bound it (lookup sources, Limit); lets RunInto reserve
  /// its sinks instead of growing them from empty.
  std::optional<uint64_t> row_bound() const { return row_bound_; }

 private:
  Plan() = default;

  Status RunStreaming(const GraphEngine& engine, QuerySession& session,
                      const CancelToken& cancel, const PlanParams* params,
                      PlanScratch& scratch, TraversalOutput* out,
                      PlanStats* stats) const;
  Status RunStepWise(const GraphEngine& engine, QuerySession& session,
                     const CancelToken& cancel, const PlanParams* params,
                     PlanScratch& scratch, TraversalOutput* out,
                     PlanStats* stats) const;

  std::vector<std::unique_ptr<Operator>> ops_;
  std::vector<double> est_rows_;  // one per operator when cost-based
  bool counted_ = false;          // chain ends in a CountSink
  bool needs_params_ = false;
  RowKind output_kind_ = RowKind::kVertex;
  std::optional<uint64_t> row_bound_;
  QueryExecution policy_ = QueryExecution::kStepWise;
};

/// Lazily built per-selectivity-class lowerings of one prepared plan
/// (see PreparedPlan). Slots publish through acquire/release atomics so
/// concurrent sessions re-pricing the same class race only on the
/// construction mutex, never on a published plan.
struct ClassPlanCache {
  std::mutex mu;
  std::array<std::atomic<const Plan*>, kSelectivityClasses> slots{};
  std::vector<std::unique_ptr<Plan>> owned;  // guarded by mu
};

/// A plan prepared for one engine (lowered once under the engine's
/// policy) and runnable from any of that engine's sessions — build with
/// Traversal::Prepare(engine), run every iteration with fresh PlanParams.
/// Immutable and therefore shareable across concurrent client threads;
/// the engine must outlive it.
///
/// Cost-based re-pricing: when the plan was lowered with statistics and
/// has a bound has(k, ?) step, rebinding a value whose estimated
/// cardinality falls in a different selectivity class than the one the
/// cached lowering was priced for transparently switches to a lowering
/// priced for that class (built once per class, cached). Values within
/// the same class never re-lower.
class PreparedPlan {
 public:
  PreparedPlan(PreparedPlan&&) noexcept = default;
  PreparedPlan& operator=(PreparedPlan&&) noexcept = default;

  /// Executes into a caller-owned, capacity-reused output.
  Status RunInto(QuerySession& session, const CancelToken& cancel,
                 const PlanParams& params, TraversalOutput* out,
                 PlanStats* stats = nullptr) const {
    return PlanFor(params).RunInto(*engine_, session, cancel, &params, out,
                                   stats);
  }

  Result<TraversalOutput> Run(QuerySession& session, const CancelToken& cancel,
                              const PlanParams& params = {}) const {
    TraversalOutput out;
    GDB_RETURN_IF_ERROR(RunInto(session, cancel, params, &out));
    return out;
  }

  /// Executes and returns only the cardinality (the count value for
  /// counted plans, the traverser-set size otherwise), collecting into
  /// the session scratch so nothing is allocated at steady state.
  Result<uint64_t> RunCount(QuerySession& session, const CancelToken& cancel,
                            const PlanParams& params = {}) const {
    TraversalOutput* out = &PlanScratch::For(session).count_out;
    GDB_RETURN_IF_ERROR(RunInto(session, cancel, params, out));
    return out->counted ? out->count : out->rows.size();
  }

  const GraphEngine& engine() const { return *engine_; }
  const Plan& plan() const { return plan_; }
  std::string Explain() const { return plan_.Explain(); }
  QueryExecution policy() const { return plan_.policy(); }

  /// The lowering RunInto would execute for `params`: the base plan, or
  /// a per-selectivity-class re-priced lowering (see the class comment).
  const Plan& PlanFor(const PlanParams& params) const {
    if (cache_ == nullptr) return plan_;
    return RepricedPlan(params);
  }

 private:
  friend class Traversal;
  PreparedPlan(const GraphEngine* engine, Plan plan)
      : engine_(engine), plan_(std::move(plan)) {}
  /// Cost-based ctor (statistics present at Prepare time): enables
  /// re-pricing iff `steps` contain a bound has(k, ?).
  PreparedPlan(const GraphEngine* engine, Plan plan,
               std::vector<LogicalStep> steps, bool supports_property_index);

  const Plan& RepricedPlan(const PlanParams& params) const;

  const GraphEngine* engine_;
  Plan plan_;
  /// Re-pricing state; cache_ stays null unless it applies.
  std::vector<LogicalStep> steps_;
  std::string bound_has_key_;
  int base_class_ = -1;  // class plan_ was priced for (-1 = off)
  bool supports_index_ = false;
  std::shared_ptr<ClassPlanCache> cache_;
};

}  // namespace query
}  // namespace gdbmicro

#endif  // GDBMICRO_QUERY_PLAN_H_
