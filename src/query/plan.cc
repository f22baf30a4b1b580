#include "src/query/plan.h"

#include <algorithm>
#include <utility>

#include "src/query/operators.h"
#include "src/query/stats.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace query {

namespace {

bool IsSourceOp(LogicalOp op) {
  return op == LogicalOp::kSourceV || op == LogicalOp::kSourceVId ||
         op == LogicalOp::kSourceE || op == LogicalOp::kSourceEId;
}

bool IsFilterOp(LogicalOp op) {
  return op == LogicalOp::kHasLabel || op == LogicalOp::kHas ||
         op == LogicalOp::kDegreeFilter;
}

/// Row kind after a logical step given the kind flowing into it (the
/// logical-step mirror of Operator::OutputKind, used by the optimizer
/// before any operator exists).
RowKind StepOutputKind(const LogicalStep& s, RowKind in) {
  switch (s.op) {
    case LogicalOp::kSourceV:
    case LogicalOp::kSourceVId:
    case LogicalOp::kOut:
    case LogicalOp::kIn:
    case LogicalOp::kBoth:
      return RowKind::kVertex;
    case LogicalOp::kSourceE:
    case LogicalOp::kSourceEId:
    case LogicalOp::kOutE:
    case LogicalOp::kInE:
    case LogicalOp::kBothE:
      return RowKind::kEdge;
    case LogicalOp::kLabel:
      return RowKind::kValue;
    default:
      return in;
  }
}

/// Fixed overhead charged to a native index/label probe, in record-fetch
/// units — keeps the optimizer from preferring an index for plans whose
/// scan side is already tiny.
constexpr double kIndexProbeCost = 8.0;

/// The native access path that replaces a plan's source prefix.
enum class AccessPath : uint8_t {
  kNone,
  kPropertyIndex,     // V().has(k, v) -> PropertyIndexScan
  kEdgeLabel,         // E().hasLabel(l) -> EdgeLabelScan
  kDistinctNeighbor,  // V().out/in/both([l]).dedup() -> DistinctNeighborScan
};

/// An access path and the prefix steps it replaces: the source and
/// steps[1] (plus the Dedup at steps[2] for kDistinctNeighbor), except
/// that kPropertyIndex probes the has() at `has_step`, which may sit
/// anywhere in the leading filter run.
struct AccessChoice {
  AccessPath path = AccessPath::kNone;
  size_t has_step = 1;
};

/// Pipeline cost of running `rows` input rows of kind `kind` through the
/// filter run steps[first, last) in order, leaving out steps[skip] (the
/// default, the source, is never in a run): sum over the run of
/// (surviving rows) * (per-row filter cost).
double FilterRunCost(const std::vector<LogicalStep>& steps, size_t first,
                     size_t last, double rows, RowKind kind,
                     const CardinalityEstimator& est, size_t skip = 0) {
  double cost = 0.0;
  for (size_t i = first; i < last; ++i) {
    if (i == skip) continue;
    cost += rows * est.FilterCostPerRow(steps[i]);
    rows *= est.Selectivity(steps[i], kind);
  }
  return cost;
}

/// Orders every maximal run of consecutive commutable filters by the
/// classic rank (selectivity - 1) / cost, ascending: filters that drop
/// the most rows per unit of work run first. Filters only drop rows
/// (never reorder survivors), so the result multiset AND its order are
/// preserved under both policies.
std::vector<LogicalStep> OrderFilterRuns(const std::vector<LogicalStep>& in,
                                         const CardinalityEstimator& est) {
  std::vector<LogicalStep> steps = in;

  // Input row kind of each step (filters keep their input kind, so the
  // kind is stable across any permutation of a run).
  std::vector<RowKind> in_kind(steps.size(), RowKind::kVertex);
  RowKind kind = RowKind::kVertex;
  for (size_t j = 0; j < steps.size(); ++j) {
    in_kind[j] = kind;
    kind = StepOutputKind(steps[j], kind);
  }

  for (size_t i = 1; i < steps.size();) {
    if (!IsFilterOp(steps[i].op)) {
      ++i;
      continue;
    }
    size_t first = i;
    while (i < steps.size() && IsFilterOp(steps[i].op)) ++i;
    if (i - first < 2) continue;
    RowKind run_kind = in_kind[first];
    auto rank = [&](const LogicalStep& s) {
      double cost = std::max(est.FilterCostPerRow(s), 1e-9);
      return (est.Selectivity(s, run_kind) - 1.0) / cost;
    };
    std::stable_sort(
        steps.begin() + static_cast<ptrdiff_t>(first),
        steps.begin() + static_cast<ptrdiff_t>(i),
        [&](const LogicalStep& a, const LogicalStep& b) {
          return rank(a) < rank(b);
        });
  }
  return steps;
}

/// The one access-path chooser, shaped after RDF-3X's IndexScan::create:
/// what the prefix binds and what it costs pick the path. With an
/// estimator each rewrite is priced against the pipeline it replaces,
/// under BOTH policies (a native access path beats a full scan however
/// the rest of the chain runs). Without one, the conflated policy takes
/// the three syntactic rewrites that generalize what the engines' real
/// adapters conflate (paper Table 1 "Query execution"; the remaining
/// steps fuse into the streaming pass, so Limit()/Count() pushdown needs
/// no pattern at all), and step-wise takes none.
///
/// Guard shared by every rewrite: a rewritten source emits in its own
/// native order (edge-scan / index order), not the vertex-scan expansion
/// order the step-wise policy produces. That is fine for every
/// order-insensitive continuation, but a downstream Limit() selects a
/// *subset* by order, so no rewrite applies when the suffix holds one,
/// keeping both policies answer-equivalent. (The fused streaming pass
/// itself preserves step-wise order, so un-rewritten plans are never
/// affected.)
AccessChoice ChooseAccessPath(const std::vector<LogicalStep>& steps,
                              QueryExecution policy,
                              const CardinalityEstimator* est) {
  for (const LogicalStep& s : steps) {
    if (s.op == LogicalOp::kCount) break;  // terminal: later steps dropped
    if (s.op == LogicalOp::kLimit) return {};
  }
  if (steps.size() < 2) return {};
  const bool from_v = steps[0].op == LogicalOp::kSourceV;
  const bool from_e = steps[0].op == LogicalOp::kSourceE;
  const LogicalOp second = steps[1].op;
  const bool expand_dedup =
      from_v && steps.size() > 2 && !steps[1].bound &&
      (second == LogicalOp::kOut || second == LogicalOp::kIn ||
       second == LogicalOp::kBoth) &&
      steps[2].op == LogicalOp::kDedup;

  if (est == nullptr) {
    if (policy != QueryExecution::kConflated) return {};
    if (expand_dedup && second == LogicalOp::kOut &&
        !steps[1].label.has_value()) {
      // V().out().dedup(), paper Q.31: SELECT DISTINCT dst over the edge
      // tables instead of a per-vertex union of expansions.
      return {AccessPath::kDistinctNeighbor};
    }
    if (from_v && second == LogicalOp::kHas) {
      // V().has(k, v), paper Q.11: one native property search.
      return {AccessPath::kPropertyIndex};
    }
    if (from_e && second == LogicalOp::kHasLabel) {
      // E().hasLabel(l), paper Q.13: the native edges-by-label search.
      return {AccessPath::kEdgeLabel};
    }
    return {};
  }

  const double vertices = static_cast<double>(est->stats().vertices);
  const double edges = static_cast<double>(est->stats().edges);
  if (from_v && IsFilterOp(second) && est->supports_property_index()) {
    // Index-vs-scan by estimated cardinality: any has() in the leading
    // filter run is index-eligible (filters commute), so probe the one
    // estimated cheapest, not merely the one written first. The index
    // plan runs the rest of the run, in order, over the probed rows.
    size_t run_end = 1;
    while (run_end < steps.size() && IsFilterOp(steps[run_end].op)) ++run_end;
    size_t best = 0;
    double best_rows = 0.0;
    for (size_t j = 1; j < run_end; ++j) {
      if (steps[j].op != LogicalOp::kHas) continue;
      double rows = est->HasRows(steps[j]);
      if (best == 0 || rows < best_rows) {
        best = j;
        best_rows = rows;
      }
    }
    if (best == 0) return {};
    double scan_cost =
        vertices +
        FilterRunCost(steps, 1, run_end, vertices, RowKind::kVertex, *est);
    double index_cost = kIndexProbeCost + best_rows +
                        FilterRunCost(steps, 1, run_end, best_rows,
                                      RowKind::kVertex, *est, best);
    if (index_cost < scan_cost) return {AccessPath::kPropertyIndex, best};
  } else if (from_e && second == LogicalOp::kHasLabel) {
    // Native edges-by-label visits only the labeled edges; the scan
    // pipeline visits every edge and fetches its record.
    double labeled =
        static_cast<double>(est->stats().EdgesWithLabel(steps[1].key));
    if (kIndexProbeCost + labeled < edges * 2.0) {
      return {AccessPath::kEdgeLabel};
    }
  } else if (expand_dedup) {
    // Distinct neighbors: per-vertex expansion pays one visitor call per
    // vertex plus every directed edge visit (both() walks each edge from
    // both endpoints); one ScanEdges pass pays each edge once, whatever
    // the direction. This is where the expansion-direction choice for
    // both()/undirected chains happens.
    double expand_cost = vertices + vertices * est->Fanout(steps[1]);
    double scan_cost = edges;
    if (scan_cost < expand_cost) return {AccessPath::kDistinctNeighbor};
  }
  return {};
}

/// Cap on speculative sink reservations: a statically-bounded plan never
/// grows its output from empty, but a huge Limit(n) must not presize
/// gigabytes either.
constexpr uint64_t kMaxReserveRows = 1 << 16;

/// Approximate heap footprint of a materialized frontier (the
/// intermediate-result bytes the step-wise policy pays per barrier).
/// Value rows charge their interned payload, keeping the profile
/// comparable to the string-carrying rows they replaced.
uint64_t FrontierBytes(const std::vector<uint64_t>& rows, RowKind kind,
                       const ValuePool& pool) {
  uint64_t bytes = rows.size() * sizeof(uint64_t);
  if (kind == RowKind::kValue) {
    for (uint64_t row : rows) bytes += pool.Get(row).size();
  }
  return bytes;
}

/// Reads a CountSink's accumulated count from its scratch slot: an
/// untouched slot (stale epoch) means no row reached the sink this run.
uint64_t CountFrom(const OpScratch& slot, uint64_t run_epoch) {
  return slot.epoch == run_epoch ? slot.counter : 0;
}

/// Lowers an id-source step (g.V(id)/g.E(id)) whose id is either fixed
/// or a Run-time PlanParams slot.
template <typename Op>
std::unique_ptr<Operator> LowerLookup(const LogicalStep& s) {
  if (s.bound) return std::make_unique<Op>(Bound{});
  return std::make_unique<Op>(s.id);
}

}  // namespace

PlanScratch& PlanScratch::For(QuerySession& session) {
  auto* state = static_cast<PlanScratch*>(session.query_state());
  if (state == nullptr) {
    auto created = std::make_unique<PlanScratch>();
    state = created.get();
    session.set_query_state(std::move(created));
  }
  return *state;
}

// Out of line: unique_ptr<Operator> members need the complete type.
Plan::~Plan() = default;
Plan::Plan(Plan&&) noexcept = default;
Plan& Plan::operator=(Plan&&) noexcept = default;

Result<Plan> Plan::Lower(const std::vector<LogicalStep>& input,
                         QueryExecution policy,
                         const CardinalityEstimator* est) {
  Plan plan;
  plan.policy_ = policy;
  if (input.empty()) return plan;  // empty traversal runs to an empty output
  if (!IsSourceOp(input[0].op)) {
    return Status::InvalidArgument("traversal does not start with a source");
  }

  // Cost-based lowering orders the commutable filter runs first; without
  // statistics the steps lower in their written order.
  std::vector<LogicalStep> ordered;
  if (est != nullptr) ordered = OrderFilterRuns(input, *est);
  const std::vector<LogicalStep>& steps = est != nullptr ? ordered : input;
  const AccessChoice access = ChooseAccessPath(steps, policy, est);

  // Running estimate threaded through the lowering: rows flowing out of
  // the operator just pushed, and the row kind flowing into the next step.
  double rows = 0.0;
  RowKind ekind = RowKind::kVertex;
  auto note = [&](double r) {
    plan.est_rows_.push_back(r);
    rows = r;
  };

  // The one emission switch: the chosen access path becomes the source
  // operator, and the loop below lowers the steps it did not replace.
  size_t i = 0;
  switch (access.path) {
    case AccessPath::kPropertyIndex: {
      const LogicalStep& has = steps[access.has_step];
      plan.ops_.push_back(
          std::make_unique<PropertyIndexScan>(has.key, has.value));
      if (est != nullptr) note(est->HasRows(has));
      i = 1;
      break;
    }
    case AccessPath::kEdgeLabel:
      plan.ops_.push_back(std::make_unique<EdgeLabelScan>(steps[1].key));
      if (est != nullptr) {
        note(static_cast<double>(est->stats().EdgesWithLabel(steps[1].key)));
      }
      ekind = RowKind::kEdge;
      i = 2;
      break;
    case AccessPath::kDistinctNeighbor: {
      Direction dir = steps[1].op == LogicalOp::kOut   ? Direction::kOut
                      : steps[1].op == LogicalOp::kIn ? Direction::kIn
                                                      : Direction::kBoth;
      plan.ops_.push_back(
          std::make_unique<DistinctNeighborScan>(dir, steps[1].label));
      if (est != nullptr) note(est->DistinctNeighbors(dir, steps[1].label));
      i = 3;
      break;
    }
    case AccessPath::kNone:
      break;
  }

  auto adjacency = [](const LogicalStep& s, Direction dir, bool edges)
      -> std::unique_ptr<Operator> {
    if (edges) return std::make_unique<ExpandE>(dir, s.label);
    if (s.bound) return std::make_unique<Expand>(dir, Bound{});
    return std::make_unique<Expand>(dir, s.label);
  };

  for (; i < steps.size(); ++i) {
    if (access.path == AccessPath::kPropertyIndex && i == access.has_step) {
      continue;  // the index scan probes it
    }
    const LogicalStep& s = steps[i];
    if (IsSourceOp(s.op) && !plan.ops_.empty()) {
      return Status::InvalidArgument("source step mid-pipeline");
    }
    switch (s.op) {
      case LogicalOp::kSourceV:
        plan.ops_.push_back(std::make_unique<VertexScan>());
        break;
      case LogicalOp::kSourceVId:
        plan.ops_.push_back(LowerLookup<VertexLookup>(s));
        break;
      case LogicalOp::kSourceE:
        plan.ops_.push_back(std::make_unique<EdgeScan>());
        break;
      case LogicalOp::kSourceEId:
        plan.ops_.push_back(LowerLookup<EdgeLookup>(s));
        break;
      case LogicalOp::kHasLabel:
        plan.ops_.push_back(std::make_unique<LabelFilter>(s.key));
        break;
      case LogicalOp::kHas:
        plan.ops_.push_back(std::make_unique<PropertyFilter>(s.key, s.value));
        break;
      case LogicalOp::kOut:
        plan.ops_.push_back(adjacency(s, Direction::kOut, /*edges=*/false));
        break;
      case LogicalOp::kIn:
        plan.ops_.push_back(adjacency(s, Direction::kIn, /*edges=*/false));
        break;
      case LogicalOp::kBoth:
        plan.ops_.push_back(adjacency(s, Direction::kBoth, /*edges=*/false));
        break;
      case LogicalOp::kOutE:
        plan.ops_.push_back(adjacency(s, Direction::kOut, /*edges=*/true));
        break;
      case LogicalOp::kInE:
        plan.ops_.push_back(adjacency(s, Direction::kIn, /*edges=*/true));
        break;
      case LogicalOp::kBothE:
        plan.ops_.push_back(adjacency(s, Direction::kBoth, /*edges=*/true));
        break;
      case LogicalOp::kLabel:
        plan.ops_.push_back(std::make_unique<LabelMap>());
        break;
      case LogicalOp::kDedup:
        plan.ops_.push_back(std::make_unique<Dedup>());
        break;
      case LogicalOp::kLimit:
        plan.ops_.push_back(std::make_unique<Limit>(s.id));
        break;
      case LogicalOp::kDegreeFilter:
        plan.ops_.push_back(std::make_unique<DegreeFilter>(s.dir, s.id));
        break;
      case LogicalOp::kCount:
        plan.ops_.push_back(std::make_unique<CountSink>());
        plan.counted_ = true;
        break;
    }
    if (est != nullptr) {
      double r = rows;
      switch (s.op) {
        case LogicalOp::kSourceV:
        case LogicalOp::kSourceVId:
        case LogicalOp::kSourceE:
        case LogicalOp::kSourceEId:
          r = est->SourceRows(s);
          break;
        case LogicalOp::kHasLabel:
        case LogicalOp::kHas:
        case LogicalOp::kDegreeFilter:
          r = rows * est->Selectivity(s, ekind);
          break;
        case LogicalOp::kOut:
        case LogicalOp::kIn:
        case LogicalOp::kBoth:
        case LogicalOp::kOutE:
        case LogicalOp::kInE:
        case LogicalOp::kBothE:
          r = rows * est->Fanout(s);
          break;
        case LogicalOp::kDedup:
          if (ekind == RowKind::kVertex) {
            r = std::min(rows, static_cast<double>(est->stats().vertices));
          } else if (ekind == RowKind::kEdge) {
            r = std::min(rows, static_cast<double>(est->stats().edges));
          }
          break;
        case LogicalOp::kLimit:
          r = std::min(rows, static_cast<double>(s.id));
          break;
        case LogicalOp::kCount:
          r = 1.0;
          break;
        default:  // kLabel: a row-preserving map
          break;
      }
      note(r);
      ekind = StepOutputKind(s, ekind);
    }
    if (plan.counted_) break;  // steps after a terminal count are unreachable
  }

  // Fold the static row-kind and row-bound chains: each operator's input
  // kind is the previous operator's output kind, so rows need no per-row
  // tag, and a statically bounded chain (lookup source, Limit) lets the
  // executors reserve their sinks.
  for (const LogicalStep& s : steps) {
    if (s.bound) {
      plan.needs_params_ = true;
      break;
    }
  }
  RowKind kind = RowKind::kVertex;
  std::optional<uint64_t> bound;
  for (auto& op : plan.ops_) {
    op->set_input_kind(kind);
    kind = op->OutputKind(kind);
    bound = op->RowBound(bound);
  }
  plan.output_kind_ = kind;
  plan.row_bound_ = plan.counted_ ? std::optional<uint64_t>(0) : bound;
  return plan;
}

Status Plan::RunInto(const GraphEngine& engine, QuerySession& session,
                     const CancelToken& cancel, const PlanParams* params,
                     TraversalOutput* out, PlanStats* stats) const {
  if (needs_params_ && params == nullptr) {
    return Status::InvalidArgument(
        "plan has bound parameters; Run needs PlanParams");
  }
  out->Clear();
  out->kind = output_kind_;
  if (stats != nullptr) {
    *stats = PlanStats{};
    stats->rows_out.assign(ops_.size(), 0);
  }
  if (ops_.empty()) return Status::OK();
  GDB_CHECK_CANCEL(cancel);

  PlanScratch& scratch = PlanScratch::For(session);
  ++scratch.run_epoch;
  if (scratch.ops.size() < ops_.size()) scratch.ops.resize(ops_.size());
  if (row_bound_.has_value()) {
    out->rows.reserve(std::min<uint64_t>(*row_bound_, kMaxReserveRows));
  }

  Status status =
      policy_ == QueryExecution::kConflated
          ? RunStreaming(engine, session, cancel, params, scratch, out, stats)
          : RunStepWise(engine, session, cancel, params, scratch, out, stats);
  GDB_RETURN_IF_ERROR(status);

  if (counted_) {
    out->counted = true;
    out->count = CountFrom(scratch.ops[ops_.size() - 1], scratch.run_epoch);
  } else {
    out->count = out->rows.size();
    if (output_kind_ == RowKind::kValue) {
      out->values.reserve(out->rows.size());
      for (uint64_t row : out->rows) {
        out->values.push_back(scratch.pool.Get(row));
      }
    }
  }
  return Status::OK();
}

Result<TraversalOutput> Plan::Run(const GraphEngine& engine,
                                  QuerySession& session,
                                  const CancelToken& cancel,
                                  PlanStats* stats) const {
  TraversalOutput out;
  GDB_RETURN_IF_ERROR(RunInto(engine, session, cancel, nullptr, &out, stats));
  return out;
}

namespace {

/// The fused streaming executor's per-run driver: pushes each row
/// through the remaining chain by recursion, with RowSink (a non-owning
/// function_ref) referencing stack frames — composing and running the
/// chain allocates nothing.
struct StreamDriver {
  const std::vector<std::unique_ptr<Operator>>& ops;
  const ExecContext& ctx;
  TraversalOutput* out;
  PlanStats* stats;
  // A Process error can't travel up through the bool-valued sink chain;
  // it is parked here and the chain collapses via `false`.
  Status error = Status::OK();

  /// Feeds `row` (emitted by operator idx-1) into operator idx.
  bool Feed(size_t idx, uint64_t row) {
    if (idx == ops.size()) {
      // Materialized output is governor-accounted: one flat row per
      // element. A budget trip parks the typed status like any Process
      // error and collapses the chain.
      if (!ctx.cancel.Charge(sizeof(uint64_t))) {
        error = ctx.cancel.ToStatus();
        return false;
      }
      out->rows.push_back(row);
      return true;
    }
    auto next = [this, idx](uint64_t r) {
      if (stats != nullptr) ++stats->rows_out[idx];
      return Feed(idx + 1, r);
    };
    Result<bool> more =
        ops[idx]->Process(ctx, ctx.scratch.ops[idx], row, RowSink(next));
    if (!more.ok()) {
      error = std::move(more).status();
      return false;
    }
    return *more;
  }
};

}  // namespace

Status Plan::RunStreaming(const GraphEngine& engine, QuerySession& session,
                          const CancelToken& cancel, const PlanParams* params,
                          PlanScratch& scratch, TraversalOutput* out,
                          PlanStats* stats) const {
  ExecContext ctx{engine, session, cancel, scratch, params};
  StreamDriver driver{ops_, ctx, out, stats, Status::OK()};
  // Coarse position for trip diagnostics: the streamed chain runs inside
  // the source's Produce, so the source names the whole pipeline.
  cancel.set_position(ops_[0]->name().data());
  auto source_sink = [&driver, stats](uint64_t row) {
    if (stats != nullptr) ++stats->rows_out[0];
    return driver.Feed(1, row);
  };
  GDB_RETURN_IF_ERROR(
      ops_[0]->Produce(ctx, scratch.ops[0], RowSink(source_sink)));
  return driver.error;
}

Status Plan::RunStepWise(const GraphEngine& engine, QuerySession& session,
                         const CancelToken& cancel, const PlanParams* params,
                         PlanScratch& scratch, TraversalOutput* out,
                         PlanStats* stats) const {
  ExecContext ctx{engine, session, cancel, scratch, params};
  // The frontier buffers live in the session scratch and are swapped, so
  // repeated runs and multi-hop queries reuse their capacity instead of
  // reallocating per barrier — but every operator still materializes its
  // full output before the next one runs (the TinkerPop execution model
  // the paper measures), now as flat POD columns.
  std::vector<uint64_t>& frontier = scratch.frontier;
  std::vector<uint64_t>& next = scratch.next;
  frontier.clear();
  next.clear();

  RowKind kind = RowKind::kVertex;
  auto note_barrier = [&](const std::vector<uint64_t>& rows) {
    if (stats == nullptr) return;
    ++stats->barriers;
    stats->peak_frontier_rows =
        std::max<uint64_t>(stats->peak_frontier_rows, rows.size());
    stats->peak_frontier_bytes = std::max(
        stats->peak_frontier_bytes, FrontierBytes(rows, kind, scratch.pool));
  };

  // Every materialized barrier row is governor-accounted. A budget trip
  // can't travel through the bool-valued sink, so it parks here and the
  // collection stops via `false` — the same convention StreamDriver uses.
  Status charge_error = Status::OK();
  auto collect = [&frontier, &cancel, &charge_error](uint64_t row) {
    if (!cancel.Charge(sizeof(uint64_t))) {
      charge_error = cancel.ToStatus();
      return false;
    }
    frontier.push_back(row);
    return true;
  };
  cancel.set_position(ops_[0]->name().data());
  GDB_RETURN_IF_ERROR(ops_[0]->Produce(ctx, scratch.ops[0], RowSink(collect)));
  GDB_RETURN_IF_ERROR(charge_error);
  if (stats != nullptr) stats->rows_out[0] = frontier.size();
  kind = ops_[0]->OutputKind(kind);
  note_barrier(frontier);

  for (size_t idx = 1; idx < ops_.size(); ++idx) {
    const Operator* op = ops_[idx].get();
    next.clear();
    auto push = [&next, &cancel, &charge_error](uint64_t row) {
      if (!cancel.Charge(sizeof(uint64_t))) {
        charge_error = cancel.ToStatus();
        return false;
      }
      next.push_back(row);
      return true;
    };
    RowSink push_sink(push);
    cancel.set_position(op->name().data());
    for (uint64_t row : frontier) {
      GDB_CHECK_CANCEL(cancel);
      GDB_ASSIGN_OR_RETURN(
          bool more, op->Process(ctx, scratch.ops[idx], row, push_sink));
      GDB_RETURN_IF_ERROR(charge_error);
      if (!more) break;
    }
    if (stats != nullptr) stats->rows_out[idx] += next.size();
    kind = op->OutputKind(kind);
    note_barrier(next);
    std::swap(frontier, next);
  }

  if (!counted_) {
    // The output copy is a second materialization of the final frontier;
    // it is charged like any other growable structure.
    GDB_CHECK_CHARGE(cancel, frontier.size() * sizeof(uint64_t));
    out->rows.assign(frontier.begin(), frontier.end());
  }
  return Status::OK();
}

std::string Plan::Explain() const {
  std::string out;
  int indent = 0;
  for (size_t i = ops_.size(); i-- > 0;) {
    out.append(2 * static_cast<size_t>(indent), ' ');
    out += ops_[i]->name();
    std::string a = ops_[i]->args();
    if (!a.empty()) {
      out += '(';
      out += a;
      out += ')';
    }
    // Annotated only for cost-based plans: rule-based Explain output is
    // the byte-exact golden format.
    if (i < est_rows_.size()) {
      out += StrFormat(" ~rows=%.0f", est_rows_[i]);
    }
    out += '\n';
    ++indent;
  }
  return out;
}

}  // namespace query
}  // namespace gdbmicro
