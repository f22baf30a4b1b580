#include "src/query/traversal.h"

#include "src/query/stats.h"

namespace gdbmicro {
namespace query {

Traversal Traversal::V() {
  Traversal t;
  t.steps_.push_back(LogicalStep{LogicalOp::kSourceV});
  return t;
}

Traversal Traversal::V(VertexId id) {
  Traversal t;
  LogicalStep s{LogicalOp::kSourceVId};
  s.id = id;
  t.steps_.push_back(s);
  return t;
}

Traversal Traversal::E() {
  Traversal t;
  t.steps_.push_back(LogicalStep{LogicalOp::kSourceE});
  return t;
}

Traversal Traversal::E(EdgeId id) {
  Traversal t;
  LogicalStep s{LogicalOp::kSourceEId};
  s.id = id;
  t.steps_.push_back(s);
  return t;
}

Traversal Traversal::V(Bound) {
  Traversal t;
  LogicalStep s{LogicalOp::kSourceVId};
  s.bound = true;
  t.steps_.push_back(s);
  return t;
}

Traversal Traversal::E(Bound) {
  Traversal t;
  LogicalStep s{LogicalOp::kSourceEId};
  s.bound = true;
  t.steps_.push_back(s);
  return t;
}

Traversal& Traversal::HasLabel(std::string label) {
  LogicalStep s{LogicalOp::kHasLabel};
  s.key = std::move(label);
  steps_.push_back(std::move(s));
  return *this;
}

Traversal& Traversal::Has(std::string key, PropertyValue value) {
  LogicalStep s{LogicalOp::kHas};
  s.key = std::move(key);
  s.value = std::move(value);
  steps_.push_back(std::move(s));
  return *this;
}

Traversal& Traversal::Out(std::optional<std::string> label) {
  LogicalStep s{LogicalOp::kOut};
  s.label = std::move(label);
  steps_.push_back(std::move(s));
  return *this;
}

Traversal& Traversal::In(std::optional<std::string> label) {
  LogicalStep s{LogicalOp::kIn};
  s.label = std::move(label);
  steps_.push_back(std::move(s));
  return *this;
}

Traversal& Traversal::Both(std::optional<std::string> label) {
  LogicalStep s{LogicalOp::kBoth};
  s.label = std::move(label);
  steps_.push_back(std::move(s));
  return *this;
}

Traversal& Traversal::OutE(std::optional<std::string> label) {
  LogicalStep s{LogicalOp::kOutE};
  s.label = std::move(label);
  steps_.push_back(std::move(s));
  return *this;
}

Traversal& Traversal::InE(std::optional<std::string> label) {
  LogicalStep s{LogicalOp::kInE};
  s.label = std::move(label);
  steps_.push_back(std::move(s));
  return *this;
}

Traversal& Traversal::BothE(std::optional<std::string> label) {
  LogicalStep s{LogicalOp::kBothE};
  s.label = std::move(label);
  steps_.push_back(std::move(s));
  return *this;
}

namespace {

LogicalStep BoundAdjacency(LogicalOp op) {
  LogicalStep s{op};
  s.bound = true;
  return s;
}

}  // namespace

Traversal& Traversal::Out(Bound) {
  steps_.push_back(BoundAdjacency(LogicalOp::kOut));
  return *this;
}

Traversal& Traversal::In(Bound) {
  steps_.push_back(BoundAdjacency(LogicalOp::kIn));
  return *this;
}

Traversal& Traversal::Both(Bound) {
  steps_.push_back(BoundAdjacency(LogicalOp::kBoth));
  return *this;
}

Traversal& Traversal::Label() {
  steps_.push_back(LogicalStep{LogicalOp::kLabel});
  return *this;
}

Traversal& Traversal::Dedup() {
  steps_.push_back(LogicalStep{LogicalOp::kDedup});
  return *this;
}

Traversal& Traversal::Limit(uint64_t n) {
  LogicalStep s{LogicalOp::kLimit};
  s.id = n;
  steps_.push_back(s);
  return *this;
}

Traversal& Traversal::WhereDegreeAtLeast(Direction dir, uint64_t k) {
  LogicalStep s{LogicalOp::kDegreeFilter};
  s.dir = dir;
  s.id = k;
  steps_.push_back(s);
  return *this;
}

Traversal& Traversal::Count() {
  steps_.push_back(LogicalStep{LogicalOp::kCount});
  return *this;
}

QueryExecution Traversal::PolicyFor(const GraphEngine& engine) {
  return engine.info().query_execution;
}

Result<Plan> Traversal::Lower(QueryExecution policy) const {
  return Plan::Lower(steps_, policy, nullptr);
}

Result<Plan> Traversal::LowerFor(const GraphEngine& engine,
                                 QueryExecution policy) const {
  // Without load-time statistics the lowering is rule-based.
  const GraphStatistics* stats = engine.statistics();
  if (stats == nullptr) return Lower(policy);
  CardinalityEstimator est(*stats, engine.info().supports_property_index);
  return Plan::Lower(steps_, policy, &est);
}

Result<std::string> Traversal::ExplainPlan(QueryExecution policy) const {
  GDB_ASSIGN_OR_RETURN(Plan plan, Lower(policy));
  return plan.Explain();
}

Result<TraversalOutput> Traversal::Execute(const GraphEngine& engine,
                                           QuerySession& session,
                                           const CancelToken& cancel) const {
  GDB_ASSIGN_OR_RETURN(Plan plan, LowerFor(engine, PolicyFor(engine)));
  return plan.Run(engine, session, cancel);
}

Result<PreparedPlan> Traversal::Prepare(const GraphEngine& engine) const {
  GDB_ASSIGN_OR_RETURN(Plan plan, LowerFor(engine, PolicyFor(engine)));
  return PreparedPlan(&engine, std::move(plan));
}

Result<uint64_t> Traversal::ExecuteCount(const GraphEngine& engine,
                                         QuerySession& session,
                                         const CancelToken& cancel) const {
  GDB_ASSIGN_OR_RETURN(TraversalOutput out, Execute(engine, session, cancel));
  return out.counted ? out.count : out.rows.size();
}

Result<std::vector<uint64_t>> Traversal::ExecuteIds(
    const GraphEngine& engine, QuerySession& session,
    const CancelToken& cancel) const {
  GDB_ASSIGN_OR_RETURN(TraversalOutput out, Execute(engine, session, cancel));
  return std::move(out.rows);
}

Result<std::vector<std::string>> Traversal::ExecuteValues(
    const GraphEngine& engine, QuerySession& session,
    const CancelToken& cancel) const {
  GDB_ASSIGN_OR_RETURN(TraversalOutput out, Execute(engine, session, cancel));
  std::vector<std::string> values;
  values.reserve(out.values.size());
  for (std::string_view v : out.values) values.emplace_back(v);
  return values;
}

}  // namespace query
}  // namespace gdbmicro
