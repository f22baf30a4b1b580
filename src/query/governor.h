// ResourceGovernor: the per-query owner of the deadline and the memory
// budget.
//
// One governor is armed per query execution (the Runner arms one per
// iteration; tests and benches arm their own). It owns a CancelToken
// carrying both limits, so the entire existing cancellation plumbing —
// every GDB_CHECK_CANCEL in the engines, the operator pipeline, the
// step-wise executor, BFS/ShortestPath — observes deadline *and* budget
// trips through the one token it already threads, with no signature
// changes below this layer. The byte ledger is charged by every
// per-session growable structure (materialized output rows, step-wise
// frontier barriers, dedup sets, the interned value pool, BFS/SP visited
// structures, the bitmapish session arena, the document engine's edge
// materialization), so a query that would exhaust RAM instead stops with
// a typed kResourceExhausted carrying charged-vs-limit diagnostics — the
// paper's OOM class (Sparksee on Q28-Q31) as a measured outcome.
//
// Arming is the governor's whole job: charges, trips and diagnostics are
// read and made through token(). The governor is per-query; the session
// it runs against stays reusable after any trip (nothing below holds a
// tripped token past the query).

#ifndef GDBMICRO_QUERY_GOVERNOR_H_
#define GDBMICRO_QUERY_GOVERNOR_H_

#include <chrono>
#include <cstdint>

#include "src/util/cancel.h"

namespace gdbmicro {
namespace query {

struct GovernorOptions {
  /// Wall-clock deadline. 0 = none; negative = already expired (the
  /// remaining-time arithmetic of a spent test deadline).
  std::chrono::nanoseconds deadline{0};
  /// Per-query working-memory budget in bytes. 0 = unlimited.
  uint64_t memory_budget_bytes = 0;
};

class ResourceGovernor {
 public:
  explicit ResourceGovernor(const GovernorOptions& options)
      : token_(CancelToken::WithLimits(options.deadline,
                                       options.memory_budget_bytes)) {}

  /// The token to thread through the query: carries the deadline, the
  /// byte ledger, and the trip state.
  const CancelToken& token() const { return token_; }

 private:
  CancelToken token_;
};

}  // namespace query
}  // namespace gdbmicro

#endif  // GDBMICRO_QUERY_GOVERNOR_H_
