// GraphEngine: the storage-engine interface every backend implements.
//
// The interface is the set of primitive operations the paper's Table 2
// queries decompose into: CRUD on vertices/edges/properties, scans, label
// and property search, id lookup, and the adjacency primitives the
// traversal machine is built on. Engines differ only in *how* these are
// implemented — which is precisely what the microbenchmark measures.
//
// Concurrency contract — epoch-pinned snapshots + a single writer
// through the WAL:
//
//  * Read surface. Every read method is const, takes an explicit
//    QuerySession, and touches no engine-level mutable state — all
//    per-query scratch (working-memory arenas, batched-read windows, row
//    caches, JSON parse buffers) lives in the session, so any number of
//    threads may read the same engine concurrently, each through its own
//    session. Sessions are NOT thread-safe themselves (one session = one
//    client thread), must only be used with the engine that created
//    them, and must not outlive it.
//  * Versioning. CreateSession() pins the engine's current snapshot
//    epoch (see src/graph/epoch.h) and the session observes exactly that
//    snapshot for its entire lifetime; destroying the session unpins it.
//    A committing writer drains pinned readers before mutating, applies
//    in place with exclusive access, then atomically publishes the next
//    epoch — sessions created afterwards see the updated graph.
//  * Write surface. Concurrent-safe writes go through GraphWriter
//    (src/graph/writer.h): batches are WAL-logged (framed, checksummed,
//    one durable write per commit) before being applied under the epoch
//    gate, so a crash mid-commit always recovers to a consistent batch
//    boundary.
//    The raw virtual write methods (AddVertex/AddEdge/Set*/Remove*)
//    remain the engine primitive layer that GraphWriter and the bulk
//    loaders drive; calling them directly is legal only when no read
//    session exists (single-threaded setup, tests, bulk load).

#ifndef GDBMICRO_GRAPH_ENGINE_H_
#define GDBMICRO_GRAPH_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/cost_model.h"
#include "src/graph/epoch.h"
#include "src/graph/fault.h"
#include "src/graph/graph_data.h"
#include "src/graph/path_index.h"
#include "src/graph/statistics.h"
#include "src/graph/types.h"
#include "src/storage/hash_index.h"
#include "src/util/cancel.h"
#include "src/util/result.h"

namespace gdbmicro {

/// How an engine's Gremlin adapter executes traversals (the paper's
/// Table 1 "Query execution" column). kStepWise adapters interpret the
/// pipeline step by step with materialized intermediates; kConflated
/// adapters rewrite step patterns into native queries (Sqlg's SQL
/// generation, Titan's step conflation). The query planner selects its
/// execution policy from this value — it is a machine-readable contract,
/// not a display string.
enum class QueryExecution : uint8_t { kStepWise, kConflated };

std::string_view QueryExecutionToString(QueryExecution q);

/// Static description of an engine: the row it contributes to the paper's
/// Table 1.
struct EngineInfo {
  std::string name;            // registry key, e.g. "neo19"
  std::string emulates;        // the paper system it models, e.g. "Neo4j 1.9"
  std::string type;            // "Native" or "Hybrid (Document)" etc.
  std::string storage;         // storage layout summary
  std::string edge_traversal;  // mechanism used to hop an edge
  QueryExecution query_execution = QueryExecution::kStepWise;
  std::string query_execution_display;  // human-readable Table 1 cell
  bool supports_property_index = true;
};

/// How BulkLoad ingests a dataset (the paper's central loading
/// observation: native loaders and element-by-element insertion differ by
/// orders of magnitude, Fig. 3(a)).
enum class BulkLoadMode : uint8_t {
  /// The engine's dedicated ingest path: presized storage, strings
  /// interned once per distinct value, secondary structures (relationship
  /// chains, statement indexes, FK indexes) built after the raw element
  /// pass. This is the default — it models loading each system with the
  /// native loader the paper had to use.
  kNative,
  /// Paper-faithful per-element insertion through AddVertex/AddEdge, with
  /// every per-operation cost (index rebalancing per statement, REST
  /// round trips, wrapper charges under the cost model) paid per element.
  kPerElement,
};

/// Tunables shared by all engines.
struct EngineOptions {
  /// 0 = unlimited. Engines that track allocation (bitmapish) fail queries
  /// with kResourceExhausted when their working set exceeds this.
  uint64_t memory_budget_bytes = 0;

  /// Enables the deterministic out-of-process cost model (see
  /// cost_model.h). The benchmark profile turns this on; unit tests leave
  /// it off.
  bool enable_cost_model = false;

  /// Which ingest path BulkLoad runs (see BulkLoadMode).
  BulkLoadMode bulk_load_mode = BulkLoadMode::kNative;

  /// Collect GraphStatistics during BulkLoad (see statistics.h). On by
  /// default — the cost-based planner consults them through
  /// GraphEngine::statistics(). Off reverts the planner to its exact
  /// rule-based lowering (the A/B knob of bench --stats=off).
  bool collect_statistics = true;

  /// Optional transient-fault injector (see src/graph/fault.h). Engines
  /// that emulate a remote dependency (the document engine's REST-like
  /// fetches, the relational engine's per-probe table walks) call
  /// Intercept at those boundaries; a fired fault surfaces as
  /// kUnavailable. Not owned; must outlive the engine. nullptr disables
  /// injection entirely.
  const QueryFaultInjector* query_fault_injector = nullptr;
};

/// Measurements of the most recent BulkLoad on an engine instance (the
/// Q.1 / Fig. 3(a) data point, machine-readable).
struct BulkLoadStats {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  bool native = false;  // which BulkLoadMode ran

  /// Wall millis of the raw element pass (allocation, string interning,
  /// record encoding).
  double element_millis = 0;
  /// Wall millis of deferred secondary-structure construction (chain
  /// stitching, statement-index bulk build, FK index build). Always 0 in
  /// kPerElement mode, where that work is interleaved per element.
  double index_build_millis = 0;
  /// Wall millis spent collecting GraphStatistics (0 when
  /// EngineOptions::collect_statistics is off). Kept out of
  /// index_build_millis: it is planner bookkeeping, not a load phase of
  /// the emulated system.
  double stats_build_millis = 0;
  /// Engine-reported resident bytes after the load.
  uint64_t bytes = 0;

  uint64_t Elements() const { return vertices + edges; }
  double TotalMillis() const {
    return element_millis + index_build_millis + stats_build_millis;
  }
  double ElementsPerSec() const {
    double s = TotalMillis() / 1000.0;
    return s > 0 ? static_cast<double>(Elements()) / s : 0.0;
  }
};

class GraphEngine;

/// Reusable frontier/visited buffers for the traversal machines (BFS,
/// shortest path). Owned by a QuerySession so concurrent clients never
/// share them; reused across queries within a session so steady-state
/// traversals allocate nothing. The dense visited structures are
/// epoch-stamped: bumping the epoch invalidates every mark in O(1), so a
/// session almost never pays an O(id-bound) clear between queries (one
/// byte per vertex slot keeps the session footprint small; the wrap
/// every 255 queries costs one amortized clear).
struct TraversalScratch {
  std::vector<VertexId> frontier;
  std::vector<VertexId> next;
  /// Dense visited marks, indexed by vertex id when the engine exposes a
  /// dense id bound: visited_epoch[v] == epoch means "visited this query".
  std::vector<uint8_t> visited_epoch;
  uint8_t epoch = 0;
  /// Fallback visited set for engines with sparse id spaces, and shortest
  /// path's child -> parent map. Open-addressing tables reset per query
  /// with their capacity kept, so a warm search inserts without
  /// allocating.
  HashIndex<VertexId, bool> visited_sparse;
  HashIndex<VertexId, VertexId> parent;

  /// Per-query marks of the path index's searches, keyed by a vertex's
  /// PathIndex ordinal minus the first ordinal of the searched component
  /// (a search never leaves its start's component, and a component is
  /// one contiguous ordinal range), so the arrays grow to the largest
  /// component searched. Slot 2 * i + side serves side 0 (the BFS, and
  /// the bidirectional search from its source) or side 1
  /// (from its target). index_stamp[slot] == index_epoch means the side
  /// reached the vertex this query; index_hops[slot] records how.
  struct IndexHop {
    uint32_t depth;   // hops from the side's root
    uint32_t parent;  // ordinal of the first discoverer; the root's own
  };
  std::vector<uint8_t> index_stamp;
  std::vector<IndexHop> index_hops;
  uint8_t index_epoch = 0;
  /// The bidirectional search's two frontiers; the BFS uses
  /// index_frontier[0] as its level-partitioned queue.
  std::vector<uint32_t> index_frontier[2];
  std::vector<uint32_t> index_next;
};

/// Opaque base for per-session state owned by layers above the graph
/// engine. The query planner keeps its per-session run scratch (dedup
/// sets, limit counters, frontier buffers, the interned value pool — see
/// query::PlanScratch in src/query/plan.h) in the session through this
/// slot, so the engine layer needs no dependency on the query layer while
/// prepared plans stay immutable and shareable across sessions.
class SessionState {
 public:
  virtual ~SessionState() = default;
};

/// Per-query mutable state for reads against a loaded engine.
///
/// One session models one client connection: create one per thread with
/// GraphEngine::CreateSession() and pass it to every read call. Engines
/// subclass it to hold the state their emulated architecture keeps per
/// connection — the Sparksee-like engine's working-memory arena, the
/// Titan-1.0 row cache and batched-read window, the document engine's
/// JSON parse scratch. A session is single-threaded, bound to the engine
/// that created it, and must not outlive the engine.
class QuerySession {
 public:
  /// Pins the engine's current snapshot epoch; blocks briefly while a
  /// writer is publishing (see the concurrency contract above).
  explicit QuerySession(const GraphEngine* engine);
  /// Unpins the epoch pinned at construction.
  virtual ~QuerySession();
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  /// Resets per-query state (the working-memory arena the benchmark
  /// runner clears between measured queries). Caches that model a
  /// connection-lifetime structure (the row cache) survive BeginQuery.
  virtual void BeginQuery() {}

  /// The engine this session was created by.
  const GraphEngine* engine() const { return engine_; }

  /// The snapshot epoch this session observes (pinned for its lifetime).
  uint64_t epoch() const { return epoch_; }

  TraversalScratch& traversal_scratch() { return scratch_; }

  /// The query layer's per-session scratch slot (lazily installed by
  /// query::PlanScratch::For). Like the traversal scratch, it survives
  /// BeginQuery by design: it models connection-lifetime state (reused
  /// buffers, the interned value dictionary), not per-query results.
  SessionState* query_state() const { return query_state_.get(); }
  void set_query_state(std::unique_ptr<SessionState> state) {
    query_state_ = std::move(state);
  }

 private:
  const GraphEngine* engine_;
  uint64_t epoch_ = 0;
  TraversalScratch scratch_;
  std::unique_ptr<SessionState> query_state_;
};

class GraphEngine {
 public:
  virtual ~GraphEngine() = default;

  /// Registry key ("neo19", "sqlg", ...).
  virtual std::string_view name() const = 0;

  /// Table 1 row.
  virtual EngineInfo info() const = 0;

  /// Prepares an empty instance. Must be called before any other method.
  virtual Status Open(const EngineOptions& options) {
    options_ = options;
    return Status::OK();
  }

  /// Creates a read session bound to this engine (one per client thread;
  /// see the concurrency contract at the top of this file). Engines with
  /// per-connection state override this to return their own session type.
  virtual std::unique_ptr<QuerySession> CreateSession() const {
    return std::make_unique<QuerySession>(this);
  }

  // --- Create (paper Q.2-Q.7) ------------------------------------------

  virtual Result<VertexId> AddVertex(std::string_view label,
                                     const PropertyMap& props) = 0;
  virtual Result<EdgeId> AddEdge(VertexId src, VertexId dst,
                                 std::string_view label,
                                 const PropertyMap& props) = 0;
  virtual Status SetVertexProperty(VertexId v, std::string_view name,
                                   const PropertyValue& value) = 0;
  virtual Status SetEdgeProperty(EdgeId e, std::string_view name,
                                 const PropertyValue& value) = 0;

  /// Bulk-loads a dataset into an empty instance (paper Q.1). Non-virtual
  /// pipeline: validates `data` once (so the per-engine loaders may assume
  /// in-range endpoint indexes), dispatches on
  /// EngineOptions::bulk_load_mode, and fills load_stats().
  ///
  /// Deferred-index guarantee: in kNative mode an engine may postpone any
  /// secondary structure (relationship chains, statement indexes, FK
  /// indexes, adjacency bags) until after the raw element pass, but by the
  /// time BulkLoad returns the instance must be *indistinguishable* from
  /// one populated element by element — same counts, labels, properties,
  /// adjacency multisets, and property-index answers (enforced per engine
  /// by tests/load_conformance_test.cc). kPerElement is the paper-faithful
  /// comparison mode: plain AddVertex/AddEdge per element, including each
  /// engine's per-operation cost-model charges.
  Result<LoadMapping> BulkLoad(const GraphData& data);

  /// Stats of the most recent BulkLoad on this instance.
  const BulkLoadStats& load_stats() const { return load_stats_; }

  /// Statistics collected by the most recent BulkLoad, or nullptr when
  /// collection was off (EngineOptions::collect_statistics) or the
  /// instance was populated element by element outside BulkLoad. The
  /// planner treats nullptr as "no statistics": exact rule-based
  /// lowering.
  const GraphStatistics* statistics() const { return statistics_.get(); }

  // --- Path index (optional post-load tier; see path_index.h) -----------

  /// The PathIndex built over the current snapshot, or nullptr when none
  /// is live (never built, build failed, or invalidated by a write).
  /// Probes on the returned index are const and thread-safe; the pointer
  /// itself is stable for the lifetime of any pinned session (commits
  /// invalidate only inside the epoch gate's drained window).
  const PathIndex* path_index() const { return path_index_.get(); }

  /// Builds (or rebuilds) the PathIndex over the engine's current
  /// snapshot. Governor-cooperative via `cancel`: a deadline or memory
  /// trip aborts with that typed status, installs nothing, and leaves the
  /// engine fully usable on the frontier path. Like the raw write
  /// methods, this is a load-phase operation: call it single-threaded,
  /// after BulkLoad, not concurrently with sessions. Off until called:
  /// the paper's workloads run frontier-at-a-time, and the index is the
  /// explicitly-opt-in workload-conscious tier (label-free BFS and
  /// shortest path consult it when present; see src/query/algorithms.h).
  /// PathIndexStats::build_millis times the build.
  Status BuildPathIndex(const CancelToken& cancel);

  /// Drops the live index (no-op when none). GraphWriter::Commit calls
  /// this while publishing a new epoch — inside the drained apply window,
  /// so no pinned session can observe the swap.
  void InvalidatePathIndex();

  /// The snapshot-epoch manager sessions pin and GraphWriter publishes
  /// through (see the concurrency contract above). Mutable because
  /// pinning is a synchronization action, not a logical mutation of the
  /// engine.
  EpochManager& epochs() const { return epochs_; }

  // --- Read (paper Q.8-Q.15) -------------------------------------------
  //
  // Every read takes the calling client's QuerySession (first parameter)
  // and is const: the loaded graph is an immutable snapshot, all per-query
  // mutable state lives in the session.

  virtual Result<VertexRecord> GetVertex(QuerySession& session,
                                         VertexId id) const = 0;
  virtual Result<EdgeRecord> GetEdge(QuerySession& session,
                                     EdgeId id) const = 0;

  // --- Property probes (the has(k, v) primitive) ------------------------
  //
  // Reads one property of one element, for every path that tests or
  // fetches a single key: the default property searches, neo's unindexed
  // searches, the plan's PropertyFilter. Contract:
  //
  //  * One key: returns true and stores the value of `key` in *out when
  //    the element carries it — the value FindProperty would find in the
  //    element's GetVertex/GetEdge record — and false when it does not
  //    (*out is then unspecified). Keys the layout reserves for itself
  //    (the document engine's '_' members) are never properties here
  //    either.
  //  * A value the caller owns: *out is decoded in place, and a string
  //    value reuses the buffer *out already holds (see
  //    PropertyValue::AssignString), so a scan that reuses one value
  //    allocates only when a string outgrows every earlier one.
  //  * The charges of the Get* call it replaces: every cost-model charge,
  //    governor charge and fault-injector intercept GetVertex/GetEdge
  //    makes for the element, and the same status for a missing element
  //    (kNotFound). Only in-process work differs: an override reads the
  //    one key where its layout allows (a property chain walked to the
  //    key, one attribute column, a record or document read in place)
  //    instead of building the whole record. The bytes an override reads
  //    are checked as GetVertex/GetEdge checks them; bytes it does not
  //    read are not (orient stops at the key's pair, so a record
  //    truncated after it passes the probe and fails GetVertex/GetEdge).
  //
  // The defaults are GetVertex/GetEdge + FindProperty.

  virtual Result<bool> ReadVertexProperty(QuerySession& session, VertexId id,
                                          std::string_view key,
                                          PropertyValue* out) const;
  virtual Result<bool> ReadEdgeProperty(QuerySession& session, EdgeId id,
                                        std::string_view key,
                                        PropertyValue* out) const;

  /// Q.8 / Q.9. Defaults scan; engines with cheap cardinality override.
  virtual Result<uint64_t> CountVertices(QuerySession& session,
                                         const CancelToken& cancel) const;
  virtual Result<uint64_t> CountEdges(QuerySession& session,
                                      const CancelToken& cancel) const;

  /// Q.10: distinct edge labels.
  virtual Result<std::vector<std::string>> DistinctEdgeLabels(
      QuerySession& session, const CancelToken& cancel) const;

  /// Q.11 / Q.12: property equality search. The defaults scan, probing
  /// each element with ReadVertexProperty/ReadEdgeProperty; overrides
  /// use a property index when one exists.
  virtual Result<std::vector<VertexId>> FindVerticesByProperty(
      QuerySession& session, std::string_view prop, const PropertyValue& value,
      const CancelToken& cancel) const;
  virtual Result<std::vector<EdgeId>> FindEdgesByProperty(
      QuerySession& session, std::string_view prop, const PropertyValue& value,
      const CancelToken& cancel) const;

  /// Q.13: edges by label. Defaults scan.
  virtual Result<std::vector<EdgeId>> FindEdgesByLabel(
      QuerySession& session, std::string_view label,
      const CancelToken& cancel) const;

  // --- Delete (paper Q.18-Q.21) ----------------------------------------

  /// Deletes a vertex and all its incident edges (paper Q.18 semantics).
  virtual Status RemoveVertex(VertexId v) = 0;
  virtual Status RemoveEdge(EdgeId e) = 0;
  virtual Status RemoveVertexProperty(VertexId v, std::string_view name) = 0;
  virtual Status RemoveEdgeProperty(EdgeId e, std::string_view name) = 0;

  // --- Scan / traversal primitives (paper Q.22-Q.35 substrate) ----------

  /// Visits every live vertex id. `fn` returns false to stop early.
  virtual Status ScanVertices(
      QuerySession& session, const CancelToken& cancel,
      const std::function<bool(VertexId)>& fn) const = 0;

  /// Visits every live edge (endpoints + label, no property
  /// materialization unless the engine's architecture forces it).
  virtual Status ScanEdges(
      QuerySession& session, const CancelToken& cancel,
      const std::function<bool(const EdgeEnds&)>& fn) const = 0;

  // --- Adjacency visitors (the hot-path primitives) ---------------------
  //
  // The per-hop neighborhood primitive dominates the paper's traversal,
  // BFS, and shortest-path results (Figs. 5-7), so it is exposed as a
  // *streaming* visitor: the engine walks its own storage layout and
  // yields each element into `fn` without materializing an intermediate
  // collection. Contract:
  //
  //  * No allocation: a warm visitor call allocates nothing on the heap,
  //    on every engine — neither per visited edge/neighbor nor per call.
  //    The records a layout must open are read in place (the vertex
  //    record holding a ridbag) or decoded into session scratch (the
  //    edge document holding a label or far endpoint), and the callbacks
  //    an engine hands its own storage walks capture a single reference,
  //    so they fit std::function's inline buffer. Per-element decoding the
  //    layout forces (the document engine reads and validates each edge
  //    document whole) is paid in time inside the visit.
  //    HopAllocationTest (tests/prepared_plan_test.cc) pins this on all
  //    nine engines.
  //  * Early stop: `fn` returning false stops the walk immediately and
  //    the visitor returns OK. No further elements are visited.
  //  * Cancellation: the walk checks `cancel` between elements and
  //    returns kDeadlineExceeded without invoking `fn` again once the
  //    token has expired.
  //  * Ordering: unspecified and engine-dependent (each engine emits in
  //    its native storage order). Only the multiset of visited elements
  //    is part of the contract; it must equal what EdgesOf/NeighborsOf
  //    return.
  //  * Self-loops: visited exactly once under kBoth, once under kOut,
  //    once under kIn — the same semantics the vector wrappers had.
  //  * Unknown `label`: visits nothing and returns OK. Engines with a
  //    label dictionary resolve this before the liveness check, so a
  //    missing vertex + unknown label yields OK; the document engine,
  //    whose labels live only inside edge documents, has no dictionary
  //    to consult and reports NotFound for the missing vertex instead.

  /// Streams the ids of edges incident to `v` in direction `dir`,
  /// optionally restricted to `label` (nullptr = any), into `fn`.
  virtual Status ForEachEdgeOf(
      QuerySession& session, VertexId v, Direction dir,
      const std::string* label, const CancelToken& cancel,
      const std::function<bool(EdgeId)>& fn) const = 0;

  /// Streams the far endpoint of each incident edge (the neighbor) into
  /// `fn`. A vertex reachable over k parallel edges is visited k times;
  /// a self-loop yields `v` itself once.
  virtual Status ForEachNeighbor(
      QuerySession& session, VertexId v, Direction dir,
      const std::string* label, const CancelToken& cancel,
      const std::function<bool(VertexId)>& fn) const = 0;

  /// Materializing wrappers over the visitors, for callers that want the
  /// whole neighborhood as a vector. Non-virtual by design: the visitors
  /// are the single per-engine walk implementation.
  Result<std::vector<EdgeId>> EdgesOf(QuerySession& session, VertexId v,
                                      Direction dir, const std::string* label,
                                      const CancelToken& cancel) const;
  Result<std::vector<VertexId>> NeighborsOf(QuerySession& session, VertexId v,
                                            Direction dir,
                                            const std::string* label,
                                            const CancelToken& cancel) const;

  /// Endpoints + label of an edge.
  virtual Result<EdgeEnds> GetEdgeEnds(QuerySession& session,
                                       EdgeId e) const = 0;

  /// Exclusive upper bound on vertex ids when the engine allocates them
  /// densely (slot/sequence ids), or 0 when the id space is sparse (the
  /// relational engine packs table ids into the high bits). Lets
  /// consumers key visited/parent structures by a flat array instead of
  /// a hash set.
  virtual uint64_t VertexIdUpperBound() const { return 0; }

  /// The `it.inE.count()` primitive of the degree-filter queries
  /// (Q.28-Q.31 inner step). Default: streamed count. The Sparksee-like
  /// engine overrides it to model its Gremlin adapter's defect: the
  /// materialized intermediate edge lists accumulate in the session arena,
  /// which is what made the paper's Q.28-Q.31 exhaust RAM on the Freebase
  /// samples while ordinary traversals (BFS/SP) were unaffected.
  virtual Result<uint64_t> CountEdgesOf(QuerySession& session, VertexId v,
                                        Direction dir,
                                        const CancelToken& cancel) const;

  // --- Indexing (paper §6.4 "Effect of Indexing") ------------------------

  /// Creates a user attribute index on a vertex property. neo19, orient,
  /// sqlg and titan answer FindVerticesByProperty from it; neo30,
  /// sparksee and arango accept it without effect on their searches, as
  /// the paper found (EngineInfo::supports_property_index is false for
  /// them). Default: kUnimplemented, which blaze keeps (BlazeGraph offers
  /// no such control, paper §6.4).
  virtual Status CreateVertexPropertyIndex(std::string_view prop);

  // --- Space (paper Fig. 1) ----------------------------------------------

  /// Bytes of the store's checkpoint image: each engine builds the image
  /// its system writes to disk (pages, headers, extents and indexes
  /// included) and counts it. Nothing is written; this is the engine's
  /// space-occupancy measurement.
  virtual uint64_t CheckpointBytes() const = 0;

  /// Approximate resident bytes of the store's data structures.
  virtual uint64_t MemoryBytes() const = 0;

 protected:
  const EngineOptions& options() const { return options_; }

  /// The engine's dedicated ingest path (kNative). `data` is validated.
  /// Engines without one fall back to the per-element loop. Overrides
  /// record their deferred-structure time in
  /// mutable_load_stats()->index_build_millis.
  virtual Result<LoadMapping> BulkLoadNative(const GraphData& data) {
    return BulkLoadPerElement(data);
  }

  /// Element-by-element reference loader (kPerElement, and the fallback
  /// for engines without a native path).
  Result<LoadMapping> BulkLoadPerElement(const GraphData& data);

  BulkLoadStats* mutable_load_stats() { return &load_stats_; }

  EngineOptions options_;

 private:
  BulkLoadStats load_stats_;
  std::unique_ptr<GraphStatistics> statistics_;
  std::unique_ptr<PathIndex> path_index_;
  mutable EpochManager epochs_;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_GRAPH_ENGINE_H_
