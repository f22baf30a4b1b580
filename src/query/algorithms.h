// Graph traversal algorithms executed through the engine primitives:
// breadth-first exploration (paper Q.32/Q.33) and unweighted shortest path
// (paper Q.34/Q.35). Both follow the Gremlin loop semantics of Table 2:
// expand with both(), exclude already-stored vertices, loop to a depth (or
// until the target is reached).

#ifndef GDBMICRO_QUERY_ALGORITHMS_H_
#define GDBMICRO_QUERY_ALGORITHMS_H_

#include <optional>
#include <string>
#include <vector>

#include "src/graph/engine.h"

namespace gdbmicro {
namespace query {

/// Execution-path selector for the traversal algorithms. kAuto consults
/// the engine's optional PathIndex (src/graph/path_index.h) when one is
/// live and the query shape qualifies (no label filter, endpoints in the
/// indexed snapshot); kFrontierOnly pins the paper-faithful
/// frontier-at-a-time execution — the reference the index is verified
/// against (tests/path_index_test.cc, `bench_micro pathindex`).
enum class PathMode { kAuto, kFrontierOnly };

/// Which execution path answered a traversal query, for Explain-style
/// reporting and the indexed-vs-frontier benches. `route` is a static
/// string naming the decisive tier:
///   "frontier"           engine-visitor expansion (index absent/unusable)
///   "index-bfs"          level-synchronous BFS over the index CSR
///   "index-component"    certain negative from connected components
///   "index-bidir"        bidirectional search on the CSR
///   "trivial"            shortest path with src == dst, no search
struct PathSearchStats {
  /// A live PathIndex existed on the engine when the query ran.
  bool index_available = false;
  /// The answer came from the index tier (any index-* route).
  bool used_index = false;
  const char* route = "frontier";
  /// Vertices expanded by whichever search ultimately ran (0 when a
  /// certain probe answered without expansion).
  uint64_t expanded = 0;
};

struct BfsResult {
  /// Vertices *reached* from the start, in visit order — the start vertex
  /// itself is deliberately absent. This mirrors the Gremlin query shape
  /// the paper measures (Q.32/Q.33): the `vs` collection is seeded with
  /// the start vertex before the loop, so `except(vs)` never re-expands
  /// it (it cannot be "reached"), while `store(vs)` records only vertices
  /// the expansion discovers. The asymmetry (start is in the internal
  /// stored set but not in `visited`) is therefore the intended
  /// semantics, not an off-by-one: |stored| == |visited| + 1 always.
  std::vector<VertexId> visited;
  /// Depth actually reached (may be < max_depth if the frontier died out).
  int depth_reached = 0;
  /// Which execution path ran (see PathSearchStats).
  PathSearchStats stats;
};

/// Breadth-first exploration from `start` up to `max_depth` hops following
/// both edge directions, optionally restricted to edges labeled `label`
/// (Q.32 / Q.33: v.as('i').both(l?).except(vs).store(vs).loop('i')).
/// A cycle back to the start never re-reports it: the start is in `vs`
/// from the beginning.
/// `session` is the calling client's read session; the frontier/visited
/// buffers live in its TraversalScratch, so concurrent clients never
/// share them and repeated searches in one session reuse their capacity.
/// With a live PathIndex and no label filter, kAuto runs the expansion
/// level-synchronously over the index's CSR snapshot (same visited set
/// and depth semantics, engine-order-free visit order) and stops early
/// once the start's connected component is exhausted.
Result<BfsResult> BreadthFirst(const GraphEngine& engine,
                               QuerySession& session, VertexId start,
                               int max_depth,
                               const std::optional<std::string>& label,
                               const CancelToken& cancel,
                               PathMode mode = PathMode::kAuto);

struct PathResult {
  /// Vertex sequence from src to dst inclusive; empty if unreachable.
  std::vector<VertexId> path;
  bool found = false;
  /// Which execution path ran (see PathSearchStats).
  PathSearchStats stats;
};

/// Unweighted shortest path between two vertices following both edge
/// directions, optionally restricted to one edge label (Q.34 / Q.35).
/// `max_depth` bounds the search (Gremlin loops are depth-bounded in the
/// suite to keep the semantics of the paper's queries).
/// With a live PathIndex and no label filter, kAuto answers endpoints in
/// different components as a certain negative without a frontier, and
/// otherwise runs a bidirectional search over the index CSR, bounded by
/// `max_depth` like the frontier. Semantics match the frontier path
/// exactly: found iff a path of
/// <= max_depth hops exists, the returned path is a valid minimum-hop
/// path (tie-broken arbitrarily, like engine visit order), and
/// `src == dst` returns {src} without an existence check.
Result<PathResult> ShortestPath(const GraphEngine& engine,
                                QuerySession& session, VertexId src,
                                VertexId dst,
                                const std::optional<std::string>& label,
                                int max_depth, const CancelToken& cancel,
                                PathMode mode = PathMode::kAuto);

}  // namespace query
}  // namespace gdbmicro

#endif  // GDBMICRO_QUERY_ALGORITHMS_H_
