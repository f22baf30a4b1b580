#include "src/query/algorithms.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "src/graph/path_index.h"

namespace gdbmicro {
namespace query {

namespace {

// Flat visited structure for the BFS/SP expansion, backed by the
// session's TraversalScratch. When the engine exposes a dense vertex-id
// bound, membership is one epoch-stamp compare indexed by vertex slot (no
// hashing, and no O(bound) clear between queries: bumping the epoch
// invalidates every stale mark at once); otherwise it falls back to the
// scratch's open-addressing set, which keeps its capacity across queries.
// Engines with packed sparse ids (the relational backend) take the
// fallback. The stamp array grows lazily (geometric, capped at the bound)
// so a small search over a huge graph never pays an O(bound) allocation
// up front.
class VisitedSet {
 public:
  VisitedSet(TraversalScratch* scratch, uint64_t id_bound)
      : s_(scratch), dense_(id_bound > 0), bound_(id_bound) {
    if (dense_) {
      s_->epoch = static_cast<uint8_t>(s_->epoch + 1);
      if (s_->epoch == 0) {
        // Epoch wrap (every 255 queries): stale stamps could collide with
        // the new epoch, so pay the amortized clear and restart at 1
        // (0 = never visited).
        std::fill(s_->visited_epoch.begin(), s_->visited_epoch.end(),
                  uint8_t{0});
        s_->epoch = 1;
      }
    }
    // Dense mode needs the sparse set empty too: ids at or beyond the
    // engine's declared bound (necessarily unknown vertices, e.g. a bad
    // query parameter) overflow there instead of forcing a stamp array
    // proportional to the id value.
    s_->visited_sparse.Reset();
  }

  /// Returns true if v was not yet present (and marks it).
  bool Insert(VertexId v) {
    if (dense_) {
      if (v >= bound_) return s_->visited_sparse.Put(v, true);
      std::vector<uint8_t>& stamps = s_->visited_epoch;
      if (v >= stamps.size()) {
        uint64_t grown = stamps.size() < 1024 ? 1024 : stamps.size() * 2;
        if (grown < v + 1) grown = v + 1;
        if (grown > bound_ && bound_ > v) grown = bound_;
        stamps.resize(grown, uint8_t{0});
      }
      if (stamps[v] == s_->epoch) return false;
      stamps[v] = s_->epoch;
      return true;
    }
    return s_->visited_sparse.Put(v, true);
  }

 private:
  TraversalScratch* s_;
  bool dense_;
  uint64_t bound_;
};

// Per-query marks of the index routes over one connected component,
// backed by the session's TraversalScratch (see index_stamp there) and
// epoch-stamped like VisitedSet. Side 0 serves the BFS; the
// bidirectional search grows side 0 from its source and side 1 from its
// target.
class ComponentMarks {
 public:
  ComponentMarks(const PathIndex& index, uint32_t member,
                 TraversalScratch* scratch)
      : begin_(index.ComponentBegin(member)) {
    const size_t slots = 2 * index.ComponentSize(member);
    scratch->index_epoch = static_cast<uint8_t>(scratch->index_epoch + 1);
    if (scratch->index_epoch == 0) {
      std::fill(scratch->index_stamp.begin(), scratch->index_stamp.end(),
                uint8_t{0});
      scratch->index_epoch = 1;
    }
    if (scratch->index_stamp.size() < slots) {
      scratch->index_stamp.resize(slots, uint8_t{0});
      scratch->index_hops.resize(slots);
    }
    epoch_ = scratch->index_epoch;
    stamp_ = scratch->index_stamp.data();
    hops_ = scratch->index_hops.data();
  }

  bool Has(int side, uint32_t ord) const {
    return stamp_[Slot(side, ord)] == epoch_;
  }
  /// Marks `ord` on `side` without branching on whether it already was:
  /// 1 when the mark is new, else 0.
  uint32_t Stamp(int side, uint32_t ord) {
    uint8_t& stamp = stamp_[Slot(side, ord)];
    const uint32_t fresh = stamp != epoch_;
    stamp = epoch_;
    return fresh;
  }
  /// Marks `ord` on `side` and records how that side reached it.
  void Insert(int side, uint32_t ord, uint32_t depth, uint32_t parent) {
    size_t slot = Slot(side, ord);
    stamp_[slot] = epoch_;
    hops_[slot] = {depth, parent};
  }
  const TraversalScratch::IndexHop& Hop(int side, uint32_t ord) const {
    return hops_[Slot(side, ord)];
  }

 private:
  size_t Slot(int side, uint32_t ord) const {
    return 2 * size_t{ord - begin_} + static_cast<size_t>(side);
  }

  uint32_t begin_;
  uint8_t epoch_;
  uint8_t* stamp_;
  TraversalScratch::IndexHop* hops_;
};

// Governor charge per newly reached vertex. BFS grows three per-session
// structures per vertex (next frontier, visited list, stamp/set slot); SP
// additionally records a parent-map entry (a table slot + two ids). The
// indexed routes charge the same rates although their flat per-session
// marks cost less: identical accounting means a memory budget trips at
// the same workload size on either path.
constexpr uint64_t kVisitedVertexBytes = 2 * sizeof(VertexId) + 1;
constexpr uint64_t kReachedVertexBytes = sizeof(VertexId) + 1 + 48;

/// The live index when this query can use it: kAuto, no label filter
/// (the index stores unlabeled adjacency only), and an index present.
/// Records availability in `stats` either way.
const PathIndex* UsableIndex(const GraphEngine& engine,
                             const std::optional<std::string>& label,
                             PathMode mode, PathSearchStats* stats) {
  const PathIndex* index = engine.path_index();
  stats->index_available = index != nullptr;
  if (mode != PathMode::kAuto || label.has_value()) return nullptr;
  return index;
}

/// The frontier route of BreadthFirst and ShortestPath: level-synchronous
/// both() expansion through the engine's neighbor visitor, charging
/// `charge_bytes` per newly reached vertex. `visited` receives every
/// reached vertex in visit order, `parent` each one's discoverer, and
/// reaching `target` ends the search.
struct FrontierSearch {
  uint64_t max_depth = 0;
  uint64_t charge_bytes = kVisitedVertexBytes;
  std::optional<VertexId> target;
  std::vector<VertexId>* visited = nullptr;
  HashIndex<VertexId, VertexId>* parent = nullptr;
};

/// Runs `search` from `root` (which counts as already reached); returns
/// whether the target was reached. `depth_reached`, when non-null, is set
/// to the last level that reached a new vertex.
Result<bool> RunFrontier(const GraphEngine& engine, QuerySession& session,
                         VertexId root,
                         const std::optional<std::string>& label,
                         const FrontierSearch& search,
                         const CancelToken& cancel, PathSearchStats* stats,
                         int* depth_reached = nullptr) {
  const std::string* label_ptr = label.has_value() ? &*label : nullptr;
  TraversalScratch& scratch = session.traversal_scratch();
  VisitedSet reached(&scratch, engine.VertexIdUpperBound());
  reached.Insert(root);
  std::vector<VertexId>& frontier = scratch.frontier;
  std::vector<VertexId>& next = scratch.next;
  frontier.assign(1, root);
  next.clear();
  // Everything the visitor touches sits behind one reference, so the
  // closure fits std::function's inline buffer and expanding a vertex
  // allocates nothing. A charge trip can't travel through the bool-valued
  // visitor, so it parks in `charge_error` and stops the walk.
  struct Walk {
    const FrontierSearch& search;
    const CancelToken& cancel;
    VisitedSet& reached;
    std::vector<VertexId>& next;
    VertexId from = 0;
    bool found = false;
    Status charge_error = Status::OK();
  } walk{search, cancel, reached, next};
  const std::function<bool(VertexId)> visit = [&walk](VertexId n) {
    if (!walk.reached.Insert(n)) return true;
    if (!walk.cancel.Charge(walk.search.charge_bytes)) {
      walk.charge_error = walk.cancel.ToStatus();
      return false;
    }
    if (walk.search.parent != nullptr) walk.search.parent->Put(n, walk.from);
    if (walk.search.visited != nullptr) walk.search.visited->push_back(n);
    if (n == walk.search.target) {
      walk.found = true;
      return false;  // early-stop the visitor
    }
    walk.next.push_back(n);
    return true;
  };
  for (uint64_t depth = 0; depth < search.max_depth && !frontier.empty();
       ++depth) {
    next.clear();
    for (VertexId v : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++stats->expanded;
      walk.from = v;
      GDB_RETURN_IF_ERROR(engine.ForEachNeighbor(
          session, v, Direction::kBoth, label_ptr, cancel, visit));
      GDB_RETURN_IF_ERROR(walk.charge_error);
      if (walk.found) return true;
    }
    if (depth_reached != nullptr && !next.empty()) {
      *depth_reached = static_cast<int>(depth + 1);
    }
    std::swap(frontier, next);
  }
  return false;
}

/// Q.32's BFS over the index CSR: level-synchronous expansion from
/// `root` through `BothNeighbors` for at most `max_depth` levels, with
/// RunFrontier's visited/depth semantics. The search also stops at the
/// level boundary where the root's whole connected component is stored,
/// since later levels cannot add a vertex. `visited` receives every
/// reached vertex in visit order and `depth_reached` the last level that
/// reached one.
///
/// No data-dependent branch decides whether a slot is stored (the
/// no-branch selection of Ross, PODS 2002): each slot writes its stamp
/// and its queue entry unconditionally and advances the tail by whether
/// the stamp was new, so an already-stored slot is written one past the
/// tail and overwritten by the next. The queue, `index_frontier[0]`, is
/// partitioned by level (level d + 1 follows level d) and sized to the
/// component plus that spare slot. Charges are one per expanded vertex,
/// for the vertices it stored.
Status RunIndexed(const PathIndex& index, TraversalScratch& scratch,
                  uint32_t root, uint64_t max_depth, const CancelToken& cancel,
                  PathSearchStats* stats, std::vector<VertexId>* visited,
                  int* depth_reached) {
  ComponentMarks stored(index, root, &scratch);
  stored.Stamp(0, root);
  const uint64_t component = index.ComponentSize(root);
  std::vector<uint32_t>& queue = scratch.index_frontier[0];
  if (queue.size() < component + 1) queue.resize(component + 1);
  uint32_t* const q = queue.data();
  q[0] = root;
  size_t level = 0, tail = 1;
  for (uint64_t depth = 0;
       depth < max_depth && level < tail && tail < component; ++depth) {
    const size_t level_end = tail;
    for (; level < level_end; ++level) {
      GDB_CHECK_CANCEL(cancel);
      const size_t mark = tail;
      for (uint32_t w : index.BothNeighbors(q[level])) {
        q[tail] = w;
        tail += stored.Stamp(0, w);
      }
      GDB_CHECK_CHARGE(cancel, (tail - mark) * kVisitedVertexBytes);
    }
    if (tail > level_end) *depth_reached = static_cast<int>(depth + 1);
  }
  // The queue's first `level` entries are exactly the expanded vertices.
  stats->expanded += level;
  visited->reserve(visited->size() + tail - 1);
  for (size_t i = 1; i < tail; ++i) visited->push_back(index.IdOf(q[i]));
  return Status::OK();
}

/// Bidirectional level-synchronous BFS over the index CSR between two
/// vertices of one component. Returns whether a path of <= limit hops
/// exists and, when one does, fills `out_path` with a minimum-hop path.
/// Exactness: a side's level is always expanded in full, and the search
/// only stops once depth_s + depth_t covers the best confirmed meeting or
/// reaches the limit — every shorter path would already have produced a
/// meeting vertex.
Result<bool> IndexedBidirPath(const PathIndex& index,
                              TraversalScratch& scratch, uint32_t s,
                              uint32_t t, uint32_t limit,
                              const CancelToken& cancel,
                              PathSearchStats* stats,
                              std::vector<VertexId>* out_path) {
  ComponentMarks sides(index, s, &scratch);
  sides.Insert(0, s, 0, s);
  sides.Insert(1, t, 0, t);
  std::vector<uint32_t>* frontiers = scratch.index_frontier;
  frontiers[0].assign(1, s);
  frontiers[1].assign(1, t);
  std::vector<uint32_t>& next = scratch.index_next;
  uint32_t depth[2] = {0, 0};
  uint32_t best = std::numeric_limits<uint32_t>::max();
  uint32_t meet = PathIndex::kNoOrd;

  while (!frontiers[0].empty() && !frontiers[1].empty() &&
         best > depth[0] + depth[1] && depth[0] + depth[1] < limit) {
    const int side = frontiers[0].size() <= frontiers[1].size() ? 0 : 1;
    const int other = 1 - side;
    std::vector<uint32_t>& frontier = frontiers[side];
    const uint32_t new_depth = depth[side] + 1;
    next.clear();
    for (uint32_t v : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++stats->expanded;
      for (uint32_t w : index.BothNeighbors(v)) {
        if (sides.Has(side, w)) continue;
        GDB_CHECK_CHARGE(cancel, kReachedVertexBytes);
        sides.Insert(side, w, new_depth, v);
        if (sides.Has(other, w)) {
          uint32_t total = new_depth + sides.Hop(other, w).depth;
          if (total < best) {
            best = total;
            meet = w;
          }
        }
        next.push_back(w);
      }
    }
    frontier.swap(next);
    depth[side] = new_depth;
  }

  if (best > limit) return false;
  // meet -> s along side 0's parents (reversed), then meet -> t along
  // side 1's.
  out_path->clear();
  for (uint32_t cur = meet;;) {
    out_path->push_back(index.IdOf(cur));
    uint32_t p = sides.Hop(0, cur).parent;
    if (p == cur) break;
    cur = p;
  }
  std::reverse(out_path->begin(), out_path->end());
  for (uint32_t cur = meet;;) {
    uint32_t p = sides.Hop(1, cur).parent;
    if (p == cur) break;
    cur = p;
    out_path->push_back(index.IdOf(cur));
  }
  return true;
}

}  // namespace

Result<BfsResult> BreadthFirst(const GraphEngine& engine,
                               QuerySession& session, VertexId start,
                               int max_depth,
                               const std::optional<std::string>& label,
                               const CancelToken& cancel, PathMode mode) {
  BfsResult result;
  const uint64_t depth_budget =
      max_depth < 0 ? 0 : static_cast<uint64_t>(max_depth);
  if (const PathIndex* index =
          UsableIndex(engine, label, mode, &result.stats)) {
    uint32_t ord = index->OrdOf(start);
    if (ord != PathIndex::kNoOrd) {
      cancel.set_position("BreadthFirst(index)");
      result.stats.used_index = true;
      result.stats.route = "index-bfs";
      GDB_RETURN_IF_ERROR(RunIndexed(*index, session.traversal_scratch(),
                                     ord, depth_budget, cancel, &result.stats,
                                     &result.visited, &result.depth_reached));
      return result;
    }
    // Unknown start id: the engine is the authority (missing-vertex
    // semantics differ per engine) — frontier route below.
  }
  // The Gremlin store(vs) side effect: vs is seeded with the start vertex
  // so except(vs) never re-expands it, but `visited` reports only the
  // vertices *reached* — the start is deliberately absent (see the
  // BfsResult contract in algorithms.h). Each newly reached vertex grows
  // three per-session structures (next frontier, visited list, stamp/set
  // slot); the governor is charged that footprint.
  cancel.set_position("BreadthFirst");
  FrontierSearch search;
  search.max_depth = depth_budget;
  search.visited = &result.visited;
  Result<bool> walked = RunFrontier(engine, session, start, label, search,
                                    cancel, &result.stats,
                                    &result.depth_reached);
  if (!walked.ok()) return walked.status();
  return result;
}

Result<PathResult> ShortestPath(const GraphEngine& engine,
                                QuerySession& session, VertexId src,
                                VertexId dst,
                                const std::optional<std::string>& label,
                                int max_depth, const CancelToken& cancel,
                                PathMode mode) {
  PathResult result;
  if (src == dst) {
    result.found = true;
    result.path = {src};
    result.stats.route = "trivial";
    result.stats.index_available = engine.path_index() != nullptr;
    return result;
  }
  if (const PathIndex* index =
          UsableIndex(engine, label, mode, &result.stats)) {
    uint32_t s = index->OrdOf(src), t = index->OrdOf(dst);
    if (s != PathIndex::kNoOrd && t != PathIndex::kNoOrd && max_depth >= 0) {
      cancel.set_position("ShortestPath(index)");
      result.stats.used_index = true;
      if (!index->SameComponent(s, t)) {
        // Certain negative: no undirected path at any depth.
        result.stats.route = "index-component";
        return result;
      }
      result.stats.route = "index-bidir";
      Result<bool> found = IndexedBidirPath(
          *index, session.traversal_scratch(), s, t,
          static_cast<uint32_t>(max_depth), cancel, &result.stats,
          &result.path);
      if (!found.ok()) return found.status();
      result.found = *found;
      return result;
    }
  }
  // Membership is the hot check (one stamp compare when dense); parents
  // are recorded only for genuinely reached vertices, so the map stays
  // O(visited) no matter how large the id space is. Per reached vertex:
  // frontier slot, visited stamp, and a parent-map entry, all
  // governor-accounted.
  HashIndex<VertexId, VertexId>& parent = session.traversal_scratch().parent;
  parent.Reset();
  cancel.set_position("ShortestPath");
  FrontierSearch search;
  search.max_depth = max_depth < 0 ? 0 : static_cast<uint64_t>(max_depth);
  search.charge_bytes = kReachedVertexBytes;
  search.target = dst;
  search.parent = &parent;
  Result<bool> found =
      RunFrontier(engine, session, src, label, search, cancel, &result.stats);
  if (!found.ok()) return found.status();
  if (*found) {
    for (VertexId cur = dst; cur != src; cur = *parent.Get(cur)) {
      result.path.push_back(cur);
    }
    result.path.push_back(src);
    std::reverse(result.path.begin(), result.path.end());
    result.found = true;
  }
  return result;  // unreachable within max_depth unless found
}

}  // namespace query
}  // namespace gdbmicro
