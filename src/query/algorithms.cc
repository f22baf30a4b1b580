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
// epoch-stamped like VisitedSet. Side 0 serves the one-sided searches;
// the bidirectional search grows side 0 from its source and side 1 from
// its target.
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
  /// Marks `ord` on `side`; false when it already was.
  bool Insert(int side, uint32_t ord) {
    uint8_t& stamp = stamp_[Slot(side, ord)];
    if (stamp == epoch_) return false;
    stamp = epoch_;
    return true;
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

/// The frontier route of BreadthFirst, ShortestPath and KHopReachable:
/// level-synchronous expansion through the engine's neighbor visitor,
/// charging `charge_bytes` per newly reached vertex. `visited` receives
/// every reached vertex in visit order, `parent` each one's discoverer,
/// and reaching `target` ends the search.
struct FrontierSearch {
  Direction dir = Direction::kBoth;
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
      GDB_RETURN_IF_ERROR(engine.ForEachNeighbor(session, v, search.dir,
                                                 label_ptr, cancel, visit));
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

/// Level-synchronous BFS over the index CSR (both directions — the
/// paper's both() expansion, one CSR range per vertex). Same
/// visited/depth semantics as the frontier route; stops early once the
/// start's connected component is exhausted.
Result<BfsResult> IndexedBreadthFirst(const PathIndex& index,
                                      QuerySession& session, uint32_t start,
                                      int max_depth,
                                      const CancelToken& cancel) {
  BfsResult result;
  result.stats.index_available = true;
  result.stats.used_index = true;
  result.stats.route = "index-bfs";
  cancel.set_position("BreadthFirst(index)");
  TraversalScratch& scratch = session.traversal_scratch();
  ComponentMarks stored(index, start, &scratch);
  stored.Insert(0, start);
  // Everything reachable at any depth is the start's component: once
  // that many vertices are stored the remaining depths cannot add any.
  uint64_t remaining = index.ComponentSize(start) - 1;
  ++result.stats.index_probes;
  std::vector<uint32_t>& frontier = scratch.index_frontier[0];
  std::vector<uint32_t>& next = scratch.index_next;
  frontier.assign(1, start);
  next.clear();
  for (int depth = 0; depth < max_depth && !frontier.empty() && remaining > 0;
       ++depth) {
    next.clear();
    for (uint32_t v : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++result.stats.expanded;
      for (uint32_t w : index.BothNeighbors(v)) {
        if (stored.Insert(0, w)) {
          GDB_CHECK_CHARGE(cancel, kVisitedVertexBytes);
          next.push_back(w);
          result.visited.push_back(index.IdOf(w));
          --remaining;
        }
      }
    }
    if (!next.empty()) result.depth_reached = depth + 1;
    std::swap(frontier, next);
  }
  return result;
}

/// Landmark-pruned bidirectional level-synchronous BFS over the index
/// CSR between two vertices of one component. Returns the minimum-hop
/// distance (<= limit) and fills `out_path` when non-null; kUnreachable
/// when no path of <= limit hops exists.
/// Exactness: a side's level is always expanded in full, and the search
/// only stops once depth_s + depth_t covers the best confirmed meeting —
/// every shorter path would already have produced a meeting vertex. The
/// landmark bound only prunes vertices that cannot lie on any path
/// shorter than the current best and within the limit, so it never
/// changes the answer, only the expansion.
Result<uint32_t> IndexedBidirDistance(const PathIndex& index,
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
  uint32_t best = PathIndex::kUnreachable;
  uint32_t meet = PathIndex::kNoOrd;

  while (!frontiers[0].empty() && !frontiers[1].empty() &&
         best > depth[0] + depth[1] && depth[0] + depth[1] < limit) {
    const int side = frontiers[0].size() <= frontiers[1].size() ? 0 : 1;
    const int other = 1 - side;
    std::vector<uint32_t>& frontier = frontiers[side];
    // The far root's landmark row, read once for the whole level.
    const PathIndex::LandmarkRow far = index.LandmarkRowOf(side == 0 ? t : s);
    const uint32_t new_depth = depth[side] + 1;
    // Paths must beat the best confirmed meeting and fit the limit.
    uint32_t cap = std::min(best == PathIndex::kUnreachable
                                ? limit
                                : best - 1,
                            limit);
    next.clear();
    for (uint32_t v : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++stats->expanded;
      for (uint32_t w : index.BothNeighbors(v)) {
        if (sides.Has(side, w)) continue;
        ++stats->index_probes;
        if (new_depth + index.DistanceLowerBound(w, far) > cap) {
          continue;  // cannot lie on a useful path — prune
        }
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

  if (best > limit) return PathIndex::kUnreachable;
  if (out_path != nullptr) {
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
  }
  return best;
}

/// Bounded BFS over the index CSR following out-edges only (the directed
/// k-hop residue of KHopReachable). Early-exits on the target.
Result<bool> IndexedDirectedWithin(const PathIndex& index,
                                   QuerySession& session, uint32_t s,
                                   uint32_t t, uint64_t max_hops,
                                   const CancelToken& cancel,
                                   PathSearchStats* stats) {
  TraversalScratch& scratch = session.traversal_scratch();
  ComponentMarks stored(index, s, &scratch);
  stored.Insert(0, s);
  std::vector<uint32_t>& frontier = scratch.index_frontier[0];
  std::vector<uint32_t>& next = scratch.index_next;
  frontier.assign(1, s);
  next.clear();
  for (uint64_t depth = 0; depth < max_hops && !frontier.empty(); ++depth) {
    next.clear();
    for (uint32_t v : frontier) {
      GDB_CHECK_CANCEL(cancel);
      ++stats->expanded;
      for (uint32_t w : index.OutNeighbors(v)) {
        if (stored.Insert(0, w)) {
          GDB_CHECK_CHARGE(cancel, kVisitedVertexBytes);
          if (w == t) return true;
          next.push_back(w);
        }
      }
    }
    std::swap(frontier, next);
  }
  return false;
}

}  // namespace

Result<BfsResult> BreadthFirst(const GraphEngine& engine,
                               QuerySession& session, VertexId start,
                               int max_depth,
                               const std::optional<std::string>& label,
                               const CancelToken& cancel, PathMode mode) {
  BfsResult result;
  if (const PathIndex* index =
          UsableIndex(engine, label, mode, &result.stats)) {
    uint32_t ord = index->OrdOf(start);
    if (ord != PathIndex::kNoOrd) {
      return IndexedBreadthFirst(*index, session, ord, max_depth, cancel);
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
  search.max_depth = max_depth < 0 ? 0 : static_cast<uint64_t>(max_depth);
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
      ++result.stats.index_probes;
      if (!index->SameComponent(s, t)) {
        // Certain negative: no undirected path at any depth.
        result.stats.route = "index-component";
        return result;
      }
      ++result.stats.index_probes;
      if (index->DistanceLowerBound(s, t) >
          static_cast<uint32_t>(max_depth)) {
        // Certain negative: every landmark triangle bound exceeds the
        // depth budget.
        result.stats.route = "index-landmark";
        return result;
      }
      result.stats.route = "index-bidir";
      Result<uint32_t> dist = IndexedBidirDistance(
          *index, session.traversal_scratch(), s, t,
          static_cast<uint32_t>(max_depth), cancel, &result.stats,
          &result.path);
      if (!dist.ok()) return dist.status();
      result.found = *dist != PathIndex::kUnreachable;
      if (!result.found) result.path.clear();
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

Result<ReachResult> KHopReachable(const GraphEngine& engine,
                                  QuerySession& session, VertexId src,
                                  VertexId dst, Direction dir, int max_hops,
                                  const std::optional<std::string>& label,
                                  const CancelToken& cancel, PathMode mode) {
  ReachResult result;
  result.stats.index_available = engine.path_index() != nullptr;
  if (src == dst) {
    result.reachable = true;
    result.stats.route = "trivial";
    return result;
  }
  if (max_hops == 0) {
    result.stats.route = "trivial";
    return result;  // 0 hops reaches only src itself
  }
  const uint64_t hop_budget = max_hops < 0
                                  ? std::numeric_limits<uint64_t>::max()
                                  : static_cast<uint64_t>(max_hops);
  if (const PathIndex* index =
          UsableIndex(engine, label, mode, &result.stats)) {
    uint32_t s = index->OrdOf(src), t = index->OrdOf(dst);
    if (s != PathIndex::kNoOrd && t != PathIndex::kNoOrd) {
      cancel.set_position("KHopReachable(index)");
      result.stats.used_index = true;
      if (dir == Direction::kBoth) {
        ++result.stats.index_probes;
        switch (index->WithinHops(s, t, hop_budget)) {
          case PathIndex::Answer::kYes:
            result.stats.route = "index-landmark";
            result.reachable = true;
            return result;
          case PathIndex::Answer::kNo:
            result.stats.route = index->SameComponent(s, t)
                                     ? "index-landmark"
                                     : "index-component";
            return result;
          case PathIndex::Answer::kMaybe:
            break;
        }
        // Residue: bounded distance needed. The bidirectional search
        // answers it without path materialization.
        result.stats.route = "index-bidir";
        uint32_t limit = static_cast<uint32_t>(
            std::min<uint64_t>(hop_budget, PathIndex::kUnreachable - 1));
        Result<uint32_t> dist =
            IndexedBidirDistance(*index, session.traversal_scratch(), s, t,
                                 limit, cancel, &result.stats, nullptr);
        if (!dist.ok()) return dist.status();
        result.reachable = *dist != PathIndex::kUnreachable;
        return result;
      }
      // Directed: phrase kIn as out-reachability from the far end.
      uint32_t a = dir == Direction::kOut ? s : t;
      uint32_t b = dir == Direction::kOut ? t : s;
      ++result.stats.index_probes;
      PathIndex::Answer quick = index->Reachable(a, b);
      if (quick == PathIndex::Answer::kNo) {
        // The near-O(1) negative certificate: some labeling refuted
        // interval containment.
        result.stats.route = "index-interval";
        return result;
      }
      if (max_hops < 0) {
        if (quick == PathIndex::Answer::kYes) {
          result.stats.route = "index-interval";
          result.reachable = true;
          return result;
        }
        result.stats.route = "index-dag-dfs";
        Result<bool> exact = index->ReachableExact(
            a, b, cancel, &result.stats.index_probes);
        if (!exact.ok()) return exact.status();
        result.reachable = *exact;
        return result;
      }
      // Bounded directed: reachability is certain or refuted above, but
      // the hop count still needs a bounded CSR walk.
      result.stats.route = "index-csr-bfs";
      Result<bool> within = IndexedDirectedWithin(*index, session, a, b,
                                                  hop_budget, cancel,
                                                  &result.stats);
      if (!within.ok()) return within.status();
      result.reachable = *within;
      return result;
    }
  }

  // Frontier fallback: direction-aware BFS with early target exit.
  cancel.set_position("KHopReachable");
  FrontierSearch search;
  search.dir = dir;
  search.max_depth = hop_budget;
  search.target = dst;
  Result<bool> found =
      RunFrontier(engine, session, src, label, search, cancel, &result.stats);
  if (!found.ok()) return found.status();
  result.reachable = *found;
  return result;
}

}  // namespace query
}  // namespace gdbmicro
