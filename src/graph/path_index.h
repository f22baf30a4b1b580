// PathIndex: an optional post-load shortest-path index tier for the
// paper's Fig. 6/7 traversal workloads (Q.32-Q.35: breadth-first search
// and unweighted shortest path over both()).
//
// The paper measures those workloads frontier-at-a-time: every query
// re-walks the engine's adjacency from scratch, O(V+E) per probe. The
// index spends bounded build time once, after load, so that most probes
// walk flat arrays or need no search at all (the workload-conscious-
// indexing move of the RDF-3X lineage):
//
//  * Components — the undirected view (the both() direction every
//    Q.32-Q.35 query traverses) gets exact connected components, which
//    answer cross-component shortest paths without touching a frontier
//    and bound every search to one component.
//  * CSR snapshot — the index keeps its own compressed adjacency, so
//    indexed searches that do need expansion walk flat arrays instead of
//    paying the engine's per-hop storage costs.
//
// Layout is chosen for the searches' memory traffic. Ordinals are assigned
// in BFS order over the undirected view (roots in engine-id order), so a
// BFS touches neighbouring ordinals and every connected component is one
// contiguous ordinal range. The CSR holds one range per vertex with each
// distinct undirected neighbour once, so a both() expansion is a single
// range that reads no neighbour twice.
//
// Consistency contract: the index describes exactly the snapshot it was
// built from. GraphEngine::BuildPathIndex builds it after BulkLoad (off
// until called) and GraphWriter invalidates it when a commit publishes a
// new epoch — and since the epoch gate drains every reader session before
// applying, no live session can ever observe a graph that disagrees with
// a live index. Probes are
// const and thread-safe: any number of sessions may share one index.
//
// Build is governor-cooperative: it checks the CancelToken at bounded
// strides and charges the index structures and the build's working
// arrays against the token's byte budget, so a deadline or memory trip
// aborts the build with a typed status and no index installed (the
// engine stays fully usable on the frontier path).

#ifndef GDBMICRO_GRAPH_PATH_INDEX_H_
#define GDBMICRO_GRAPH_PATH_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/graph/types.h"
#include "src/util/cancel.h"
#include "src/util/result.h"

namespace gdbmicro {

class GraphEngine;

/// Build-time measurements and structure sizes of one PathIndex.
struct PathIndexStats {
  uint64_t vertices = 0;
  uint64_t edges = 0;  // scanned, parallel edges and self-loops included
  uint64_t components = 0;  // undirected connected components
  double build_millis = 0;
  uint64_t bytes = 0;  // resident bytes of the index structures
};

class PathIndex {
 public:
  /// Builds the index over `engine`'s current snapshot through its own
  /// read primitives (a private session is created for the scan).
  /// Governor-cooperative via `cancel` (see the file comment).
  static Result<std::unique_ptr<PathIndex>> Build(const GraphEngine& engine,
                                                  const CancelToken& cancel);

  // --- id mapping ---------------------------------------------------------

  /// Dense ordinal of an engine vertex id, or kNoOrd when the id was not
  /// part of the indexed snapshot (the caller must fall back to the
  /// frontier path).
  static constexpr uint32_t kNoOrd = 0xFFFFFFFFu;
  uint32_t OrdOf(VertexId id) const {
    if (!dense_ids_.empty()) {
      return id < dense_ids_.size() ? dense_ids_[id] : kNoOrd;
    }
    auto it = sparse_ids_.find(id);
    return it == sparse_ids_.end() ? kNoOrd : it->second;
  }
  VertexId IdOf(uint32_t ord) const { return ord_to_id_[ord]; }
  uint32_t NumVertices() const { return static_cast<uint32_t>(ord_to_id_.size()); }

  // --- undirected connected components ------------------------------------

  bool SameComponent(uint32_t s_ord, uint32_t t_ord) const {
    return comp_of_[s_ord] == comp_of_[t_ord];
  }
  /// A connected component is the contiguous ordinal range
  /// [ComponentBegin(ord), ComponentBegin(ord) + ComponentSize(ord)).
  uint32_t ComponentBegin(uint32_t ord) const {
    return comp_begin_[comp_of_[ord]];
  }
  uint64_t ComponentSize(uint32_t ord) const {
    uint32_t c = comp_of_[ord];
    return comp_begin_[c + 1] - comp_begin_[c];
  }

  // --- CSR adjacency snapshot (for index-side searches) --------------------
  //
  // Flat ordinal adjacency, one range per vertex: each distinct undirected
  // neighbour once, where it first occurs among the vertex's out-targets
  // and then its in-sources, each in engine edge-scan order. A parallel
  // edge, a pair linked both ways or a self-loop's second direction only
  // repeats a neighbour, and a both() search stores a vertex once, so
  // dropping the repeat changes no visit order, parent or charge (the
  // engine visitors still report every edge).

  struct NeighborRange {
    const uint32_t* begin_ptr;
    const uint32_t* end_ptr;
    const uint32_t* begin() const { return begin_ptr; }
    const uint32_t* end() const { return end_ptr; }
    size_t size() const { return static_cast<size_t>(end_ptr - begin_ptr); }
  };
  /// The both() expansion: `ord`'s distinct neighbours in one range.
  NeighborRange BothNeighbors(uint32_t ord) const {
    return {adj_.data() + adj_off_[ord],
            adj_.data() + adj_off_[size_t{ord} + 1]};
  }

  const PathIndexStats& stats() const { return stats_; }

 private:
  PathIndex() = default;

  Status BuildAdjacency(const GraphEngine& engine, const CancelToken& cancel);

  PathIndexStats stats_;

  // Id mapping: dense stamp array when the engine exposes a dense id
  // bound, hash map otherwise (the relational engine's packed ids).
  std::vector<uint32_t> dense_ids_;
  std::unordered_map<VertexId, uint32_t> sparse_ids_;
  std::vector<VertexId> ord_to_id_;

  // CSR adjacency: vertex v's distinct neighbours are
  // adj_[adj_off_[v], adj_off_[v + 1]).
  std::vector<uint64_t> adj_off_;
  std::vector<uint32_t> adj_;

  // Undirected components: component c is the ordinal range
  // [comp_begin_[c], comp_begin_[c + 1]).
  std::vector<uint32_t> comp_of_;
  std::vector<uint32_t> comp_begin_;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_GRAPH_PATH_INDEX_H_
