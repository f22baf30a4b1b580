#include "src/graph/path_index.h"

#include <algorithm>
#include <utility>

#include "src/graph/engine.h"
#include "src/util/timer.h"

namespace gdbmicro {

namespace {

// Cancel-poll stride in the tight per-vertex loops: the token itself
// strides clock syscalls, but the atomic poll counter is still a shared
// cache line, so the index loops batch even the probes.
constexpr uint32_t kCancelStride = 1024;

uint64_t VecBytes(const std::vector<uint32_t>& v) {
  return v.capacity() * sizeof(uint32_t);
}
uint64_t VecBytes(const std::vector<uint64_t>& v) {
  return v.capacity() * sizeof(uint64_t);
}

/// Counting-sort CSR over `n` vertices in the PathIndex layout: vertex
/// v's out-targets fill adj[off[2v], off[2v+1]) and its in-sources
/// adj[off[2v+1], off[2v+2]), each in `edges` order. Parallel edges and
/// self-loops are kept as stored (one slot per edge occurrence).
Status BuildCsr(uint32_t n,
                const std::vector<std::pair<uint32_t, uint32_t>>& edges,
                const CancelToken& cancel, std::vector<uint64_t>* off,
                std::vector<uint32_t>* adj) {
  GDB_CHECK_CHARGE(cancel, (2 * uint64_t{n} + 1) * sizeof(uint64_t) +
                               2 * edges.size() * sizeof(uint32_t));
  // Count into the slot after each range start, then prefix-sum: off[2v+1]
  // accumulates v's out-degree, off[2v+2] its in-degree.
  off->assign(2 * size_t{n} + 1, 0);
  for (const auto& [s, t] : edges) {
    ++(*off)[2 * size_t{s} + 1];
    ++(*off)[2 * size_t{t} + 2];
  }
  for (size_t i = 1; i < off->size(); ++i) (*off)[i] += (*off)[i - 1];
  adj->resize(2 * edges.size());
  std::vector<uint64_t> cur(off->begin(), off->end() - 1);
  uint32_t polls = 0;
  for (const auto& [s, t] : edges) {
    if (++polls % kCancelStride == 0) GDB_CHECK_CANCEL(cancel);
    (*adj)[cur[2 * size_t{s}]++] = t;
    (*adj)[cur[2 * size_t{t} + 1]++] = s;
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<PathIndex>> PathIndex::Build(
    const GraphEngine& engine, const CancelToken& cancel) {
  Timer timer;
  std::unique_ptr<PathIndex> index(new PathIndex());
  if (Status s = index->BuildAdjacency(engine, cancel); !s.ok()) return s;

  PathIndexStats& st = index->stats_;
  st.vertices = index->ord_to_id_.size();
  st.edges = index->adj_.size() / 2;
  st.components = index->comp_begin_.size() - 1;
  st.bytes = VecBytes(index->dense_ids_) +
             index->sparse_ids_.size() * (sizeof(VertexId) + sizeof(uint32_t)) +
             index->ord_to_id_.capacity() * sizeof(VertexId) +
             VecBytes(index->adj_off_) + VecBytes(index->adj_) +
             VecBytes(index->comp_of_) + VecBytes(index->comp_begin_);
  st.build_millis = timer.ElapsedMillis();
  return index;
}

Status PathIndex::BuildAdjacency(const GraphEngine& engine,
                                 const CancelToken& cancel) {
  cancel.set_position("PathIndex::BuildAdjacency");
  std::unique_ptr<QuerySession> session = engine.CreateSession();

  std::vector<VertexId> ids;
  Status st = engine.ScanVertices(*session, cancel, [&](VertexId v) {
    ids.push_back(v);
    return true;
  });
  if (!st.ok()) return st;
  // Engine scan order is unspecified; sort so the relabelling is
  // reproducible per engine.
  std::sort(ids.begin(), ids.end());
  if (ids.size() >= static_cast<size_t>(kNoOrd)) {
    return Status::ResourceExhausted("path index: > 2^32-1 vertices");
  }
  GDB_CHECK_CHARGE(cancel, ids.size() * sizeof(VertexId));
  const uint32_t n = static_cast<uint32_t>(ids.size());

  // Until the relabelling below, a vertex is its position in engine-id
  // order.
  uint64_t dense_bound = engine.VertexIdUpperBound();
  if (dense_bound > 0) {
    GDB_CHECK_CHARGE(cancel, dense_bound * sizeof(uint32_t));
    dense_ids_.assign(dense_bound, kNoOrd);
    for (uint32_t p = 0; p < n; ++p) dense_ids_[ids[p]] = p;
  } else {
    GDB_CHECK_CHARGE(cancel, n * (sizeof(VertexId) + sizeof(uint32_t)));
    sparse_ids_.reserve(n);
    for (uint32_t p = 0; p < n; ++p) sparse_ids_.emplace(ids[p], p);
  }

  std::vector<std::pair<uint32_t, uint32_t>> edges;
  st = engine.ScanEdges(*session, cancel, [&](const EdgeEnds& e) {
    uint32_t s = OrdOf(e.src), t = OrdOf(e.dst);
    if (s != kNoOrd && t != kNoOrd) edges.emplace_back(s, t);
    return true;
  });
  if (!st.ok()) return st;
  GDB_CHECK_CHARGE(cancel, edges.size() * sizeof(edges[0]));

  // Relabel in BFS order over the undirected view, roots in engine-id
  // order: each connected component becomes one contiguous ordinal range,
  // discovered in the order a search from its first vertex walks it.
  // `queue` doubles as the new ordinal -> id-order position map.
  GDB_CHECK_CHARGE(cancel, 3 * uint64_t{n} * sizeof(uint32_t));
  std::vector<uint32_t> ord_by_id(n, kNoOrd);
  std::vector<uint32_t> queue(n);
  comp_of_.resize(n);
  comp_begin_.clear();
  {
    std::vector<uint64_t> off;
    std::vector<uint32_t> adj;
    GDB_RETURN_IF_ERROR(BuildCsr(n, edges, cancel, &off, &adj));
    uint32_t next = 0;
    uint32_t polls = 0;
    for (uint32_t root = 0; root < n; ++root) {
      if (ord_by_id[root] != kNoOrd) continue;
      const uint32_t comp = static_cast<uint32_t>(comp_begin_.size());
      comp_begin_.push_back(next);
      ord_by_id[root] = next;
      queue[next++] = root;
      for (uint32_t head = comp_begin_.back(); head < next; ++head) {
        if (++polls % kCancelStride == 0) GDB_CHECK_CANCEL(cancel);
        comp_of_[head] = comp;
        const uint32_t v = queue[head];
        for (uint64_t s = off[2 * size_t{v}]; s < off[2 * size_t{v} + 2]; ++s) {
          uint32_t w = adj[s];
          if (ord_by_id[w] == kNoOrd) {
            ord_by_id[w] = next;
            queue[next++] = w;
          }
        }
      }
    }
  }
  comp_begin_.push_back(n);
  comp_begin_.shrink_to_fit();

  ord_to_id_.resize(n);
  for (uint32_t o = 0; o < n; ++o) {
    VertexId id = ids[queue[o]];
    ord_to_id_[o] = id;
    if (dense_bound > 0) {
      dense_ids_[id] = o;
    } else {
      sparse_ids_[id] = o;
    }
  }
  for (auto& [s, t] : edges) {
    s = ord_by_id[s];
    t = ord_by_id[t];
  }
  return BuildCsr(n, edges, cancel, &adj_off_, &adj_);
}

}  // namespace gdbmicro
