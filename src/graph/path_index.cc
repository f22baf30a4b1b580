#include "src/graph/path_index.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <random>
#include <utility>

#include "src/graph/engine.h"
#include "src/util/string_util.h"
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
    const GraphEngine& engine, const PathIndexOptions& options,
    const CancelToken& cancel) {
  if (options.labelings < 1 || options.labelings > 16) {
    return Status::InvalidArgument("PathIndexOptions::labelings must be 1..16");
  }
  if (options.landmarks < 0 || options.landmarks > kMaxLandmarks) {
    return Status::InvalidArgument("PathIndexOptions::landmarks must be 0..16");
  }
  Timer timer;
  std::unique_ptr<PathIndex> index(new PathIndex());
  index->options_ = options;
  std::vector<uint32_t> ord_by_id;
  if (Status s = index->BuildAdjacency(engine, cancel, &ord_by_id); !s.ok()) {
    return s;
  }
  if (Status s = index->BuildSccs(ord_by_id, cancel); !s.ok()) return s;
  if (Status s = index->BuildIntervals(cancel); !s.ok()) return s;
  if (Status s = index->BuildLandmarks(cancel); !s.ok()) return s;

  PathIndexStats& st = index->stats_;
  st.vertices = index->ord_to_id_.size();
  st.edges = index->adj_.size() / 2;
  st.sccs = index->num_sccs_;
  st.components = index->comp_begin_.size() - 1;
  st.landmarks = static_cast<int>(index->landmark_ords_.size());
  st.labelings = options.labelings;
  st.bytes = VecBytes(index->dense_ids_) +
             index->sparse_ids_.size() * (sizeof(VertexId) + sizeof(uint32_t)) +
             index->ord_to_id_.capacity() * sizeof(VertexId) +
             VecBytes(index->adj_off_) + VecBytes(index->adj_) +
             VecBytes(index->scc_of_) + VecBytes(index->dag_off_) +
             VecBytes(index->dag_tgt_) +
             index->intervals_.capacity() * sizeof(Interval) +
             VecBytes(index->comp_of_) + VecBytes(index->comp_begin_) +
             VecBytes(index->landmark_ords_) +
             index->landmark_rows_.capacity() * sizeof(LandmarkRow);
  st.build_millis = timer.ElapsedMillis();
  return index;
}

Status PathIndex::BuildAdjacency(const GraphEngine& engine,
                                 const CancelToken& cancel,
                                 std::vector<uint32_t>* ord_by_id) {
  cancel.set_position("PathIndex::BuildAdjacency");
  std::unique_ptr<QuerySession> session = engine.CreateSession();

  std::vector<VertexId> ids;
  Status st = engine.ScanVertices(*session, cancel, [&](VertexId v) {
    ids.push_back(v);
    return true;
  });
  if (!st.ok()) return st;
  // Engine scan order is unspecified; sort so the relabelling (and so the
  // seeded labelings) is reproducible per engine.
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
  ord_by_id->assign(n, kNoOrd);
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
      if ((*ord_by_id)[root] != kNoOrd) continue;
      const uint32_t comp = static_cast<uint32_t>(comp_begin_.size());
      comp_begin_.push_back(next);
      (*ord_by_id)[root] = next;
      queue[next++] = root;
      for (uint32_t head = comp_begin_.back(); head < next; ++head) {
        if (++polls % kCancelStride == 0) GDB_CHECK_CANCEL(cancel);
        comp_of_[head] = comp;
        const uint32_t v = queue[head];
        for (uint64_t s = off[2 * size_t{v}]; s < off[2 * size_t{v} + 2]; ++s) {
          uint32_t w = adj[s];
          if ((*ord_by_id)[w] == kNoOrd) {
            (*ord_by_id)[w] = next;
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
    s = (*ord_by_id)[s];
    t = (*ord_by_id)[t];
  }
  return BuildCsr(n, edges, cancel, &adj_off_, &adj_);
}

Status PathIndex::BuildSccs(const std::vector<uint32_t>& ord_by_id,
                           const CancelToken& cancel) {
  cancel.set_position("PathIndex::BuildSccs");
  const uint32_t n = NumVertices();
  GDB_CHECK_CHARGE(cancel, n * (sizeof(uint32_t) * 2 + sizeof(uint64_t) + 1));
  scc_of_.assign(n, kNoOrd);
  num_sccs_ = 0;

  // Kosaraju, both passes iterative (the frontier graphs have paths far
  // deeper than any sane stack). Pass 1: DFS on the out-edges recording
  // finish order, roots in engine-id order so the condensation's
  // numbering (and so the seeded labelings) does not depend on the
  // ordinal relabelling. The frame keeps the next unexplored edge slot so
  // each edge is walked once.
  std::vector<uint32_t> finish_order;
  finish_order.reserve(n);
  {
    std::vector<uint8_t> state(n, 0);  // 0 new, 1 on stack, 2 finished
    std::vector<std::pair<uint32_t, const uint32_t*>> stack;  // {vertex, next}
    uint32_t polls = 0;
    for (uint32_t root : ord_by_id) {
      if (state[root] != 0) continue;
      stack.emplace_back(root, OutNeighbors(root).begin());
      state[root] = 1;
      while (!stack.empty()) {
        if (++polls % kCancelStride == 0) GDB_CHECK_CANCEL(cancel);
        auto& [v, slot] = stack.back();
        if (slot != OutNeighbors(v).end()) {
          uint32_t w = *slot++;
          if (state[w] == 0) {
            state[w] = 1;
            stack.emplace_back(w, OutNeighbors(w).begin());
          }
        } else {
          state[v] = 2;
          finish_order.push_back(v);
          stack.pop_back();
        }
      }
    }
  }

  // Pass 2: DFS on the transpose in decreasing finish time; each tree is
  // one SCC. This discovery order is a reverse topological order of the
  // condensation, which the interval pass below does not rely on.
  {
    std::vector<uint32_t> stack;
    uint32_t polls = 0;
    for (auto it = finish_order.rbegin(); it != finish_order.rend(); ++it) {
      if (scc_of_[*it] != kNoOrd) continue;
      uint32_t scc = num_sccs_++;
      stack.push_back(*it);
      scc_of_[*it] = scc;
      while (!stack.empty()) {
        if (++polls % kCancelStride == 0) GDB_CHECK_CANCEL(cancel);
        uint32_t v = stack.back();
        stack.pop_back();
        for (uint32_t w : InNeighbors(v)) {
          if (scc_of_[w] == kNoOrd) {
            scc_of_[w] = scc;
            stack.push_back(w);
          }
        }
      }
    }
  }

  // Condensation DAG: cross-SCC edges, deduplicated.
  std::vector<std::pair<uint32_t, uint32_t>> cross;
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t w : OutNeighbors(v)) {
      uint32_t a = scc_of_[v], b = scc_of_[w];
      if (a != b) cross.emplace_back(a, b);
    }
  }
  std::sort(cross.begin(), cross.end());
  cross.erase(std::unique(cross.begin(), cross.end()), cross.end());
  GDB_CHECK_CHARGE(cancel, (num_sccs_ + 1) * sizeof(uint64_t) +
                               cross.size() * sizeof(uint32_t));
  dag_off_.assign(num_sccs_ + 1, 0);
  for (const auto& [a, b] : cross) ++dag_off_[a + 1];
  for (uint32_t i = 0; i < num_sccs_; ++i) dag_off_[i + 1] += dag_off_[i];
  dag_tgt_.resize(cross.size());
  std::vector<uint64_t> cur(dag_off_.begin(), dag_off_.end() - 1);
  for (const auto& [a, b] : cross) dag_tgt_[cur[a]++] = b;
  return Status::OK();
}

Status PathIndex::BuildIntervals(const CancelToken& cancel) {
  cancel.set_position("PathIndex::BuildIntervals");
  const uint32_t m = num_sccs_;
  const int k = options_.labelings;
  GDB_CHECK_CHARGE(cancel, static_cast<uint64_t>(k) * m * sizeof(Interval));
  intervals_.assign(static_cast<size_t>(k) * m, Interval{});

  std::vector<uint32_t> roots(m);
  for (uint32_t i = 0; i < m; ++i) roots[i] = i;
  std::vector<uint8_t> done(m);
  // {node, slots consumed, random slot offset}: the offset rotates each
  // node's neighbor order so every labeling explores a different DFS
  // forest — that diversity is what makes non-containment in *some*
  // labeling likely for unreachable pairs.
  std::vector<std::tuple<uint32_t, uint64_t, uint64_t>> stack;

  for (int lab = 0; lab < k; ++lab) {
    Interval* iv = intervals_.data() + static_cast<size_t>(lab) * m;
    std::mt19937_64 rng(options_.seed + 0x9e3779b97f4a7c15ull * (lab + 1));
    std::shuffle(roots.begin(), roots.end(), rng);
    std::fill(done.begin(), done.end(), 0);
    uint32_t counter = 0;
    uint32_t polls = 0;
    for (uint32_t root : roots) {
      if (done[root]) continue;
      stack.clear();
      stack.emplace_back(root, 0, rng());
      done[root] = 1;
      while (!stack.empty()) {
        if (++polls % kCancelStride == 0) GDB_CHECK_CANCEL(cancel);
        auto& [u, used, offset] = stack.back();
        uint64_t deg = dag_off_[u + 1] - dag_off_[u];
        if (used < deg) {
          uint64_t slot = dag_off_[u] + (used + offset) % deg;
          ++used;
          uint32_t w = dag_tgt_[slot];
          if (!done[w]) {
            done[w] = 1;
            stack.emplace_back(w, 0, rng());
          }
        } else {
          // Post time: every out-neighbor is finished in a DAG DFS, so
          // their begins are final. GRAIL label: begin = min over
          // out-neighbors (tree or not), rank = post-order index.
          uint32_t rank = ++counter;
          uint32_t begin = rank;
          for (uint64_t s = dag_off_[u]; s < dag_off_[u + 1]; ++s) {
            begin = std::min(begin, iv[dag_tgt_[s]].begin);
          }
          iv[u] = Interval{begin, rank};
          stack.pop_back();
        }
      }
    }
  }
  return Status::OK();
}

Status PathIndex::BuildLandmarks(const CancelToken& cancel) {
  cancel.set_position("PathIndex::BuildLandmarks");
  const uint32_t n = NumVertices();
  GDB_CHECK_CHARGE(cancel, uint64_t{n} * sizeof(LandmarkRow));
  LandmarkRow unreached;
  std::fill(std::begin(unreached.dist), std::end(unreached.dist),
            kUnreachable);
  landmark_rows_.assign(n, unreached);
  const uint32_t want =
      std::min(static_cast<uint32_t>(options_.landmarks), n);
  if (want == 0) return Status::OK();

  // Highest total degree first: hubs cover the most pairs, and the
  // frontier datasets are heavy-tailed enough that 16 hubs see nearly
  // every path. Ties go to the lower engine id, so the relabelling cannot
  // change the set.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::partial_sort(order.begin(), order.begin() + want, order.end(),
                    [&](uint32_t a, uint32_t b) {
                      size_t da = BothNeighbors(a).size();
                      size_t db = BothNeighbors(b).size();
                      return da != db ? da > db : IdOf(a) < IdOf(b);
                    });
  landmark_ords_.assign(order.begin(), order.begin() + want);

  std::vector<uint32_t> frontier, next;
  uint32_t polls = 0;
  for (uint32_t li = 0; li < want; ++li) {
    frontier.assign(1, landmark_ords_[li]);
    landmark_rows_[landmark_ords_[li]].dist[li] = 0;
    uint32_t depth = 0;
    while (!frontier.empty()) {
      ++depth;
      next.clear();
      for (uint32_t v : frontier) {
        if (++polls % kCancelStride == 0) GDB_CHECK_CANCEL(cancel);
        for (uint32_t w : BothNeighbors(v)) {
          uint32_t& dist = landmark_rows_[w].dist[li];
          if (dist == kUnreachable) {
            dist = depth;
            next.push_back(w);
          }
        }
      }
      frontier.swap(next);
    }
  }
  return Status::OK();
}

PathIndex::Answer PathIndex::Reachable(uint32_t s_ord, uint32_t t_ord) const {
  uint32_t a = scc_of_[s_ord], b = scc_of_[t_ord];
  if (a == b) return Answer::kYes;
  const uint32_t m = num_sccs_;
  for (int lab = 0; lab < options_.labelings; ++lab) {
    const Interval* iv = intervals_.data() + static_cast<size_t>(lab) * m;
    // Reachability a ~> b implies b's interval nests inside a's in every
    // labeling; one failed nesting is a certain no.
    if (iv[b].begin < iv[a].begin || iv[b].rank > iv[a].rank) {
      return Answer::kNo;
    }
  }
  return Answer::kMaybe;
}

Result<bool> PathIndex::ReachableExact(uint32_t s_ord, uint32_t t_ord,
                                       const CancelToken& cancel,
                                       uint64_t* probes) const {
  Answer quick = Reachable(s_ord, t_ord);
  if (probes != nullptr) ++*probes;
  if (quick == Answer::kYes) return true;
  if (quick == Answer::kNo) return false;

  // Interval-pruned DFS over the condensation DAG: any node whose
  // intervals refute reachability-to-target cuts its whole subtree.
  const uint32_t target = scc_of_[t_ord];
  GDB_CHECK_CHARGE(cancel, num_sccs_);
  std::vector<uint8_t> seen(num_sccs_, 0);
  std::vector<uint32_t> stack;
  stack.push_back(scc_of_[s_ord]);
  seen[scc_of_[s_ord]] = 1;
  uint32_t polls = 0;
  bool found = false;
  while (!stack.empty() && !found) {
    if (++polls % kCancelStride == 0) GDB_CHECK_CANCEL(cancel);
    uint32_t u = stack.back();
    stack.pop_back();
    for (uint64_t s = dag_off_[u]; s < dag_off_[u + 1]; ++s) {
      uint32_t w = dag_tgt_[s];
      if (seen[w]) continue;
      seen[w] = 1;
      if (probes != nullptr) ++*probes;
      if (w == target) {
        found = true;
        break;
      }
      bool prune = false;
      const uint32_t m = num_sccs_;
      for (int lab = 0; lab < options_.labelings && !prune; ++lab) {
        const Interval* iv = intervals_.data() + static_cast<size_t>(lab) * m;
        prune = iv[target].begin < iv[w].begin || iv[target].rank > iv[w].rank;
      }
      if (!prune) stack.push_back(w);
    }
  }
  cancel.Release(num_sccs_);
  return found;
}

uint32_t PathIndex::DistanceUpperBound(uint32_t s_ord, uint32_t t_ord) const {
  const LandmarkRow& s = LandmarkRowOf(s_ord);
  const LandmarkRow& t = LandmarkRowOf(t_ord);
  uint32_t best = kUnreachable;
  for (int l = 0; l < kMaxLandmarks; ++l) {
    uint32_t ds = s.dist[l], dt = t.dist[l];
    if (ds == kUnreachable || dt == kUnreachable) continue;
    best = std::min(best, ds + dt);
  }
  return best;
}

PathIndex::Answer PathIndex::WithinHops(uint32_t s_ord, uint32_t t_ord,
                                        uint64_t k) const {
  if (s_ord == t_ord) return Answer::kYes;
  if (!SameComponent(s_ord, t_ord)) return Answer::kNo;
  if (DistanceLowerBound(s_ord, t_ord) > k) return Answer::kNo;
  if (DistanceUpperBound(s_ord, t_ord) <= k) return Answer::kYes;
  return Answer::kMaybe;
}

std::string PathIndex::Describe() const {
  return StrFormat(
      "PathIndex{%llu vertices, %llu edges, %llu sccs, %llu components, "
      "%d landmarks, %d labelings, %.1f ms build, %.1f MiB}",
      (unsigned long long)stats_.vertices, (unsigned long long)stats_.edges,
      (unsigned long long)stats_.sccs, (unsigned long long)stats_.components,
      stats_.landmarks, stats_.labelings, stats_.build_millis,
      static_cast<double>(stats_.bytes) / (1024.0 * 1024.0));
}

}  // namespace gdbmicro
