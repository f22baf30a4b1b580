#include "src/datasets/metrics.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace datasets {

namespace {

/// Union-find over dense vertex indexes.
class UnionFind {
 public:
  explicit UnionFind(uint64_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  uint64_t Find(uint64_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(uint64_t a, uint64_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

  uint64_t SizeOf(uint64_t root) { return size_[Find(root)]; }

 private:
  std::vector<uint64_t> parent_;
  std::vector<uint64_t> size_;
};

}  // namespace

GraphStats ComputeStats(const GraphData& data, const MetricsOptions& options) {
  GraphStats stats;
  stats.name = data.name;
  stats.vertices = data.vertices.size();
  stats.edges = data.edges.size();
  if (stats.vertices == 0) return stats;

  // Distinct edge labels.
  std::unordered_set<std::string> labels;
  for (const auto& e : data.edges) labels.insert(e.label);
  stats.labels = labels.size();

  // Components (weak) + degrees.
  UnionFind uf(stats.vertices);
  std::vector<uint32_t> degree(stats.vertices, 0);
  for (const auto& e : data.edges) {
    uf.Union(e.src, e.dst);
    ++degree[e.src];
    ++degree[e.dst];
  }
  std::unordered_map<uint64_t, uint64_t> comp_sizes;
  for (uint64_t v = 0; v < stats.vertices; ++v) {
    ++comp_sizes[uf.Find(v)];
  }
  stats.components = comp_sizes.size();
  uint64_t max_root = 0;
  for (const auto& [root, size] : comp_sizes) {
    if (size > stats.max_component) {
      stats.max_component = size;
      max_root = root;
    }
  }

  // Density (directed, as in Table 3).
  if (stats.vertices > 1) {
    stats.density = static_cast<double>(stats.edges) /
                    (static_cast<double>(stats.vertices) *
                     static_cast<double>(stats.vertices - 1));
  }

  // Degree stats (both directions).
  uint64_t total_degree = 0;
  for (uint32_t d : degree) {
    total_degree += d;
    stats.max_degree = std::max<uint64_t>(stats.max_degree, d);
  }
  stats.avg_degree =
      static_cast<double>(total_degree) / static_cast<double>(stats.vertices);

  // Undirected adjacency, used by both the modularity and diameter passes.
  std::vector<std::vector<uint32_t>> adj(stats.vertices);
  if (stats.edges > 0) {
    for (const auto& e : data.edges) {
      adj[e.src].push_back(static_cast<uint32_t>(e.dst));
      adj[e.dst].push_back(static_cast<uint32_t>(e.src));
    }
  }

  // Modularity of the partition found by deterministic label propagation
  // (the paper computes network modularity over detected communities):
  //   Q = sum_c [ e_c/m - (d_c / 2m)^2 ].
  // Fragmented, block-structured graphs (the Freebase samples) score near
  // 1; dense single-community graphs (ldbc) collapse to ~0.
  if (stats.edges > 0) {
    std::vector<uint32_t> community(stats.vertices);
    std::iota(community.begin(), community.end(), 0);
    std::unordered_map<uint32_t, uint32_t> votes;
    for (int round = 0; round < 5; ++round) {
      for (uint64_t v = 0; v < stats.vertices; ++v) {
        if (adj[v].empty()) continue;
        votes.clear();
        for (uint32_t n : adj[v]) ++votes[community[n]];
        uint32_t best_label = community[v];
        uint32_t best_count = 0;
        for (const auto& [label, count] : votes) {
          if (count > best_count ||
              (count == best_count && label < best_label)) {
            best_count = count;
            best_label = label;
          }
        }
        community[v] = best_label;
      }
    }
    std::unordered_map<uint32_t, uint64_t> intra_edges, comm_degree;
    for (const auto& e : data.edges) {
      if (community[e.src] == community[e.dst]) ++intra_edges[community[e.src]];
    }
    for (uint64_t v = 0; v < stats.vertices; ++v) {
      comm_degree[community[v]] += degree[v];
    }
    double m = static_cast<double>(stats.edges);
    double q = 0.0;
    for (const auto& [label, d_c] : comm_degree) {
      double share = static_cast<double>(d_c) / (2.0 * m);
      auto it = intra_edges.find(label);
      double e_c = it == intra_edges.end() ? 0.0
                                           : static_cast<double>(it->second);
      q += e_c / m - share * share;
    }
    stats.modularity = q;
  }

  // Diameter: sampled double-BFS lower bound within the largest component.
  if (options.diameter_samples > 0 && stats.edges > 0) {
    std::vector<uint64_t> members;
    for (uint64_t v = 0; v < stats.vertices; ++v) {
      if (uf.Find(v) == max_root) members.push_back(v);
    }
    // Defensive: the edges>0 guard above implies a non-trivial largest
    // component, but Rng::Uniform(0) is UB-adjacent (asserts) — never
    // sample from an empty member set.
    if (members.empty()) return stats;
    Rng rng(0xD1A3ULL + stats.vertices);
    std::vector<int32_t> dist(stats.vertices, -1);
    auto bfs_farthest = [&](uint64_t source) -> std::pair<uint64_t, uint64_t> {
      std::fill(dist.begin(), dist.end(), -1);
      std::queue<uint64_t> q;
      q.push(source);
      dist[source] = 0;
      uint64_t far_node = source, far_dist = 0;
      while (!q.empty()) {
        uint64_t v = q.front();
        q.pop();
        for (uint32_t n : adj[v]) {
          if (dist[n] < 0) {
            dist[n] = dist[v] + 1;
            if (static_cast<uint64_t>(dist[n]) > far_dist) {
              far_dist = static_cast<uint64_t>(dist[n]);
              far_node = n;
            }
            q.push(n);
          }
        }
      }
      return {far_node, far_dist};
    };
    for (int i = 0; i < options.diameter_samples; ++i) {
      uint64_t source = members[rng.Uniform(members.size())];
      auto [far_node, d1] = bfs_farthest(source);
      auto [far2, d2] = bfs_farthest(far_node);  // double sweep
      (void)far2;
      stats.diameter = std::max({stats.diameter, d1, d2});
    }
  }
  return stats;
}

std::string FormatStatsRow(const GraphStats& s) {
  return StrFormat(
      "%-6s |V|=%-9llu |E|=%-9llu |L|=%-5llu #CC=%-8llu maxCC=%-9llu "
      "density=%.2e modularity=%.3f avgDeg=%.1f maxDeg=%-8llu diam>=%llu",
      s.name.c_str(), static_cast<unsigned long long>(s.vertices),
      static_cast<unsigned long long>(s.edges),
      static_cast<unsigned long long>(s.labels),
      static_cast<unsigned long long>(s.components),
      static_cast<unsigned long long>(s.max_component), s.density,
      s.modularity, s.avg_degree,
      static_cast<unsigned long long>(s.max_degree),
      static_cast<unsigned long long>(s.diameter));
}

}  // namespace datasets
}  // namespace gdbmicro
