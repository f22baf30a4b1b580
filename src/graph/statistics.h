// Load-time graph statistics: the precomputed summaries the cost-based
// query planner prices plans against (the RDF-3X discipline — cheap,
// exact-where-possible statistics segments built once at load, consulted
// at plan time with no engine access).
//
// GraphStatistics is collected by GraphEngine::BulkLoad from the
// GraphData being ingested (engine-agnostic: every engine loads the same
// logical graph, so one collector serves all nine variants) and exposed
// through the const GraphEngine::statistics() surface. It holds:
//
//  * vertex/edge totals and per-label cardinalities,
//  * per-direction degree distributions (log2-bucketed) over all
//    vertices — the expand-fanout and degree-filter selectivity inputs,
//  * per-property-key equi-depth histograms over the value domain with a
//    bounded bucket count — the has(k, v) equality-selectivity input.
//
// Every estimation helper is total: empty graphs, zero-element labels,
// and unknown keys/labels/values return 0 instead of dividing by zero
// (the planner then falls back to its defaults). Collection is gated by
// EngineOptions::collect_statistics and timed separately in
// BulkLoadStats::stats_build_millis.

#ifndef GDBMICRO_GRAPH_STATISTICS_H_
#define GDBMICRO_GRAPH_STATISTICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/graph/graph_data.h"
#include "src/graph/types.h"

namespace gdbmicro {

/// One slice of an equi-depth histogram over a property key's sorted
/// value domain: all values v with prev_upper < v <= upper. A distinct
/// value never splits across buckets, so the equality estimate
/// count / distinct is exact for uniform-within-bucket keys.
struct HistogramBucket {
  PropertyValue upper;    // inclusive upper bound
  uint64_t count = 0;     // elements whose value falls in this bucket
  uint64_t distinct = 0;  // distinct values in this bucket
};

/// Statistics for one property key on one element class (vertices or
/// edges).
struct PropertyKeyStats {
  uint64_t count = 0;     // elements carrying the key
  uint64_t distinct = 0;  // distinct values across those elements
  std::vector<HistogramBucket> buckets;  // equi-depth, <= kMaxBuckets

  /// Bounded bucket count: 64 buckets resolve a 1e-2 selectivity skew on
  /// the benchmark datasets while keeping per-key footprint trivial.
  static constexpr size_t kMaxBuckets = 64;

  /// Estimated number of elements with value == v: the count / distinct
  /// of the first bucket whose upper bound is >= v (uniform-within-bucket
  /// assumption). Only values above the largest bucket's upper bound
  /// estimate 0; a value below the observed domain, or missing inside it,
  /// takes its covering bucket's estimate.
  double EstimateEq(const PropertyValue& v) const;
};

/// Log2-bucketed degree distribution: bucket 0 counts degree-0 elements,
/// bucket i >= 1 counts degrees in [2^(i-1), 2^i - 1]. Compact, and
/// precise enough for degree-filter selectivity.
struct DegreeHistogram {
  static constexpr int kBuckets = 32;
  std::array<uint64_t, kBuckets> buckets{};
  uint64_t total = 0;  // vertices counted (including degree 0)
  uint64_t sum = 0;    // sum of degrees
  uint64_t max = 0;

  void Add(uint64_t degree);
  /// Mean degree; 0 for an empty histogram.
  double Avg() const;
  /// Fraction of counted vertices with degree >= k, in [0, 1]; assumes a
  /// uniform spread inside the bucket containing k. 0 when empty.
  double FractionAtLeast(uint64_t k) const;
};

/// Degree distributions of all vertices, split by direction. kBoth is
/// its own histogram (out + in per vertex), not a derived sum —
/// degree-filter queries ask for it directly.
struct DegreeStats {
  uint64_t vertices = 0;
  DegreeHistogram out;
  DegreeHistogram in;
  DegreeHistogram both;

  const DegreeHistogram& For(Direction dir) const;
};

/// The full statistics segment for one loaded graph.
struct GraphStatistics {
  uint64_t vertices = 0;
  uint64_t edges = 0;

  std::unordered_map<std::string, uint64_t> vertex_label_counts;
  std::unordered_map<std::string, uint64_t> edge_label_counts;

  /// Degree distributions over all vertices.
  DegreeStats degrees;

  /// Per-property-key value histograms, separately for vertices/edges.
  std::unordered_map<std::string, PropertyKeyStats> vertex_properties;
  std::unordered_map<std::string, PropertyKeyStats> edge_properties;

  /// Builds the segment in one pass over the dataset, then one sort per
  /// property key for the equi-depth histograms. The sort copies no
  /// value: it orders (type, 64-bit order-preserving prefix) keys that
  /// point at the dataset's values (normalized keys, Graefe, ACM CSUR
  /// 2006), and compares full values only among strings that share their
  /// first 8 bytes.
  static GraphStatistics Collect(const GraphData& data);

  // --- Total lookup helpers (0 for anything unknown) --------------------

  uint64_t VerticesWithLabel(std::string_view label) const;
  uint64_t EdgesWithLabel(std::string_view label) const;
  const PropertyKeyStats* VertexProperty(std::string_view key) const;
  const PropertyKeyStats* EdgeProperty(std::string_view key) const;

  /// Mean edges incident per vertex in `dir` (kBoth counts each edge at
  /// both endpoints). With `edge_label`, only edges of that label count.
  double AvgDegree(Direction dir) const;
  double AvgDegree(Direction dir, std::string_view edge_label) const;

  /// Fraction of all vertices whose degree in `dir` is >= k.
  double FractionDegreeAtLeast(Direction dir, uint64_t k) const;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_GRAPH_STATISTICS_H_
