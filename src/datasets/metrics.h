// Graph statistics: everything reported in the paper's Table 3 for each
// dataset (|V|, |E|, |L|, connected components, density, modularity,
// degree statistics, diameter estimate).

#ifndef GDBMICRO_DATASETS_METRICS_H_
#define GDBMICRO_DATASETS_METRICS_H_

#include <cstdint>
#include <string>

#include "src/graph/graph_data.h"

namespace gdbmicro {
namespace datasets {

struct GraphStats {
  std::string name;
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t labels = 0;           // distinct edge labels
  uint64_t components = 0;       // weakly connected components
  uint64_t max_component = 0;    // size of the largest one
  double density = 0.0;          // |E| / (|V| * (|V|-1)), directed
  double modularity = 0.0;       // of the connected-component partition
  double avg_degree = 0.0;       // both directions
  uint64_t max_degree = 0;
  uint64_t diameter = 0;         // BFS-sampled lower bound in largest comp.
};

struct MetricsOptions {
  /// BFS sources sampled inside the largest component for the diameter
  /// estimate (the exact diameter is intractable at Frb-L scale; the paper
  /// reports Δ once per dataset, we report a sampled lower bound). 0
  /// skips the estimate.
  int diameter_samples = 8;
};

/// Computes Table 3's statistics for a dataset.
GraphStats ComputeStats(const GraphData& data,
                        const MetricsOptions& options = {});

/// Renders a Table 3-style row.
std::string FormatStatsRow(const GraphStats& stats);

}  // namespace datasets
}  // namespace gdbmicro

#endif  // GDBMICRO_DATASETS_METRICS_H_
