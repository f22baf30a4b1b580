// GraphData: the in-memory dataset exchange format. Generators produce it,
// the GraphSON reader/writer round-trips it, and engines bulk-load it
// (the paper's Query 1).

#ifndef GDBMICRO_GRAPH_GRAPH_DATA_H_
#define GDBMICRO_GRAPH_GRAPH_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/types.h"

namespace gdbmicro {

/// A dataset as a list of vertices and edges. Edge endpoints are *indexes*
/// into `vertices` (not engine ids; engines assign their own ids at load
/// and report them through LoadMapping).
struct GraphData {
  struct Vertex {
    std::string label;
    PropertyMap properties;
  };
  struct Edge {
    uint64_t src = 0;  // index into vertices
    uint64_t dst = 0;  // index into vertices
    std::string label;
    PropertyMap properties;
  };

  std::string name;  // dataset name, e.g. "frb-s"
  std::vector<Vertex> vertices;
  std::vector<Edge> edges;

  uint64_t VertexCount() const { return vertices.size(); }
  uint64_t EdgeCount() const { return edges.size(); }

  /// Validates endpoint indexes; returns an error describing the first
  /// dangling edge if any.
  Status Validate() const;
};

/// Mapping from GraphData indexes to engine-assigned ids, returned by
/// GraphEngine::BulkLoad. The workload picker uses it so that every engine
/// is queried about the *same* logical elements.
struct LoadMapping {
  std::vector<VertexId> vertex_ids;
  std::vector<EdgeId> edge_ids;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_GRAPH_GRAPH_DATA_H_
