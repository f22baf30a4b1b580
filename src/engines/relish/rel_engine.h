// Sqlg/Postgres-style hybrid relational engine ("sqlg").
//
// Storage layout (paper §3.2): "one table for each edge type, and one
// table for each node type. Each node and edge is identified by a unique
// ID, and connections between nodes and edges are retrieved through
// joins." Edge tables carry B+Tree foreign-key indexes on both endpoints,
// which is what makes 1-2 hop traversals restricted to a single edge label
// extremely fast — and what makes unrestricted traversals (BFS, shortest
// path, degree filters) pay a union of index probes across *every* edge
// table (the paper's core finding about Sqlg).
//
// DDL is expensive and implicit: inserting a vertex with a new label
// creates a table; setting a property name a table has never seen adds a
// column. Both charge the cost model's DDL fee, reproducing Sqlg's slow
// and structure-sensitive CUD behaviour (Fig. 3).

#ifndef GDBMICRO_ENGINES_RELISH_REL_ENGINE_H_
#define GDBMICRO_ENGINES_RELISH_REL_ENGINE_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/engines/common/attribute_index.h"
#include "src/graph/engine.h"
#include "src/storage/btree.h"
#include "src/util/hash.h"

namespace gdbmicro {

class RelEngine : public GraphEngine {
 public:
  RelEngine() = default;

  std::string_view name() const override { return "sqlg"; }
  EngineInfo info() const override;
  Status Open(const EngineOptions& options) override;

  Result<VertexId> AddVertex(std::string_view label,
                             const PropertyMap& props) override;
  Result<EdgeId> AddEdge(VertexId src, VertexId dst, std::string_view label,
                         const PropertyMap& props) override;
  Status SetVertexProperty(VertexId v, std::string_view name,
                           const PropertyValue& value) override;
  Status SetEdgeProperty(EdgeId e, std::string_view name,
                         const PropertyValue& value) override;

  Result<VertexRecord> GetVertex(QuerySession& session, VertexId id) const override;
  Result<EdgeRecord> GetEdge(QuerySession& session, EdgeId id) const override;
  /// Finds the key's column in the row and copies only its value: the
  /// default Q12 scan probes every edge with it. (Q11 has its own search
  /// below, so vertices keep the default probe.)
  Result<bool> ReadEdgeProperty(QuerySession& session, EdgeId id,
                                std::string_view key,
                                PropertyValue* out) const override;
  Result<std::vector<std::string>> DistinctEdgeLabels(QuerySession& session, 
      const CancelToken& cancel) const override;
  Result<std::vector<EdgeId>> FindEdgesByLabel(QuerySession& session, 
      std::string_view label, const CancelToken& cancel) const override;
  Result<std::vector<VertexId>> FindVerticesByProperty(QuerySession& session, 
      std::string_view prop, const PropertyValue& value,
      const CancelToken& cancel) const override;

  Status RemoveVertex(VertexId v) override;
  Status RemoveEdge(EdgeId e) override;
  Status RemoveVertexProperty(VertexId v, std::string_view name) override;
  Status RemoveEdgeProperty(EdgeId e, std::string_view name) override;

  Status ScanVertices(QuerySession& session, const CancelToken& cancel,
                      const std::function<bool(VertexId)>& fn) const override;
  Status ScanEdges(QuerySession& session, 
      const CancelToken& cancel,
      const std::function<bool(const EdgeEnds&)>& fn) const override;
  /// Streams FK-index probes: one table when label-restricted (the fast
  /// path), a UNION ALL over every edge table otherwise (the slow path
  /// the paper measures for BFS/SP/degree queries).
  Status ForEachEdgeOf(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                       const CancelToken& cancel,
                       const std::function<bool(EdgeId)>& fn) const override;
  Status ForEachNeighbor(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                         const CancelToken& cancel,
                         const std::function<bool(VertexId)>& fn) const override;
  Result<EdgeEnds> GetEdgeEnds(QuerySession& session, EdgeId e) const override;
  // VertexIdUpperBound stays 0: vertex ids pack (table, row) into sparse
  // 64-bit keys, so flat visited arrays would be pathologically large.

  Status CreateVertexPropertyIndex(std::string_view prop) override;

  uint64_t CheckpointBytes() const override;
  uint64_t MemoryBytes() const override;

 protected:
  /// Native loader (Sqlg's batch mode / Postgres COPY): tables are
  /// created and presized from a per-label counting pass, rows are
  /// batch-appended without touching the FK B+Trees, and both FK indexes
  /// of every edge table are bulk-built once afterwards.
  Result<LoadMapping> BulkLoadNative(const GraphData& data) override;

 private:
  static constexpr int kTableShift = 40;
  static uint64_t Pack(uint64_t table, uint64_t row) {
    return (table << kTableShift) | row;
  }
  static uint64_t TableOf(uint64_t id) { return id >> kTableShift; }
  static uint64_t RowOf(uint64_t id) {
    return id & ((1ULL << kTableShift) - 1);
  }

  struct VRow {
    bool live = false;
    PropertyMap props;
  };
  struct ERow {
    bool live = false;
    VertexId src = 0;
    VertexId dst = 0;
    PropertyMap props;
  };
  // Heterogeneous containers: catalog and column probes take string_views
  // without materializing a std::string per row.
  using ColumnSet = std::set<std::string, std::less<>>;
  using LabelMap = std::unordered_map<std::string, uint64_t,
                                      TransparentStringHash, std::equal_to<>>;

  struct VTable {
    std::string label;
    std::vector<VRow> rows;
    uint64_t live_count = 0;
    ColumnSet columns;
  };
  struct ETable {
    std::string label;
    std::vector<ERow> rows;
    uint64_t live_count = 0;
    ColumnSet columns;
    BTree<VertexId, uint64_t> src_index;  // FK index on source endpoint
    BTree<VertexId, uint64_t> dst_index;  // FK index on target endpoint
  };

  uint64_t VTableForLabel(std::string_view label);  // DDL if new
  uint64_t ETableForLabel(std::string_view label);
  void EnsureColumns(ColumnSet* columns, const PropertyMap& props);
  void EnsureColumn(ColumnSet* columns, std::string_view name);

  Status RemoveEdgeInternal(EdgeId e);

  // The shared FK-index walk: streams (table, row) of every edge incident
  // to v matching (dir, label). Self-loops are emitted once via the src
  // index.
  Status WalkIncident(
      VertexId v, Direction dir, const std::string* label,
      const CancelToken& cancel,
      const std::function<bool(uint64_t table, uint64_t row)>& fn) const;

  std::vector<VTable> vtables_;
  std::vector<ETable> etables_;
  LabelMap vtable_by_label_;
  LabelMap etable_by_label_;
  AttributeIndex attribute_index_;
  CostModel ddl_cost_;
};

std::unique_ptr<GraphEngine> MakeRelEngine();

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_RELISH_REL_ENGINE_H_
