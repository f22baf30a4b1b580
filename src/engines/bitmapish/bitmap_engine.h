// Sparksee/DEX-style bitmap engine ("bitmapish").
//
// Storage layout (paper §3.2): one unified object-id space for vertices and
// edges; "two structures for relationships which describe which nodes and
// edges are linked to each other" (here: edge->src and edge->dst maps plus
// per-vertex incidence bitmaps); and per attribute name a map from values
// to bitmaps ("each value links to a bitmap, where each bit corresponds to
// an object ID"). Many operations are bitwise operations on compressed
// bitmaps: counts are O(1) cardinalities, label filters are bitmap
// intersections.
//
// The engine also models the defect the paper traces in Sparksee's Gremlin
// layer: per-query intermediate materialization. Every EdgesOf/NeighborsOf
// materialization is charged to a query-scoped arena (reset by
// BeginQuery); when EngineOptions::memory_budget_bytes is exceeded the
// query fails with kResourceExhausted — reproducing the Q28-Q31
// memory-exhaustion failures of Fig. 5(b) without taking the process down.

#ifndef GDBMICRO_ENGINES_BITMAPISH_BITMAP_ENGINE_H_
#define GDBMICRO_ENGINES_BITMAPISH_BITMAP_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/engines/common/dictionary.h"
#include "src/graph/engine.h"
#include "src/storage/bitmap.h"
#include "src/storage/hash_index.h"

namespace gdbmicro {

/// The Sparksee Gremlin adapter's per-connection working memory: every
/// materialized intermediate is charged to this arena, which the runner
/// resets between measured queries via BeginQuery(). Lives in the session
/// so concurrent clients each have their own budget window — exactly the
/// per-session exhaustion the paper observes (one query's arena cannot
/// fail another client's query).
class BitmapSession : public QuerySession {
 public:
  explicit BitmapSession(const GraphEngine* engine) : QuerySession(engine) {}

  void BeginQuery() override { arena_bytes_ = 0; }

  uint64_t arena_bytes() const { return arena_bytes_; }

 private:
  friend class BitmapEngine;
  uint64_t arena_bytes_ = 0;
};

class BitmapEngine : public GraphEngine {
 public:
  BitmapEngine() = default;

  std::string_view name() const override { return "sparksee"; }
  EngineInfo info() const override;

  std::unique_ptr<QuerySession> CreateSession() const override {
    return std::make_unique<BitmapSession>(this);
  }

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
  /// One probe of the key's attribute column (oid -> value); the other
  /// columns are not touched.
  Result<bool> ReadVertexProperty(QuerySession& session, VertexId id,
                                  std::string_view key,
                                  PropertyValue* out) const override;
  Result<bool> ReadEdgeProperty(QuerySession& session, EdgeId id,
                                std::string_view key,
                                PropertyValue* out) const override;
  Result<uint64_t> CountVertices(QuerySession& session, const CancelToken& cancel) const override;
  Result<uint64_t> CountEdges(QuerySession& session, const CancelToken& cancel) const override;

  Status RemoveVertex(VertexId v) override;
  Status RemoveEdge(EdgeId e) override;
  Status RemoveVertexProperty(VertexId v, std::string_view name) override;
  Status RemoveEdgeProperty(EdgeId e, std::string_view name) override;

  Status ScanVertices(QuerySession& session, const CancelToken& cancel,
                      const std::function<bool(VertexId)>& fn) const override;
  Status ScanEdges(QuerySession& session, 
      const CancelToken& cancel,
      const std::function<bool(const EdgeEnds&)>& fn) const override;
  /// Streams the incidence bitmaps in ascending-oid order; a label filter
  /// is a Contains probe against the label's edge bitmap (the bitwise
  /// side of the layout), not an edge-record fetch.
  Status ForEachEdgeOf(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                       const CancelToken& cancel,
                       const std::function<bool(EdgeId)>& fn) const override;
  Status ForEachNeighbor(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                         const CancelToken& cancel,
                         const std::function<bool(VertexId)>& fn) const override;
  Result<EdgeEnds> GetEdgeEnds(QuerySession& session, EdgeId e) const override;
  /// Bound on vertex oids only: the unified oid counter also numbers
  /// edges, which would inflate dense visited structures by |E|.
  uint64_t VertexIdUpperBound() const override {
    return max_vertex_oid_ == kInvalidId ? 0 : max_vertex_oid_ + 1;
  }
  Result<uint64_t> CountEdgesOf(QuerySession& session, VertexId v, Direction dir,
                                const CancelToken& cancel) const override;

  /// Attribute values are already value-indexed by construction, so this
  /// is accepted as a no-op — and, exactly as the paper observes (§6.4),
  /// the Gremlin-level property search does not exploit it.
  Status CreateVertexPropertyIndex(std::string_view prop) override;

  uint64_t CheckpointBytes() const override;
  uint64_t MemoryBytes() const override;

 protected:
  /// Native loader: the oid maps are presized from the dataset counts and
  /// the per-vertex incidence bitmaps are assembled locally (edge oids
  /// arrive in ascending order, so every Add is an append) and attached
  /// once — no get-or-insert probe pair per edge.
  Result<LoadMapping> BulkLoadNative(const GraphData& data) override;

 private:
  /// One attribute name across the unified oid space: value -> bitmap for
  /// selections, oid -> value for materialization.
  struct AttrColumn {
    std::map<PropertyValue, Bitmap> by_value;
    HashIndex<uint64_t, PropertyValue> values;
  };

  // Per-EdgesOf materialization overhead charged to the session arena
  // (session buffers in the Gremlin adapter), plus 8 bytes per edge id.
  static constexpr uint64_t kArenaPerCall = 1024;

  Status ChargeArena(QuerySession& session, const CancelToken& cancel,
                     uint64_t bytes) const;

  // The shared incidence walk: streams matching edge oids out of the
  // out/in bitmaps, self-loops emitted once via the out bitmap.
  Status WalkIncident(VertexId v, Direction dir, const std::string* label,
                      const CancelToken& cancel,
                      const std::function<bool(EdgeId)>& fn) const;

  void SetAttr(uint64_t oid, std::string_view name, const PropertyValue& v);
  bool EraseAttr(uint64_t oid, std::string_view name);
  PropertyMap MaterializeAttrs(uint64_t oid) const;
  // The value of attribute `name` of `oid` copied into *out; false when
  // the object does not carry it.
  bool ReadAttr(uint64_t oid, std::string_view name, PropertyValue* out) const;

  Status RemoveEdgeInternal(EdgeId e);

  uint64_t next_oid_ = 0;
  uint64_t max_vertex_oid_ = kInvalidId;  // highest vertex oid ever issued
  Bitmap vertices_;
  Bitmap edges_;
  HashIndex<uint64_t, uint64_t> edge_src_;
  HashIndex<uint64_t, uint64_t> edge_dst_;
  HashIndex<uint64_t, uint32_t> edge_label_;
  HashIndex<uint64_t, uint32_t> vertex_label_;
  HashIndex<uint64_t, Bitmap> out_edges_;
  HashIndex<uint64_t, Bitmap> in_edges_;
  std::vector<Bitmap> edges_by_label_;     // label id -> edges
  std::vector<Bitmap> vertices_by_label_;  // label id -> vertices
  Dictionary labels_;
  std::map<std::string, AttrColumn, std::less<>> columns_;
};

std::unique_ptr<GraphEngine> MakeBitmapEngine();

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_BITMAPISH_BITMAP_ENGINE_H_
