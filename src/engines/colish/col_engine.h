// Titan-style hybrid columnar engine ("titan05" / "titan10").
//
// Storage layout (paper §3.2): "the graph as a collection of adjacency
// lists. The system generates a row for each node, and then one column for
// each node attribute and each edge. For each edge traversal, it needs to
// access the node (row) ID index first." The backend write path models
// Cassandra: consistency checks read both endpoint rows, and every
// mutation pays a commit charge; deletions are tombstones, an order of
// magnitude cheaper (the paper's observation on Titan deletes).
//
// On checkpoint, neighbor ids in each row are delta+varint encoded — the
// compaction strategy that gives Titan the paper's best space footprint on
// hub-heavy graphs (Fig. 1).
//
// The v1.0 variant adds a row cache (back-end caching the paper credits
// for Titan 1.0's fast complex queries) and a cheaper, production-tuned
// write path.

#ifndef GDBMICRO_ENGINES_COLISH_COL_ENGINE_H_
#define GDBMICRO_ENGINES_COLISH_COL_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/engines/common/attribute_index.h"
#include "src/engines/common/dictionary.h"
#include "src/graph/engine.h"
#include "src/storage/hash_index.h"
#include "src/storage/lru_cache.h"

namespace gdbmicro {

/// Per-connection state of the Titan-like engine: the v1.0 row cache (the
/// back-end caching the paper credits for Titan 1.0's fast complex
/// queries) and the batched-read window of the TinkerPop adapter's slice
/// reads. Both model connection-scoped structures, so they live in the
/// session: concurrent clients each warm their own cache and batch their
/// own reads. The cache survives BeginQuery (a connection keeps its cache
/// across queries); it stores only presence (which row keys are warm) —
/// row data is always read from the immutable engine snapshot, so there
/// is no staleness to manage.
class ColSession : public QuerySession {
 public:
  /// Capacity (entries) of the v1.0 row cache.
  static constexpr uint64_t kRowCacheEntries = 4096;

  ColSession(const GraphEngine* engine, bool with_row_cache)
      : QuerySession(engine),
        row_cache(with_row_cache
                      ? std::make_unique<LruCache<VertexId, uint64_t>>(
                            kRowCacheEntries)
                      : nullptr) {}

 private:
  friend class ColEngine;
  std::unique_ptr<LruCache<VertexId, uint64_t>> row_cache;  // v1.0 only
  uint64_t batched_reads = 0;
};

class ColEngine : public GraphEngine {
 public:
  explicit ColEngine(bool v10);

  std::string_view name() const override { return v10_ ? "titan10" : "titan05"; }
  EngineInfo info() const override;
  Status Open(const EngineOptions& options) override;

  std::unique_ptr<QuerySession> CreateSession() const override {
    return std::make_unique<ColSession>(this, /*with_row_cache=*/v10_);
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
  Result<std::vector<VertexId>> FindVerticesByProperty(QuerySession& session, 
      std::string_view prop, const PropertyValue& value,
      const CancelToken& cancel) const override;
  Result<std::vector<EdgeId>> FindEdgesByProperty(QuerySession& session, 
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
  Status ForEachEdgeOf(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                       const CancelToken& cancel,
                       const std::function<bool(EdgeId)>& fn) const override;
  Status ForEachNeighbor(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                         const CancelToken& cancel,
                         const std::function<bool(VertexId)>& fn) const override;
  Result<EdgeEnds> GetEdgeEnds(QuerySession& session, EdgeId e) const override;
  uint64_t VertexIdUpperBound() const override { return next_vertex_; }

  /// v1.0 runs global degree filters through bulk slice scans (no per-row
  /// backend round trip), which is why the paper finds Titan 1.0 — along
  /// with Neo4j — the only system completing Q.28-Q.31 everywhere. v0.5
  /// still pays the per-row read, and times out at scale.
  Result<uint64_t> CountEdgesOf(QuerySession& session, VertexId v, Direction dir,
                                const CancelToken& cancel) const override;

  Status CreateVertexPropertyIndex(std::string_view prop) override;

  uint64_t CheckpointBytes() const override;
  uint64_t MemoryBytes() const override;

 protected:
  /// Native loader (batched mutations, schema predefined — the paper
  /// disabled Titan's automatic schema inference for loading): rows are
  /// assembled in a flat array with adjacency presized from a degree
  /// pass, then moved into the presized row-key index once — no per-edge
  /// hash probes, consistency reads, or rehash row moves.
  Result<LoadMapping> BulkLoadNative(const GraphData& data) override;

 private:
  static constexpr int kLocalBits = 20;
  static EdgeId PackEdgeId(VertexId src, uint64_t local) {
    return (src << kLocalBits) | local;
  }
  static VertexId SrcOf(EdgeId e) { return e >> kLocalBits; }
  static uint64_t LocalOf(EdgeId e) {
    return e & ((1ULL << kLocalBits) - 1);
  }

  struct AdjEntry {
    uint32_t label = 0;
    bool out = true;       // column family: out vs in
    bool tombstone = false;
    VertexId other = 0;
    EdgeId edge = 0;
    PropertyMap eprops;  // stored on the out entry only
  };
  // Where one out edge's two entries live: `out` indexes the source row's
  // adj, `in` the destination row's (the same row for a self-loop). adj
  // entries are only ever appended or tombstoned, so positions never move.
  struct EdgeSlot {
    uint32_t out = 0;
    uint32_t in = 0;
  };
  struct Row {
    uint32_t label = 0;
    PropertyMap props;
    std::vector<AdjEntry> adj;
    // The row's out edges by local edge number (LocalOf); its size is the
    // next local number.
    std::vector<EdgeSlot> edges;
  };

  // Point-lookup row access through the row-key index; the read charge is
  // skipped when the session's row cache is warm for v.
  const Row* FetchRow(QuerySession& session, VertexId v) const;

  // Traversal-path row access: the TinkerPop adapter batches slice reads
  // (kReadBatch rows per backend round trip), so only every kReadBatch-th
  // access of a session pays the read charge. Point lookups
  // (GetVertex/GetEdge) still pay per call through FetchRow.
  static constexpr uint64_t kReadBatch = 64;
  const Row* FetchRowBatched(QuerySession& session, VertexId v) const;

  // Row-key hop to e's source row, then one index through its edge table;
  // null when e is unknown or removed.
  AdjEntry* FindOutEntry(EdgeId e);
  const AdjEntry* FindOutEntry(EdgeId e) const;

  // Appends a new edge's out entry to src_row and its in entry to dst_row,
  // records both positions under src_row's next local edge number, and
  // returns the edge's id.
  EdgeId AppendEdge(Row& src_row, VertexId src, Row& dst_row, VertexId dst,
                    uint32_t label, const PropertyMap& props);

  // Streams the live adjacency entries of v's row that match (dir, label)
  // — the single slice walk both visitor overrides share. Self-loops are
  // emitted once via their out entry.
  Status WalkAdj(QuerySession& session, VertexId v, Direction dir,
                 const std::string* label, const CancelToken& cancel,
                 const std::function<bool(const AdjEntry&)>& fn) const;

  Status RemoveEdgeInternal(EdgeId e, bool charge);

  bool v10_;
  CostModel backend_;
  int64_t tombstone_write_us_ = 0;

  HashIndex<VertexId, Row> rows_;  // row-key index
  Dictionary labels_;
  uint64_t next_vertex_ = 0;
  uint64_t edge_count_ = 0;

  AttributeIndex attribute_index_;  // graph-centric indexes
};

std::unique_ptr<GraphEngine> MakeColEngine(bool v10);

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_COLISH_COL_ENGINE_H_
